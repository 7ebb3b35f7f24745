"""Judge backends: the HTTP wire protocol, fixture replay, and cached calls.

Wire protocol is a single-turn POST with JSON body
{prompt, temperature, seed, max_tokens} and JSON reply {text}. Adapters can
map that onto any model server.
"""

from __future__ import annotations

from typing import Protocol

from .cache import Cache, DecodingParams, cache_key, prompt_digest
from .transport import FixtureBackend, HttpBackend


class JudgeParseError(ValueError):
    """A judge reply that does not carry the expected structured answer."""


class JudgeBackend(Protocol):
    backend_id: str

    def generate(self, prompt: str, params: DecodingParams) -> str: ...


class HttpJudgeBackend(HttpBackend):
    """POST {prompt, temperature, seed, max_tokens} -> {text}."""

    # `generate` is defined on this class itself, not inherited:
    # perfbench/tracing.py wraps it by looking it up in the class __dict__.
    def generate(self, prompt: str, params: DecodingParams) -> str:
        return self._post({
            "prompt": prompt,
            "temperature": params.temperature,
            "seed": params.seed,
            "max_tokens": params.max_tokens,
        }, "text")


class FixtureJudgeBackend(FixtureBackend):
    """Replays canned responses from a JSONL file of {digest, response} rows,
    keyed by the digest of the rendered prompt."""

    FIELD = "response"

    def generate(self, prompt: str, params: DecodingParams) -> str:
        return self._lookup(prompt)


def judge_generate(
    backend: JudgeBackend,
    prompt: str,
    params: DecodingParams,
    cache: Cache,
    template_id: str = "judge",
) -> str:
    """Cached single-turn generation: hit -> stored text, miss -> one backend call."""
    key = cache_key(template_id, prompt, backend.backend_id, params)
    hit = cache.get(key)
    if hit is not None:
        return hit["response"]
    text = backend.generate(prompt, params)
    stored = cache.put(
        key,
        {
            "template_id": template_id,
            "backend_id": backend.backend_id,
            "prompt_digest": prompt_digest(prompt),
            "params": {
                "temperature": params.temperature,
                "seed": params.seed,
                "max_tokens": params.max_tokens,
            },
            "response": text,
        },
    )
    return stored["response"]
