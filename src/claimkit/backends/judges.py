"""Judge backends: the HTTP wire protocol, fixture replay, and cached calls.

Wire protocol is a single-turn POST with JSON body
{prompt, temperature, seed, max_tokens} and JSON reply {text}. Adapters can
map that onto any model server.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Iterable, Protocol

from .cache import Cache, DecodingParams, cache_key, prompt_digest
from .transport import FixtureBackend, HttpBackend, fetch_cached


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
    """Cached single-turn generation: the one-prompt case of `judge_generate_many`."""
    (reply,) = judge_generate_many(backend, [(template_id, prompt)], params, cache).values()
    return reply


def judge_generate_many(
    backend: JudgeBackend,
    requests: Iterable[tuple[str, str]],
    params: DecodingParams,
    cache: Cache,
) -> dict[tuple[str, str], str]:
    """Cached generation for many (template id, prompt) requests.

    Returns {(template id, prompt_digest(prompt)): reply}. Each distinct
    request is fetched once through `fetch_cached`, one prompt per call.
    """
    plan: dict[tuple[str, str], tuple] = {}  # reply key -> (cache key, (reply key, prompt))
    for template_id, prompt in requests:
        reply_key = (template_id, prompt_digest(prompt))
        if reply_key not in plan:
            key = cache_key(template_id, prompt, backend.backend_id, params)
            plan[reply_key] = (key, (reply_key, prompt))

    def call(batch: list[tuple[tuple[str, str], str]]) -> list[dict]:
        return [{
            "template_id": template_id,
            "backend_id": backend.backend_id,
            "prompt_digest": digest,
            "params": asdict(params),
            "response": backend.generate(prompt, params),
        } for (template_id, digest), prompt in batch]

    records = fetch_cached(backend, cache, plan.values(), call)
    return {reply_key: records[key]["response"] for reply_key, (key, _) in plan.items()}
