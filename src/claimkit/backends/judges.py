"""Judge backends: the HTTP wire protocol, fixture replay, and cached calls.

Wire protocol is a single-turn POST with JSON body
{prompt, temperature, seed, max_tokens} and JSON reply {text}. Adapters can
map that onto any model server. Cached calls return one reply per
(template id, prompt) request, in request order.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Iterable, Protocol

from .cache import Cache, CacheRecordError, DecodingParams, cache_key, prompt_digest
from .transport import FixtureBackend, HttpBackend, ProtocolError, fetch_cached


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
    return judge_generate_many(backend, [(template_id, prompt)], params, cache)[0]


def judge_generate_many(
    backend: JudgeBackend,
    requests: Iterable[tuple[str, str]],
    params: DecodingParams,
    cache: Cache,
) -> list[str]:
    """Cached generation: the reply to each (template id, prompt) request, in
    request order, duplicates included.

    Each distinct request is fetched once through `fetch_cached`, one prompt
    per call. A reply that is not a string raises ProtocolError and is not
    stored; a stored record without a string reply raises CacheRecordError.
    """
    def call(batch: list[tuple[str, str]]) -> list[dict]:
        ((template_id, prompt),) = batch
        response = backend.generate(prompt, params)
        if not isinstance(response, str):
            raise ProtocolError(f"judge reply is a {type(response).__name__}, not a string")
        return [{
            "template_id": template_id,
            "backend_id": backend.backend_id,
            "prompt_digest": prompt_digest(prompt),
            "params": asdict(params),
            "response": response,
        }]

    records = fetch_cached(backend, cache, (
        (cache_key(template_id, prompt, backend.backend_id, params), (template_id, prompt))
        for template_id, prompt in requests), call)
    replies = [record.get("response") if isinstance(record, dict) else None
               for record in records]
    if not all(isinstance(reply, str) for reply in replies):
        raise CacheRecordError("judge", "has no string 'response'")
    return replies
