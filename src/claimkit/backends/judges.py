"""Judge backends: the HTTP wire protocol, fixture replay, and cached calls.

Wire protocol is a single-turn POST with JSON body
{prompt, temperature, seed, max_tokens} and JSON reply {text}. Adapters can
map that onto any model server.
"""

from __future__ import annotations

from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from typing import Callable, Iterable, Protocol

from .cache import Cache, DecodingParams, cache_key, prompt_digest
from .transport import MAX_IN_FLIGHT, FixtureBackend, HttpBackend


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
    request is read from the cache once, and each distinct miss makes one
    backend call whose reply is stored (single-flight). Misses go to an
    `HttpBackend` up to MAX_IN_FLIGHT at a time; any other backend answers
    in memory, so it is called one miss at a time in request order. When a
    call fails, no further call starts, the calls in flight finish and are
    stored, and the error of the earliest failed request is raised.
    """
    replies: dict[tuple[str, str], str] = {}
    misses: dict[tuple[str, str], tuple[str, str]] = {}  # reply key -> (cache key, prompt)
    for template_id, prompt in requests:
        reply_key = (template_id, prompt_digest(prompt))
        if reply_key in replies or reply_key in misses:
            continue
        key = cache_key(template_id, prompt, backend.backend_id, params)
        hit = cache.get(key)
        if hit is None:
            misses[reply_key] = (key, prompt)
        else:
            replies[reply_key] = hit["response"]

    def fetch(reply_key: tuple[str, str]) -> str:
        key, prompt = misses[reply_key]
        text = backend.generate(prompt, params)
        stored = cache.put(
            key,
            {
                "template_id": reply_key[0],
                "backend_id": backend.backend_id,
                "prompt_digest": reply_key[1],
                "params": {
                    "temperature": params.temperature,
                    "seed": params.seed,
                    "max_tokens": params.max_tokens,
                },
                "response": text,
            },
        )
        return stored["response"]

    if len(misses) > 1 and isinstance(backend, HttpBackend):
        replies.update(_fetch_concurrently(fetch, list(misses)))
    else:
        for reply_key in misses:
            replies[reply_key] = fetch(reply_key)
    return replies


def _fetch_concurrently(fetch: Callable[[tuple[str, str]], str],
                        keys: list[tuple[str, str]]) -> dict[tuple[str, str], str]:
    with ThreadPoolExecutor(MAX_IN_FLIGHT) as pool:
        futures = [pool.submit(fetch, k) for k in keys]
        wait(futures, return_when=FIRST_EXCEPTION)
        for future in futures:
            future.cancel()  # only calls not yet started; leaving `with` waits for the rest
    for future in futures:  # request order, so the earliest failure is raised
        if not future.cancelled() and future.exception() is not None:
            raise future.exception()
    return {k: future.result() for k, future in zip(keys, futures)}
