"""The one HTTP path and the one fixture loader behind every backend kind.

Judge, embedding and verifier backends differ only in the JSON body they
send and the reply field they read, so each is a one-method subclass of
`HttpBackend` or `FixtureBackend`. Backend ids are `http:<endpoint>` and
`fixture:<file name>`; cache keys include them, so they must not change.
All three reach the cache through one function, `fetch_cached`.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from pathlib import Path
from typing import Any, Callable, Iterable

from .cache import Cache, prompt_digest

RETRIES = 2  # extra attempts after a connection error, a 429 or a 5xx reply
RETRY_BACKOFF_S = 0.5  # wait before the first retry without Retry-After; doubles per retry
TIMEOUT_S = 120.0
RETRY_AFTER_MAX_S = 30.0  # longest wait a server's Retry-After header can ask for
MAX_IN_FLIGHT = 8  # concurrent calls `fetch_cached` makes to one HttpBackend


class TransportError(RuntimeError):
    """Backend unreachable or no canned response available."""


class ProtocolError(RuntimeError):
    """Backend replied, but not in the agreed wire format."""


class HttpBackend:
    """JSON POST to one endpoint, returning one field of the JSON reply.

    A connection error, a 429 or a 5xx reply is retried RETRIES times and
    then raises TransportError. Before retrying a 429 or 5xx reply that
    carries a numeric Retry-After header, the call sleeps that many seconds,
    at most RETRY_AFTER_MAX_S; before any other retry it sleeps
    RETRY_BACKOFF_S, doubled for each retry after the first. Any other
    non-200 reply, a non-JSON body, or a reply that is not an object holding
    the field raises ProtocolError.
    """

    def __init__(self, endpoint: str):
        self.endpoint = endpoint
        self.backend_id = f"http:{endpoint}"

    def _post(self, body: dict, field: str) -> Any:
        # Imported here, not at module level: importing `requests` costs about
        # half as much again as `import claimkit.cli`, and most commands never
        # make an HTTP call.
        import requests

        last_exc: Exception | None = None
        for attempt in range(RETRIES + 1):
            if attempt:
                time.sleep(wait_s)
            wait_s = RETRY_BACKOFF_S * 2 ** attempt  # unless the reply names a wait
            try:
                resp = requests.post(self.endpoint, json=body, timeout=TIMEOUT_S)
            except requests.RequestException as exc:
                last_exc = exc
                continue
            if resp.status_code == 429 or resp.status_code >= 500:
                last_exc = TransportError(f"server replied {resp.status_code}")
                retry_after = resp.headers.get("Retry-After", "").strip()
                if retry_after.isdecimal():
                    wait_s = min(int(retry_after), RETRY_AFTER_MAX_S)
                continue
            if resp.status_code != 200:
                raise ProtocolError(f"unexpected status {resp.status_code}")
            try:
                payload = resp.json()
            except ValueError as exc:
                raise ProtocolError("non-JSON reply body") from exc
            if not isinstance(payload, dict) or field not in payload:
                raise ProtocolError(f"reply missing {field!r} field")
            return payload[field]
        raise TransportError(f"endpoint {self.endpoint} unreachable: {last_exc}")


class FixtureBackend:
    """Replays a JSONL table of {digest, <FIELD>} rows.

    The digest is `prompt_digest` of the text a backend is asked about. A
    missing digest is treated as an unreachable backend, so records are
    never silently passed.
    """

    FIELD: str

    def __init__(self, path: str | Path):
        self.backend_id = f"fixture:{Path(path).name}"
        self._table: dict[str, Any] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                    self._table[obj["digest"]] = obj[self.FIELD]
                except (ValueError, TypeError, KeyError):  # not JSON, not an object, no field
                    raise ValueError(f"{path} line {line_no}: fixture rows need "
                                     f"'digest' and {self.FIELD!r}") from None

    def _lookup(self, text: str) -> Any:
        digest = prompt_digest(text)
        try:
            return self._table[digest]
        except KeyError:
            raise TransportError(f"no fixture {self.FIELD!r} for digest {digest}") from None


def fetch_cached(backend: object, cache: Cache, requests: Iterable[tuple[str, Any]],
                 call: Callable[[list], list[dict]], chunk: int = 1) -> dict[str, dict]:
    """{cache key: stored record} for many (cache key, request) pairs.

    Each distinct key is read from the cache once. The misses go to `call`
    in request order, `chunk` at a time; it returns one record per request,
    and each is stored under its key (single-flight). An `HttpBackend` gets
    up to MAX_IN_FLIGHT calls at once, any other backend one at a time.
    After a failed call no further call starts, the calls in flight finish
    and are stored, and the earliest failure is raised.
    """
    records: dict[str, dict] = {}
    misses: dict[str, Any] = {}  # cache key -> request, in first-seen order
    for key, request in requests:
        if key in records or key in misses:
            continue
        hit = cache.get(key)
        if hit is None:
            misses[key] = request
        else:
            records[key] = hit
    keys = list(misses)
    batches = [keys[i:i + chunk] for i in range(0, len(keys), chunk)]

    def fetch(batch: list[str]) -> dict[str, dict]:
        fresh = call([misses[key] for key in batch])
        return {key: cache.put(key, record) for key, record in zip(batch, fresh, strict=True)}

    if len(batches) > 1 and isinstance(backend, HttpBackend):
        with ThreadPoolExecutor(MAX_IN_FLIGHT) as pool:
            futures = [pool.submit(fetch, batch) for batch in batches]
            wait(futures, return_when=FIRST_EXCEPTION)
            for future in futures:
                future.cancel()  # only calls not yet started; leaving `with` waits for the rest
        for future in futures:  # request order, so the earliest failure is raised
            if not future.cancelled():
                records.update(future.result())
    else:
        for batch in batches:
            records.update(fetch(batch))
    return records
