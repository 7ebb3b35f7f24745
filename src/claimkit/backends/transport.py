"""The one HTTP path and the one fixture loader behind every backend kind.

Judge, embedding and verifier backends differ only in the JSON body they
send and the reply field they read, so each is a one-method subclass of
`HttpBackend` or `FixtureBackend`. Backend ids are `http:<endpoint>` and
`fixture:<file name>`; cache keys include them, so they must not change.
All three reach the cache through one function, `fetch_cached`, which
returns one stored record per request, in request order. It stores an
HTTP backend's replies as each call returns, and any other backend's with
one cache transaction per fetch. HTTP calls use the standard library's
`urllib.request`, imported on the first call.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from pathlib import Path
from typing import Any, Callable, Iterable

from ..corpus import IngestError, read_jsonl
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

    Calls go through one `urllib.request` opener per instance, built on the
    first call, so proxies come from HTTP(S)_PROXY and NO_PROXY as they are
    set then; an https: endpoint's opener holds one TLS context, so the CA
    store is loaded once. A connection error (refused, reset, timed out,
    closed without a reply), a 429 or a 5xx reply is retried RETRIES times
    and then raises TransportError. Before retrying a 429 or 5xx reply that
    carries a numeric Retry-After header, the call sleeps that many seconds,
    at most RETRY_AFTER_MAX_S; before any other retry it sleeps
    RETRY_BACKOFF_S, doubled for each retry after the first. Any other
    status but 200 (any 3xx included: no redirect is followed, so the body
    is never re-posted or dropped for a GET), a non-JSON body, or a reply
    that is not an object holding the field raises ProtocolError.
    """

    def __init__(self, endpoint: str):
        self.endpoint = endpoint
        self.backend_id = f"http:{endpoint}"
        self._opener = None

    def _post(self, body: dict, field: str) -> Any:
        # Imported here, not at module level: importing `urllib.request` adds
        # about a seventh to the time of `import claimkit.cli`, and most
        # commands never make an HTTP call.
        import http.client
        import urllib.request
        from urllib.error import HTTPError

        opener = self._opener
        if opener is None:  # threads racing here at most build a spare opener
            opener = self._opener = _build_opener(self.endpoint)
        data = json.dumps(body).encode("utf-8")
        last_exc: Exception | None = None
        for attempt in range(RETRIES + 1):
            if attempt:
                time.sleep(wait_s)
            wait_s = RETRY_BACKOFF_S * 2 ** attempt  # unless the reply names a wait
            # a fresh Request each try: the opener rewrites one to route it via a proxy
            request = urllib.request.Request(self.endpoint, data=data,
                                             headers={"Content-Type": "application/json"})
            try:
                with opener.open(request, timeout=TIMEOUT_S) as resp:
                    status, raw = resp.status, resp.read()
            except HTTPError as exc:  # a status outside 2xx
                exc.close()
                status = exc.code
                if 300 <= status < 400:
                    raise ProtocolError(f"unexpected status {status} redirecting to "
                                        f"{exc.headers.get('Location')!r}, not followed") from None
                if status != 429 and status < 500:
                    raise ProtocolError(f"unexpected status {status}") from None
                last_exc = TransportError(f"server replied {status}")
                retry_after = (exc.headers.get("Retry-After") or "").strip()
                if retry_after.isdecimal():
                    wait_s = min(int(retry_after), RETRY_AFTER_MAX_S)
                continue
            except (OSError, http.client.HTTPException) as exc:
                last_exc = exc
                continue
            if status != 200:
                raise ProtocolError(f"unexpected status {status}")
            try:
                payload = json.loads(raw)
            except ValueError as exc:
                raise ProtocolError("non-JSON reply body") from exc
            if not isinstance(payload, dict) or field not in payload:
                raise ProtocolError(f"reply missing {field!r} field")
            return payload[field]
        raise TransportError(f"endpoint {self.endpoint} unreachable: {last_exc}")


def _build_opener(endpoint: str):
    """A `urllib.request` opener that follows no redirect and, for an https:
    endpoint, verifies every connection with one shared TLS context. Without
    one, each connection builds a default context and reloads the CA store."""
    import urllib.request

    class NoRedirect(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, *args, **kwargs):
            return None  # the 3xx reply then raises HTTPError

    handlers = [NoRedirect()]
    if endpoint.lower().startswith("https:"):
        import ssl

        handlers.append(urllib.request.HTTPSHandler(context=ssl.create_default_context()))
    return urllib.request.build_opener(*handlers)


class FixtureBackend:
    """Replays a JSONL table of {digest, <FIELD>} rows.

    The digest is `prompt_digest` of the text a backend is asked about. A
    missing digest is treated as an unreachable backend, so records are
    never silently passed. A malformed row raises IngestError naming the
    file and its line.
    """

    FIELD: str

    def __init__(self, path: str | Path):
        self.backend_id = f"fixture:{Path(path).name}"
        self._table: dict[str, Any] = {}
        for line_no, obj in read_jsonl(path):
            try:
                self._table[obj["digest"]] = obj[self.FIELD]
            except (TypeError, KeyError):  # an unhashable digest, or no field
                raise IngestError(path, line_no, "fixture rows need "
                                  f"'digest' and {self.FIELD!r}") from None

    def _lookup(self, text: str) -> Any:
        digest = prompt_digest(text)
        try:
            return self._table[digest]
        except KeyError:
            raise TransportError(f"no fixture {self.FIELD!r} for digest {digest}") from None


def fetch_cached(backend: object, cache: Cache, requests: Iterable[tuple[str, Any]],
                 call: Callable[[list], list[dict]], chunk: int = 1) -> list[dict]:
    """The stored record for each (cache key, request) pair, in the order
    given, duplicates included.

    The distinct keys are read from the cache with one `get_many`. The misses
    go to `call` in request order, `chunk` at a time; it returns one record
    per request, and each record is stored under its key (single-flight),
    always from this thread. An `HttpBackend` gets up to MAX_IN_FLIGHT calls
    at once, and each call's records are stored with one `put_many` as the
    call returns, so the replies of a slow server survive a killed process.
    Any other backend is called one call at a time, and all its calls'
    records are stored with one `put_many` once the last call returns, so a
    killed process keeps none of them. After a failed call no further call
    starts, the calls in flight finish, every finished call's records are
    stored, and then the earliest failure in request order is raised; a
    store that fails raises its OSError instead.
    """
    pairs = list(requests)
    wanted: dict[str, Any] = {}  # cache key -> request, in first-seen order
    for key, request in pairs:
        wanted.setdefault(key, request)
    records = cache.get_many(wanted)
    keys = [key for key in wanted if key not in records]
    batches = [keys[i:i + chunk] for i in range(0, len(keys), chunk)]

    def fetch(batch: list[str]) -> dict[str, dict]:
        return dict(zip(batch, call([wanted[key] for key in batch]), strict=True))

    if len(batches) > 1 and isinstance(backend, HttpBackend):
        with ThreadPoolExecutor(MAX_IN_FLIGHT) as pool:
            futures = [pool.submit(fetch, batch) for batch in batches]
            try:
                for future in as_completed(futures):
                    if future.cancelled():
                        continue
                    if future.exception() is not None:  # start no further call
                        for other in futures:
                            other.cancel()
                    else:
                        records.update(cache.put_many(future.result().items()))
            finally:  # after a failed store too; leaving `with` waits for the calls in flight
                for future in futures:
                    future.cancel()
        for future in futures:  # request order, so the earliest failure is raised
            if not future.cancelled() and future.exception() is not None:
                raise future.exception()
    else:
        fetched: dict[str, dict] = {}
        try:
            for batch in batches:
                fetched.update(fetch(batch))
        finally:  # after a failed call too, so every finished call is stored
            if fetched:
                records.update(cache.put_many(fetched.items()))
    return [records[key] for key, _ in pairs]
