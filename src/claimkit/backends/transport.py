"""The one HTTP path and the one fixture loader behind every backend kind.

Judge, embedding and verifier backends differ only in the JSON body they
send and the reply field they read, so each is a one-method subclass of
`HttpBackend` or `FixtureBackend`. Backend ids are `http:<endpoint>` and
`fixture:<file name>`; cache keys include them, so they must not change.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

from .cache import prompt_digest

RETRIES = 2  # extra attempts after a connection error, a 429 or a 5xx reply
TIMEOUT_S = 120.0
RETRY_AFTER_MAX_S = 30.0  # longest wait a server's Retry-After header can ask for
MAX_IN_FLIGHT = 8  # concurrent requests `judge_generate_many` sends to one HttpBackend


class TransportError(RuntimeError):
    """Backend unreachable or no canned response available."""


class ProtocolError(RuntimeError):
    """Backend replied, but not in the agreed wire format."""


class HttpBackend:
    """JSON POST to one endpoint, returning one field of the JSON reply.

    A connection error, a 429 or a 5xx reply is retried RETRIES times and
    then raises TransportError. Before retrying a 429 or 5xx reply that
    carries a numeric Retry-After header, the call sleeps that many seconds,
    at most RETRY_AFTER_MAX_S. Any other non-200 reply, a non-JSON body, or a
    reply that is not an object holding the field raises ProtocolError.
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
            try:
                resp = requests.post(self.endpoint, json=body, timeout=TIMEOUT_S)
            except requests.RequestException as exc:
                last_exc = exc
                continue
            if resp.status_code == 429 or resp.status_code >= 500:
                last_exc = TransportError(f"server replied {resp.status_code}")
                retry_after = resp.headers.get("Retry-After", "").strip()
                if attempt < RETRIES and retry_after.isdecimal():
                    time.sleep(min(int(retry_after), RETRY_AFTER_MAX_S))
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
                obj = json.loads(line)
                if not isinstance(obj, dict) or "digest" not in obj or self.FIELD not in obj:
                    raise ValueError(f"{path} line {line_no}: fixture rows need "
                                     f"'digest' and {self.FIELD!r}")
                self._table[obj["digest"]] = obj[self.FIELD]

    def _lookup(self, text: str) -> Any:
        digest = prompt_digest(text)
        try:
            return self._table[digest]
        except KeyError:
            raise TransportError(f"no fixture {self.FIELD!r} for digest {digest}") from None
