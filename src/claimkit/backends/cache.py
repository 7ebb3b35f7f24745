"""Deterministic content-addressed cache for backend responses.

Keys are SHA-256 digests over (template id, payload, backend id, decoding
params). A judge or embedding key's payload is its rendered prompt or text;
any other key's payload is the JSON list of the arguments of the call it
caches, so that no two calls share a key. `DiskCache` keeps one SQLite
database file, in WAL mode, under its root directory: one table of (key,
JSON text of the record). A key is written once, unless its stored text
does not parse; the first of concurrent writers wins, across threads and
processes alike. The whole store is read and written in batches, through
`get_many` and `put_many`.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol


@dataclass(frozen=True)
class DecodingParams:
    temperature: float = 0.0
    seed: int = 42
    max_tokens: int = 4096


def cache_key(
    template_id: str,
    prompt: str | list,
    backend_id: str,
    params: DecodingParams | None = None,
) -> str:
    payload = {
        "template_id": template_id,
        "prompt": prompt,
        "backend_id": backend_id,
    }
    if params is not None:
        payload["params"] = {
            "temperature": params.temperature,
            "seed": params.seed,
            "max_tokens": params.max_tokens,
        }
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def prompt_digest(prompt: str) -> str:
    """Digest of the rendered prompt alone; the fixture-file key."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class CacheRecordError(ValueError):
    """A stored record that parses but does not hold what its kind needs,
    such as one written by another claimkit or edited by hand."""

    def __init__(self, kind: str, problem: str):
        super().__init__(f"cache: a stored {kind} record {problem}; "
                         "delete the cache directory and run again")


class Cache(Protocol):
    """A response store shared by the stages, rewards and backends.

    `put` stores a record under a key unless one is already there, and
    returns the stored record (first writer wins); `get` returns it, or None.
    `get_many` and `put_many` do the same for many keys at once: `get_many`
    returns {key: record} for the keys that are stored, and `put_many`
    returns {key: stored record} for every key it was given.
    """

    def get(self, key: str) -> dict | None: ...

    def put(self, key: str, record: dict) -> dict: ...

    def get_many(self, keys: Iterable[str]) -> dict[str, dict]: ...

    def put_many(self, items: Iterable[tuple[str, dict]]) -> dict[str, dict]: ...


_SELECT_BATCH = 500  # keys per SELECT ... IN (...), under SQLite's bound-parameter limit
_BUSY_TIMEOUT_S = 5.0  # longest wait for another connection's lock (sqlite3.connect's default)
_BUSY_POLL_S = 0.005  # pause between tries to switch a new database to WAL


def _parse(blob: bytes) -> dict | None:
    try:
        return json.loads(blob)
    except ValueError:  # JSON or UTF-8 cut short
        return None


class DiskCache:
    """The on-disk `Cache`: one SQLite database file, FILE_NAME, under root.

    Use it as a context manager, or call `close`, so that the database
    connection is closed when the work is done. One lock serializes its
    methods, so threads may share an instance. A database that does not
    open or cannot be written raises OSError naming its path.
    """

    FILE_NAME = "cache.sqlite3"

    # `get` and `put` stay defined on this class itself: perfbench/tracing.py
    # wraps them by looking them up in the class __dict__.
    def __init__(self, root: str | Path):
        # Imported here, not at module level: `import claimkit.cli` should not
        # pay for it, and `eval`, `funnel report` and dry runs open no cache.
        import sqlite3

        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / self.FILE_NAME
        self._lock = threading.Lock()
        with self._locked():
            self._db = sqlite3.connect(self.path, timeout=_BUSY_TIMEOUT_S,
                                       isolation_level=None, check_same_thread=False)
            try:
                # Switching a new database to WAL upgrades a read lock to a
                # write lock, which SQLite refuses at once, without the busy
                # timeout, while another connection to the new file holds a
                # read lock; so wait here as the busy timeout would.
                deadline = time.monotonic() + _BUSY_TIMEOUT_S
                while True:
                    try:
                        self._db.execute("PRAGMA journal_mode=WAL")
                        break
                    except sqlite3.OperationalError as exc:
                        if "database is locked" not in str(exc) or time.monotonic() > deadline:
                            raise
                    time.sleep(_BUSY_POLL_S)
                # A commit lost to a power failure only costs a refetch.
                self._db.execute("PRAGMA synchronous=NORMAL")
                # 256 KiB of page cache, not SQLite's 2 MiB: every command opens
                # the file afresh, so a larger cache holds little that is read
                # twice, but it adds to the process's peak memory.
                self._db.execute("PRAGMA cache_size=-256")
                self._db.execute("CREATE TABLE IF NOT EXISTS responses "
                                 "(key TEXT PRIMARY KEY, blob TEXT NOT NULL)")
            except sqlite3.Error:
                self._db.close()
                raise

    def __enter__(self) -> "DiskCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        with self._locked():
            self._db.close()

    @contextmanager
    def _locked(self):
        import sqlite3

        with self._lock:
            try:
                yield
            except sqlite3.Error as exc:
                raise OSError(f"cache {self.path}: {exc}") from exc

    def _select(self, keys: list[str]) -> dict[str, bytes]:
        # The blob comes back as bytes, so text that is not UTF-8 is a parse
        # failure like any other, not an error of the database driver.
        found: dict[str, bytes] = {}
        for i in range(0, len(keys), _SELECT_BATCH):
            batch = keys[i:i + _SELECT_BATCH]
            found.update(self._db.execute(
                "SELECT key, CAST(blob AS BLOB) FROM responses WHERE key IN "
                f"({','.join('?' * len(batch))})", batch))
        return found

    def get(self, key: str) -> dict | None:
        """The stored record, or None when there is none or its text does not
        parse; `put` then replaces that text."""
        return self.get_many([key]).get(key)

    def put(self, key: str, record: dict) -> dict:
        """Store a record under key; first writer wins, losers get the stored copy.
        Stored text that does not parse is replaced. A fresh write returns its
        own JSON text parsed, the same value `get` reads back."""
        return self.put_many([(key, record)])[key]

    def get_many(self, keys: Iterable[str]) -> dict[str, dict]:
        """{key: stored record} for each key whose stored text parses."""
        with self._locked():
            blobs = self._select(list(keys))
        return {key: record for key, blob in blobs.items()
                if (record := _parse(blob)) is not None}

    def put_many(self, items: Iterable[tuple[str, dict]]) -> dict[str, dict]:
        """`put` for many (key, record) pairs in one transaction; returns
        {key: stored record}. It reads the given keys first, inserts the
        absent ones, rewrites the stored text that does not parse, and reads
        back no row it wrote."""
        blobs = {key: json.dumps(record, sort_keys=True, ensure_ascii=False)
                 for key, record in items}
        if not blobs:
            return {}
        with self._locked(), self._db:  # commits, or rolls back on an exception
            # IMMEDIATE takes the write lock before anything is read, so no
            # other writer comes between the read and the writes.
            self._db.execute("BEGIN IMMEDIATE")
            found = self._select(list(blobs))
            stored = {key: record for key, blob in found.items()
                      if (record := _parse(blob)) is not None}
            self._db.executemany("INSERT INTO responses VALUES (?, ?)",
                                 [(key, blob) for key, blob in blobs.items() if key not in found])
            self._db.executemany("UPDATE responses SET blob = ? WHERE key = ?",
                                 [(blobs[key], key) for key in found if key not in stored])
        return {key: stored[key] if key in stored else json.loads(blob)
                for key, blob in blobs.items()}


class MemoryCache:
    """Dict-backed `Cache`, for tests and in-process library use."""

    def __init__(self):
        self._store: dict[str, dict] = {}

    def get(self, key: str) -> dict | None:
        return self._store.get(key)

    def put(self, key: str, record: dict) -> dict:
        return self._store.setdefault(key, dict(record))

    def get_many(self, keys: Iterable[str]) -> dict[str, dict]:
        return {key: self._store[key] for key in keys if key in self._store}

    def put_many(self, items: Iterable[tuple[str, dict]]) -> dict[str, dict]:
        return {key: self.put(key, record) for key, record in items}
