"""Deterministic content-addressed on-disk cache for backend responses.

Keys are SHA-256 digests over (template id, rendered prompt, backend id,
decoding params). Layout: one root directory, two-hex-char shard
subdirectories, one JSON file per key. A key is written once, unless its
file does not parse; concurrent writers race on an exclusive create and
losers re-read.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol


@dataclass(frozen=True)
class DecodingParams:
    temperature: float = 0.0
    seed: int = 42
    max_tokens: int = 4096


def cache_key(
    template_id: str,
    prompt: str,
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


class Cache(Protocol):
    """A response store shared by the stages, rewards and backends.

    `put` stores a record under a key unless one is already there, and
    returns the stored record (first writer wins); `get` returns it, or None.
    """

    def get(self, key: str) -> dict | None: ...

    def put(self, key: str, record: dict) -> dict: ...


class DiskCache:
    # `get` and `put` stay defined on this class itself: perfbench/tracing.py
    # wraps them by looking them up in the class __dict__.
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The stored record, or None when there is none or its file does not
        parse (a write cut short); `put` then replaces that file."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (FileNotFoundError, ValueError):  # ValueError: JSON or UTF-8 cut short
            return None

    def put(self, key: str, record: dict) -> dict:
        """Store a record under key; first writer wins, losers get the stored copy.
        A file under the key that does not parse is replaced. A fresh write
        returns its own blob parsed, the same value `get` reads back.

        First-writer-wins needs hard links. Where `os.link` fails (a
        filesystem without them), the record is moved into place only when no
        readable one is stored, and concurrent writers may then race: the
        last move wins and each put returns what `get` reads back."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = json.dumps(record, sort_keys=True, ensure_ascii=False)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(blob)
            try:
                os.link(tmp, path)
                return json.loads(blob)
            except OSError:  # FileExistsError, or no hard links here
                if self.get(key) is None:
                    os.replace(tmp, path)
        finally:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
        stored = self.get(key)
        assert stored is not None
        return stored


class MemoryCache:
    """Dict-backed `Cache`, for tests and in-process library use."""

    def __init__(self):
        self._store: dict[str, dict] = {}

    def get(self, key: str) -> dict | None:
        return self._store.get(key)

    def put(self, key: str, record: dict) -> dict:
        return self._store.setdefault(key, dict(record))
