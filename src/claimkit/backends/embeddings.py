"""Embedding backends with per-text caching and cosine similarity.

Cache entries are keyed by text hash + backend id under the
"embedding-f64" namespace; repeated texts in one batch coalesce, and the
misses reach the backend EMBED_CHUNK texts per call. Each entry holds the
backend's vector as it arrived, packed once when stored: the base64 of its
little-endian float64 bytes, in the record's "vector_f64" field. A reply
that does not pack into a non-empty flat vector is a ProtocolError and is
not stored. A batch's rows are decoded into one array and L2-normalized
there, each by its own norm, so cosine is a plain dot product. Rows that
an older claimkit stored as JSON lists, under the "embedding" namespace,
are never read: such a cache embeds each text once more.
"""

from __future__ import annotations

import binascii
from typing import Protocol

import numpy as np

from .cache import Cache, CacheRecordError, cache_key
from .transport import FixtureBackend, HttpBackend, ProtocolError, fetch_cached

EMBED_CHUNK = 64  # texts per embedding request


class EmbeddingBackend(Protocol):
    backend_id: str

    def embed_texts(self, texts: list[str]) -> list[list[float]]: ...


class HttpEmbeddingBackend(HttpBackend):
    """POST {texts: [str]} -> {vectors: [[f64]]}."""

    def embed_texts(self, texts: list[str]) -> list[list[float]]:
        vectors = self._post({"texts": texts}, "vectors")
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise ProtocolError("reply missing aligned 'vectors' field")
        return vectors


class FixtureEmbeddingBackend(FixtureBackend):
    """Replays vectors from a JSONL file of {digest, vector} rows (digest = sha256 of text)."""

    FIELD = "vector"

    def embed_texts(self, texts: list[str]) -> list[list[float]]:
        return [self._lookup(text) for text in texts]


def _pack(vector) -> str:
    """The base64 of vector's little-endian float64 bytes."""
    try:
        arr = np.asarray(vector, dtype="<f8")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"embedding vector is not a list of numbers: {exc}") from None
    if arr.ndim != 1 or not arr.size:
        raise ProtocolError(f"embedding vector has shape {arr.shape}, not a non-empty list")
    return binascii.b2a_base64(arr.tobytes(), newline=False).decode("ascii")


def _not_packed() -> CacheRecordError:
    return CacheRecordError("embedding", "does not hold a packed float64 vector")


def _unpack_normalized(stored: list[dict]) -> np.ndarray:
    """The stored records' vectors as one (n, d) array, each row divided by
    its own norm, sqrt(x.dot(x)), as `np.linalg.norm` computes it; a row of
    norm 0 is left as it is."""
    try:
        blobs = [binascii.a2b_base64(row["vector_f64"]) for row in stored]
    except (KeyError, TypeError, ValueError):  # no field, not a string, not base64
        raise _not_packed() from None
    sizes = {len(blob) for blob in blobs}
    if 0 in sizes or any(size % 8 for size in sizes):
        raise _not_packed()
    if len(sizes) > 1:
        raise ValueError(f"dimension mismatch within batch: {sorted(s // 8 for s in sizes)}")
    X = np.frombuffer(b"".join(blobs), dtype="<f8").reshape(len(blobs), -1)
    norms = np.sqrt([row.dot(row) for row in X])
    norms[norms == 0] = 1.0  # x / 1.0 is x, bit for bit
    return X / norms[:, None]


def embed(texts: list[str], backend: EmbeddingBackend, cache: Cache) -> np.ndarray:
    """Embed a batch, returning an (n, d) array of unit-norm rows in input order."""
    keys = [cache_key("embedding-f64", text, backend.backend_id) for text in texts]
    stored = fetch_cached(
        backend, cache, zip(keys, texts),
        lambda batch: [{"backend_id": backend.backend_id, "vector_f64": _pack(vec)}
                       for vec in backend.embed_texts(batch)],
        chunk=EMBED_CHUNK,
    )
    if not stored:
        return np.zeros((0, 0))
    return _unpack_normalized(stored)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.dot(u, v))
