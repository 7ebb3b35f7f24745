"""Embedding backends with per-text caching and cosine similarity.

Vectors are L2-normalized on receipt, so cosine is a plain dot product.
Cache entries are keyed by text hash + backend id; repeated texts in one
batch coalesce, and the misses reach the backend EMBED_CHUNK texts per call.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from .cache import Cache, cache_key
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


def _normalize(vector: Sequence[float]) -> np.ndarray:
    arr = np.asarray(vector, dtype=np.float64)
    norm = np.linalg.norm(arr)
    if norm == 0:
        return arr
    return arr / norm


def embed(texts: list[str], backend: EmbeddingBackend, cache: Cache) -> np.ndarray:
    """Embed a batch, returning an (n, d) array of unit-norm rows in input order."""
    keys = [cache_key("embedding", text, backend.backend_id) for text in texts]
    stored = fetch_cached(
        backend, cache, zip(keys, texts),
        lambda batch: [{"backend_id": backend.backend_id, "vector": list(vec)}
                       for vec in backend.embed_texts(batch)],
        chunk=EMBED_CHUNK,
    )
    rows = [_normalize(stored[key]["vector"]) for key in keys]
    dims = {row.shape[0] for row in rows}
    if len(dims) > 1:
        raise ValueError(f"dimension mismatch within batch: {sorted(dims)}")
    if not rows:
        return np.zeros((0, 0))
    return np.vstack(rows)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.dot(u, v))
