"""Word shingles, exact Jaccard, and seeded 128-permutation MinHash.

Shingles are 3-word windows over the corpus tokenizer, lowercased; texts
shorter than 3 tokens contribute a singleton shingle of the whole text so
every record hashes to something. MinHash signatures estimate Jaccard as
the fraction of agreeing positions. They are kept as the paper's estimator;
the funnel's dedup uses the exact join in `dedup.py`, not MinHash.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..corpus import tokenize

SHINGLE_WIDTH = 3
NUM_PERMUTATIONS = 128
_MERSENNE_PRIME = (1 << 61) - 1


def hash64(text: str) -> int:
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def shingle_set(text: str) -> frozenset[int]:
    """Hashed 3-word shingles of the text; singleton fallback below 3 tokens."""
    tokens = [t.lower() for t in tokenize(text)]
    if len(tokens) < SHINGLE_WIDTH:
        return frozenset({hash64(" ".join(tokens))})
    return frozenset(
        hash64(" ".join(tokens[i:i + SHINGLE_WIDTH]))
        for i in range(len(tokens) - SHINGLE_WIDTH + 1)
    )


def exact_jaccard(a: frozenset[int], b: frozenset[int]) -> float:
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


class MinHasher:
    """128 seeded universal-hash permutations h_i(x) = (a_i x + b_i) mod p."""

    def __init__(self, seed: int = 1):
        rng = np.random.default_rng(seed)
        self._a = rng.integers(1, _MERSENNE_PRIME, size=NUM_PERMUTATIONS, dtype=np.uint64)
        self._b = rng.integers(0, _MERSENNE_PRIME, size=NUM_PERMUTATIONS, dtype=np.uint64)

    def signature(self, shingles: frozenset[int]) -> np.ndarray:
        if not shingles:
            raise ValueError("cannot sign an empty shingle set")
        xs = np.fromiter(shingles, dtype=np.uint64, count=len(shingles))
        # object dtype keeps the 61-bit modular arithmetic exact
        prods = (self._a.astype(object)[:, None] * xs.astype(object)[None, :]
                 + self._b.astype(object)[:, None]) % _MERSENNE_PRIME
        return np.asarray(prods.min(axis=1), dtype=np.uint64)


def estimate_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    if sig_a.shape != sig_b.shape:
        raise ValueError("signature lengths differ")
    return float(np.mean(sig_a == sig_b))
