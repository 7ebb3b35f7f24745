"""Near-duplicate removal and holdout decontamination.

All three passes are greedy in input order: the earlier record always
survives. Both shingle passes use one exact prefix-filtered join (Bayardo
et al. 2007; Xiao et al. 2008): with shingles ranked rarest first, two sets
at Jaccard >= t share one of the first |x| - ceil(t|x|) + 1 shingles of
each, and every pair whose prefixes meet is checked by exact Jaccard.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from ..backends import Cache, EmbeddingBackend, embed
from ..corpus import ClaimRecord
from .shingling import exact_jaccard, shingle_set

JACCARD_THRESHOLD = 0.7
SEMANTIC_THRESHOLD = 0.70
DECONTAM_COSINE_THRESHOLD = 0.90

_JACCARD_NUM, _JACCARD_DEN = JACCARD_THRESHOLD.as_integer_ratio()


class _ShingleJoin:
    """Exact Jaccard >= 0.7 lookups; `universe` (every set indexed or probed) fixes the order."""

    def __init__(self, universe: Sequence[frozenset[int]]):
        freq = Counter(s for shingles in universe for s in shingles)
        self._order = lambda s: (freq[s], s)
        self._postings: dict[int, list[tuple[int, frozenset[int]]]] = {}

    def _prefix(self, shingles: frozenset[int]) -> list[int]:
        size = len(shingles)
        # ceil(t * size) in integers on t's exact value, so the prefix is never one short
        min_overlap = -(-size * _JACCARD_NUM // _JACCARD_DEN)
        return sorted(shingles, key=self._order)[:size - min_overlap + 1]

    def add(self, key: int, shingles: frozenset[int]) -> None:
        for s in self._prefix(shingles):
            self._postings.setdefault(s, []).append((key, shingles))

    def first_match(self, shingles: frozenset[int]) -> int | None:
        """Lowest indexed key whose set has Jaccard >= 0.7 with `shingles`."""
        candidates = dict(hit for s in self._prefix(shingles) for hit in self._postings.get(s, ()))
        for key in sorted(candidates):
            if exact_jaccard(shingles, candidates[key]) >= JACCARD_THRESHOLD:
                return key
        return None


def dedup_minhash(
    records: Sequence[ClaimRecord],
) -> tuple[list[ClaimRecord], list[tuple[ClaimRecord, str]]]:
    """Drop later records whose exact claim-shingle Jaccard with an earlier
    kept record is >= 0.7, naming the earliest such kept record."""
    shingles = [shingle_set(rec.claim) for rec in records]
    join = _ShingleJoin(shingles)
    kept: list[ClaimRecord] = []
    removed: list[tuple[ClaimRecord, str]] = []
    for i, rec in enumerate(records):
        j = join.first_match(shingles[i])
        if j is not None:
            removed.append((rec, f"near-duplicate-of:{records[j].id}"))
            continue
        kept.append(rec)
        join.add(i, shingles[i])
    return kept, removed


def dedup_semantic(
    records: Sequence[ClaimRecord],
    backend: EmbeddingBackend,
    cache: Cache,
) -> tuple[list[ClaimRecord], list[tuple[ClaimRecord, str]]]:
    """Greedy single pass: drop a record iff its claim embedding has cosine
    >= SEMANTIC_THRESHOLD with any earlier kept record."""
    if not records:
        return [], []
    vectors = embed([rec.claim for rec in records], backend, cache)
    # the kept vectors, contiguous in keep order: kept_vecs[:len(kept)]
    kept_vecs = np.empty_like(vectors)
    kept: list[ClaimRecord] = []
    removed: list[tuple[ClaimRecord, str]] = []
    for i, rec in enumerate(records):
        if kept:
            sims = kept_vecs[:len(kept)] @ vectors[i]
            hit = int(np.argmax(sims))
            if float(sims[hit]) >= SEMANTIC_THRESHOLD:
                removed.append((rec, f"semantic-duplicate-of:{kept[hit].id}"))
                continue
        kept_vecs[len(kept)] = vectors[i]
        kept.append(rec)
    return kept, removed


def check_holdout(holdout: Sequence[ClaimRecord]) -> None:
    """`decontaminate`'s check, which a caller may make before opening a cache."""
    if not holdout:
        raise ValueError("holdout must be non-empty")


def decontaminate(
    train: Sequence[ClaimRecord],
    holdout: Sequence[ClaimRecord],
    backend: EmbeddingBackend,
    cache: Cache,
) -> tuple[list[ClaimRecord], list[tuple[ClaimRecord, str]]]:
    """Remove train records that collide with any holdout record by exact
    shingle Jaccard >= 0.7 or claim-embedding cosine >= 0.90. The reason
    names the lowest-indexed colliding holdout record; Jaccard wins a tie."""
    check_holdout(holdout)
    if not train:
        return [], []
    train_shingles = [shingle_set(rec.claim) for rec in train]
    hold_shingles = [shingle_set(rec.claim) for rec in holdout]
    join = _ShingleJoin(train_shingles + hold_shingles)
    for j, shingles in enumerate(hold_shingles):
        join.add(j, shingles)
    train_vecs = embed([rec.claim for rec in train], backend, cache)
    hold_vecs = embed([rec.claim for rec in holdout], backend, cache)
    sims = train_vecs @ hold_vecs.T

    kept: list[ClaimRecord] = []
    removed: list[tuple[ClaimRecord, str]] = []
    for i, rec in enumerate(train):
        j = join.first_match(train_shingles[i])
        close = np.flatnonzero(sims[i, :j] >= DECONTAM_COSINE_THRESHOLD)
        if close.size:
            removed.append((rec, f"holdout-cosine:{holdout[close[0]].id}"))
        elif j is not None:
            removed.append((rec, f"holdout-jaccard:{holdout[j].id}"))
        else:
            kept.append(rec)
    return kept, removed
