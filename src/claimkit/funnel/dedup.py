"""Near-duplicate removal and holdout decontamination.

All three passes are greedy in input order: the earlier record always
survives. LSH banding over MinHash signatures only proposes candidate
pairs; every removal decision is re-verified with the exact shingle
Jaccard (and, for the semantic passes, embedding cosine), which makes the
kept-set post-conditions exact rather than probabilistic.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..backends import Cache, EmbeddingBackend, embed
from ..corpus import ClaimRecord
from .shingling import MinHasher, exact_jaccard, shingle_set

JACCARD_THRESHOLD = 0.7
SEMANTIC_THRESHOLD = 0.70
DECONTAM_COSINE_THRESHOLD = 0.90

LSH_BANDS = 16
LSH_ROWS = 8


def _band_keys(signature: np.ndarray) -> list[tuple[int, bytes]]:
    keys = []
    for band in range(LSH_BANDS):
        chunk = signature[band * LSH_ROWS:(band + 1) * LSH_ROWS]
        keys.append((band, chunk.tobytes()))
    return keys


def dedup_minhash(
    records: Sequence[ClaimRecord],
    hasher: MinHasher | None = None,
) -> tuple[list[ClaimRecord], list[tuple[ClaimRecord, str]]]:
    """Drop later records whose exact claim-shingle Jaccard with an earlier
    kept record is >= 0.7; LSH buckets bound which pairs get the exact check."""
    hasher = hasher or MinHasher()
    shingles = [shingle_set(rec.claim) for rec in records]
    signatures = [hasher.signature(s) for s in shingles]

    kept: list[ClaimRecord] = []
    removed: list[tuple[ClaimRecord, str]] = []
    buckets: dict[tuple[int, bytes], list[int]] = {}
    for i, rec in enumerate(records):
        keys = _band_keys(signatures[i])
        candidates: set[int] = set()
        for key in keys:
            candidates.update(buckets.get(key, ()))
        duplicate_of = None
        for j in sorted(candidates):
            if exact_jaccard(shingles[i], shingles[j]) >= JACCARD_THRESHOLD:
                duplicate_of = records[j].id
                break
        if duplicate_of is not None:
            removed.append((rec, f"near-duplicate-of:{duplicate_of}"))
            continue
        kept.append(rec)
        for key in keys:
            buckets.setdefault(key, []).append(i)
    return kept, removed


def dedup_semantic(
    records: Sequence[ClaimRecord],
    backend: EmbeddingBackend,
    cache: Cache,
    threshold: float = SEMANTIC_THRESHOLD,
) -> tuple[list[ClaimRecord], list[tuple[ClaimRecord, str]]]:
    """Greedy single pass: drop a record iff its claim embedding has cosine
    >= threshold with any earlier kept record."""
    if not records:
        return [], []
    vectors = embed([rec.claim for rec in records], backend, cache)
    kept: list[ClaimRecord] = []
    kept_rows: list[int] = []
    removed: list[tuple[ClaimRecord, str]] = []
    for i, rec in enumerate(records):
        if kept_rows:
            sims = vectors[kept_rows] @ vectors[i]
            hit = int(np.argmax(sims))
            if float(sims[hit]) >= threshold:
                removed.append((rec, f"semantic-duplicate-of:{kept[hit].id}"))
                continue
        kept.append(rec)
        kept_rows.append(i)
    return kept, removed


def decontaminate(
    train: Sequence[ClaimRecord],
    holdout: Sequence[ClaimRecord],
    backend: EmbeddingBackend,
    cache: Cache,
    jaccard_threshold: float = JACCARD_THRESHOLD,
    cosine_threshold: float = DECONTAM_COSINE_THRESHOLD,
) -> tuple[list[ClaimRecord], list[tuple[ClaimRecord, str]]]:
    """Remove train records that collide with any holdout record by exact
    shingle Jaccard >= 0.7 or claim-embedding cosine >= 0.90."""
    if not holdout:
        raise ValueError("holdout must be non-empty")
    if not train:
        return [], []
    train_shingles = [shingle_set(rec.claim) for rec in train]
    hold_shingles = [shingle_set(rec.claim) for rec in holdout]
    train_vecs = embed([rec.claim for rec in train], backend, cache)
    hold_vecs = embed([rec.claim for rec in holdout], backend, cache)
    sims = train_vecs @ hold_vecs.T

    kept: list[ClaimRecord] = []
    removed: list[tuple[ClaimRecord, str]] = []
    for i, rec in enumerate(train):
        reason = None
        for j, hrec in enumerate(holdout):
            if exact_jaccard(train_shingles[i], hold_shingles[j]) >= jaccard_threshold:
                reason = f"holdout-jaccard:{hrec.id}"
                break
            if float(sims[i, j]) >= cosine_threshold:
                reason = f"holdout-cosine:{hrec.id}"
                break
        if reason is None:
            kept.append(rec)
        else:
            removed.append((rec, reason))
    return kept, removed
