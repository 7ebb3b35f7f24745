"""Representative subset selection over unit-norm claim embeddings.

The main selector greedily maximizes the facility-location objective
f(S) = sum_i max_{j in S} <c_i, c_j> with a lazy heap (Minoux 1978); ties on
marginal gain break toward the lowest id, and the lazy path commits a point
only once its gain is exact for the current coverage, so its output is
element-wise identical to the naive quadratic greedy. Random and
farthest-point baselines share the interface.

Every gain is read from contiguous rows `S[row]` of the similarity matrix
S = X @ X.T, never from its strided columns. That gives the column's bits
because numpy computes `X @ X.T` with a symmetric rank-k update (syrk), so S
is bitwise symmetric. Gains are evaluated `_GAIN_BLOCK` rows at a time, so no
n x n temporary exists besides S, and the lazy heap refreshes up to
`_REFRESH_BATCH` stale entries in one such call.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

_GAIN_BLOCK = 32
_REFRESH_BATCH = 16


def _check(X: np.ndarray, k: int, ids: Sequence) -> list:
    n = X.shape[0]
    if len(ids) != n:
        raise ValueError("ids must align with embedding rows")
    if not 0 < k <= n:
        raise ValueError(f"budget k={k} out of range for {n} points")
    return list(ids)


def _gains(S: np.ndarray, rows: Sequence[int], coverage: np.ndarray) -> np.ndarray:
    """Marginal facility-location gains sum(max(S[row] - coverage, 0)) of `rows`.

    Coverage starts at the zero baseline, so gains are non-negative and
    non-increasing across rounds (the lazy-heap invariant).
    """
    rows = np.asarray(rows, dtype=np.intp)
    out = np.empty(len(rows))
    for start in range(0, len(rows), _GAIN_BLOCK):
        block = S[rows[start:start + _GAIN_BLOCK]]
        block -= coverage
        np.maximum(block, 0.0, out=block)
        out[start:start + len(block)] = block.sum(axis=1)
    return out


def _id_order(ids: list) -> list[int]:
    return sorted(range(len(ids)), key=lambda r: ids[r])


def naive_greedy(X: np.ndarray, k: int, ids: Sequence | None = None) -> list:
    """Reference quadratic greedy; returns selected ids in selection order."""
    ids = _check(X, k, ids if ids is not None else list(range(X.shape[0])))
    S = X @ X.T
    remaining = np.array(_id_order(ids), dtype=np.intp)
    coverage = np.zeros(S.shape[0])
    selected: list[int] = []
    for _ in range(k):
        best = int(np.argmax(_gains(S, remaining, coverage)))  # first max: lowest id
        row = int(remaining[best])
        remaining = np.delete(remaining, best)
        selected.append(row)
        np.maximum(coverage, S[row], out=coverage)
    return [ids[r] for r in selected]


def lazy_greedy(X: np.ndarray, k: int, ids: Sequence | None = None) -> list:
    """Heap-accelerated greedy; identical output to naive_greedy by contract."""
    ids = _check(X, k, ids if ids is not None else list(range(X.shape[0])))
    S = X @ X.T
    n = len(ids)
    coverage = np.zeros(n)
    # heap entries: (-gain, id, row, stamp); stamp = |selected| when computed
    gains = _gains(S, range(n), coverage).tolist()
    heap = [(-gains[row], ids[row], row, 0) for row in range(n)]
    heapq.heapify(heap)
    selected: list[int] = []
    while len(selected) < k:
        stamp = len(selected)
        if heap[0][3] == stamp:
            row = heapq.heappop(heap)[2]
            selected.append(row)
            np.maximum(coverage, S[row], out=coverage)
            continue
        stale = []
        while heap and heap[0][3] != stamp and len(stale) < _REFRESH_BATCH:
            stale.append(heapq.heappop(heap))
        fresh = _gains(S, [entry[2] for entry in stale], coverage).tolist()
        for (_, rid, row, _), gain in zip(stale, fresh):
            heapq.heappush(heap, (-gain, rid, row, stamp))
    return [ids[r] for r in selected]


def facility_location_value(X: np.ndarray, rows: Sequence[int]) -> float:
    """f(S) for a selected row set against the zero baseline; empty S scores 0."""
    if not rows:
        return 0.0
    S = X @ X.T
    return float(np.sum(np.maximum(np.max(S[:, list(rows)], axis=1), 0.0)))


def alt_select(
    X: np.ndarray,
    k: int,
    strategy: str,
    seed: int,
    ids: Sequence | None = None,
) -> list:
    """Baseline selectors: seeded uniform sample, or greedy farthest-point
    (seed with the max-total-similarity point, then repeatedly add the point
    with the largest min cosine distance to the selected set)."""
    ids = _check(X, k, ids if ids is not None else list(range(X.shape[0])))
    n = len(ids)
    if strategy == "random":
        rng = np.random.default_rng(seed)
        order = _id_order(ids)
        rows = rng.choice(n, size=k, replace=False)
        return [ids[order[r]] for r in rows]
    if strategy == "farthest_point":
        S = X @ X.T
        rank = np.empty(n, dtype=np.intp)
        rank[_id_order(ids)] = np.arange(n)

        def argmax_lowest_id(values: np.ndarray) -> int:
            ties = np.flatnonzero(values == values.max())
            return int(ties[np.argmin(rank[ties])])

        totals = S.sum(axis=0)
        first = argmax_lowest_id(totals)
        selected = [first]
        min_dist = 1.0 - S[first]
        min_dist[first] = -np.inf  # masks a chosen point; minimum() keeps it
        while len(selected) < k:
            nxt = argmax_lowest_id(min_dist)
            selected.append(nxt)
            np.minimum(min_dist, 1.0 - S[nxt], out=min_dist)
            min_dist[nxt] = -np.inf
        return [ids[r] for r in selected]
    raise ValueError(f"unknown selection strategy {strategy!r}")
