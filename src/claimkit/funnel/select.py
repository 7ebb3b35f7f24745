"""Representative subset selection over unit-norm claim embeddings.

The main selector greedily maximizes the facility-location objective
f(S) = sum_i max_{j in S} <c_i, c_j>; ties on marginal gain break toward the
lowest id. Random and farthest-point baselines share the interface.

Every exact gain is read by `_gains` from contiguous rows `S[row]` of the
similarity matrix S = X @ X.T, `_GAIN_BLOCK` rows at a time, and a row's
gain has the same bits whichever rows share its block. `lazy_greedy` commits
only the largest of such gains, lowest id first, so its output is
element-wise identical to `naive_greedy`'s, which evaluates every row in
every round. It evaluates few: it carries an estimate `est` of every row's
gain from round to round, and `_screen` keeps only the rows whose estimate
lies within 2b of the largest, where b bounds |est - gain|.

After a pick, coverage rises only on the entries U where the picked row
exceeds it, from old_i to new_i, and row j's gain falls by exactly
sum_{i in U} max(min(S[i, j], new_i) - old_i, 0). `est` subtracts that sum,
read from the rows S[U] in blocks of `_GAIN_BLOCK`, so S stays the only
n x n array and no |U| x n temporary exists.

The bound. Let eps be the machine epsilon of S's dtype, u = eps / 2 and
gamma_m = m u / (1 - m u); let F be the largest round-0 gain, an upper bound
for every later one, m the sum of |U| over the picks so far, s the blocks
subtracted from `est` so far, d the embedding width and D the largest
diagonal entry of S.
- A computed gain sums n terms that each round once, so it is within
  gamma_n F of the exact one. That holds for the round-0 values `est` starts
  from and for the gain it is compared with.
- The decreases subtracted from one row add up to at most F, and each sums
  at most n such terms: gamma_n F more.
- Each block's subtraction from `est` rounds once: u F per block.
- S[i, j] and S[j, i] are both computed dot products of x_i and x_j, each
  within gamma_d D of the exact one, so reading the rows S[U] in place of
  the columns costs at most 2 gamma_d D per entry of U. (numpy forms
  X @ X.T with syrk, which makes S bitwise symmetric; b does not rely on it.)
Their sum, 3 gamma_n F + s u F + 2 gamma_d m D, is below

    b = eps * ((2n + s) F + 2 d m D)

with room left for the rounding of F, D, b and the screen's threshold,
whenever n eps and d eps are below 0.01.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_GAIN_BLOCK = 32


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
    non-increasing across rounds.
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


def _id_rank(ids: list) -> np.ndarray:
    """Each row's position in id order."""
    rank = np.empty(len(ids), dtype=np.intp)
    rank[_id_order(ids)] = np.arange(len(ids))
    return rank


def _argmax_lowest_id(values: np.ndarray, rank: np.ndarray) -> int:
    """Index of the largest value; a tie goes to the lowest rank."""
    ties = np.flatnonzero(values == values.max())
    return int(ties[np.argmin(rank[ties])])


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


def _screen(est: np.ndarray, b: float) -> np.ndarray:
    """Rows that can hold the largest exact gain g, given |est - g| <= b.

    The winner j* has est[j*] >= g[j*] - b >= g[j] - b >= est[j] - 2b for
    every row j, and so does each row whose gain ties with it.
    """
    return np.flatnonzero(est >= est.max() - 2 * b)


def lazy_greedy(X: np.ndarray, k: int, ids: Sequence | None = None) -> list:
    """Screened greedy; identical output to naive_greedy by contract."""
    ids = _check(X, k, ids if ids is not None else list(range(X.shape[0])))
    S = X @ X.T
    n, d = X.shape
    rank = _id_rank(ids)
    coverage = np.zeros(n)
    est = _gains(S, range(n), coverage)
    eps = np.finfo(S.dtype).eps
    per_block = eps * est.max()
    per_entry = eps * 2 * d * S.diagonal().max()
    b = 2 * n * per_block
    selected: list[int] = []
    while True:
        rows = _screen(est, b)
        row = int(rows[_argmax_lowest_id(_gains(S, rows, coverage), rank[rows])])
        selected.append(row)
        if len(selected) == k:
            return [ids[r] for r in selected]
        est[row] = -np.inf
        changed = np.flatnonzero(S[row] > coverage)
        for start in range(0, len(changed), _GAIN_BLOCK):
            part = changed[start:start + _GAIN_BLOCK]
            block = S[part]
            np.minimum(block, S[row, part, None], out=block)
            block -= coverage[part, None]
            np.maximum(block, 0.0, out=block)
            est -= block.sum(axis=0)
            b += per_block + per_entry * len(part)
        np.maximum(coverage, S[row], out=coverage)


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
        rank = _id_rank(ids)
        totals = S.sum(axis=0)
        first = _argmax_lowest_id(totals, rank)
        selected = [first]
        min_dist = 1.0 - S[first]
        min_dist[first] = -np.inf  # masks a chosen point; minimum() keeps it
        while len(selected) < k:
            nxt = _argmax_lowest_id(min_dist, rank)
            selected.append(nxt)
            np.minimum(min_dist, 1.0 - S[nxt], out=min_dist)
            min_dist[nxt] = -np.inf
        return [ids[r] for r in selected]
    raise ValueError(f"unknown selection strategy {strategy!r}")
