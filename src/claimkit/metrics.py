"""Evaluation metrics and selection diagnostics.

Balanced accuracy over the 2-way verdict labels (robust to label skew),
coverage statistics of a selected subset over its embedding pool, and the
funnel stage-report renderer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Label
from .funnel.run import FunnelReport


@dataclass
class ConfusionCounts:
    """2x2 counts with Supported as the positive class."""

    tp: int = 0
    fn: int = 0
    tn: int = 0
    fp: int = 0

    @classmethod
    def from_pairs(cls, preds: Sequence[Label], golds: Sequence[Label]) -> "ConfusionCounts":
        if len(preds) != len(golds):
            raise ValueError("preds and golds must align")
        counts = cls()
        for pred, gold in zip(preds, golds):
            if gold is Label.SUPPORTED:
                if pred is Label.SUPPORTED:
                    counts.tp += 1
                else:
                    counts.fn += 1
            else:
                if pred is Label.REFUTED:
                    counts.tn += 1
                else:
                    counts.fp += 1
        return counts


def balanced_accuracy(preds: Sequence[Label], golds: Sequence[Label]) -> float:
    """(TPR + TNR) / 2; errors out when a gold class is absent."""
    counts = ConfusionCounts.from_pairs(preds, golds)
    if counts.tp + counts.fn == 0:
        raise ValueError("no Supported examples in gold labels")
    if counts.tn + counts.fp == 0:
        raise ValueError("no Refuted examples in gold labels")
    tpr = counts.tp / (counts.tp + counts.fn)
    tnr = counts.tn / (counts.tn + counts.fp)
    return (tpr + tnr) / 2


DIAGNOSTIC_SUBSAMPLE = 3000
ISOLATION_NEIGHBORS = 10
ISOLATION_BAND = 0.05


def selection_diagnostics(
    pool: np.ndarray,
    selected_rows: Sequence[int],
    sample_size: int = DIAGNOSTIC_SUBSAMPLE,
    seed: int = 0,
) -> tuple[float, float, float]:
    """Coverage and structure statistics of a selected subset.

    d_med / d_95: median and 95th-percentile cosine distance from a seeded
    pool subsample to its nearest selected point. outlier_share: fraction of
    selected points lying in the pool's top-5% isolation band, where a
    point's isolation is its mean cosine distance to its 10 in-pool nearest
    neighbors (smaller pools use all other points).
    """
    n = pool.shape[0]
    selected_rows = list(selected_rows)
    if not selected_rows:
        raise ValueError("selected set must be non-empty")
    if any(not 0 <= r < n for r in selected_rows):
        raise ValueError("selected rows out of pool range")
    if sample_size > n:
        raise ValueError("sample size exceeds pool size")

    rng = np.random.default_rng(seed)
    sample = rng.choice(n, size=min(sample_size, n), replace=False)
    sel = pool[selected_rows]
    dists = 1.0 - pool[sample] @ sel.T
    nearest = dists.min(axis=1)
    d_med = float(np.quantile(nearest, 0.5))
    d_95 = float(np.quantile(nearest, 0.95))

    if n < 2:
        return d_med, d_95, 0.0
    sims = pool @ pool.T
    np.fill_diagonal(sims, -np.inf)
    k = min(ISOLATION_NEIGHBORS, n - 1)
    # top-k neighbor similarities per point; isolation = mean distance to them
    top = np.sort(sims, axis=1)[:, -k:]
    isolation = 1.0 - top.mean(axis=1)
    cutoff = np.quantile(isolation, 1.0 - ISOLATION_BAND)
    outliers = isolation >= cutoff
    share = float(np.mean([outliers[r] for r in selected_rows]))
    return d_med, d_95, share


def stage_report_render(report: FunnelReport, fmt: str = "text") -> str:
    """Render a funnel report as an aligned table or JSON, re-validating the
    count chain first."""
    report.validate_chain()
    if fmt == "json":
        return json.dumps(report.to_json_obj(), indent=2, sort_keys=True)
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    width = max((len(s.name) for s in report.stages), default=5)
    lines = [f"{'stage':<{width}}  {'in':>8}  {'out':>8}  reasons"]
    for stage in report.stages:
        reasons = ", ".join(
            f"{k}={v}" for k, v in sorted(stage.rejections.items())
        ) or "-"
        lines.append(
            f"{stage.name:<{width}}  {stage.input_count:>8}  "
            f"{stage.output_count:>8}  {reasons}"
        )
    return "\n".join(lines)
