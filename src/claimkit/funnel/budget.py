"""Selection-budget allocation: 50/50 label split, sqrt-of-population within.

The total budget splits evenly across the two verdict labels (odd totals
give the extra unit to Supported). Inside each label half, per-source
budgets are proportional to sqrt(n_s) with largest-remainder rounding,
never exceeding a cell's population; surplus redistributes the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..corpus import ClaimRecord, Label


@dataclass
class SelectionBudget:
    per_cell: dict[tuple[Label, str], int]
    total: int

    def for_cell(self, label: Label, source: str) -> int:
        return self.per_cell.get((label, source), 0)


def _apportion(populations: dict[str, int], quota: int) -> dict[str, int]:
    """Largest-remainder apportionment by sqrt(population), capped at population."""
    alloc = {s: 0 for s in populations}
    remaining = quota
    while remaining > 0:
        active = {s: populations[s] - alloc[s] for s in populations
                  if alloc[s] < populations[s]}
        if not active:
            raise ValueError("budget exceeds available population")
        weights = {s: math.sqrt(populations[s]) for s in active}
        total_w = sum(weights.values())
        shares = {s: remaining * weights[s] / total_w for s in active}
        given = 0
        remainders = []
        for s in sorted(active):
            base = min(int(math.floor(shares[s])), active[s])
            alloc[s] += base
            given += base
            if alloc[s] < populations[s]:
                remainders.append((-(shares[s] - math.floor(shares[s])), s))
        remaining -= given
        if remaining > 0 and remainders:
            # hand out leftover units one by one, largest fraction first
            remainders.sort()
            for _, s in remainders:
                if remaining == 0:
                    break
                if alloc[s] < populations[s]:
                    alloc[s] += 1
                    remaining -= 1
        # if nothing was given this round (all floors were 0 and every
        # remainder cell filled), the while loop re-derives active cells
    return alloc


def check_total(total: int) -> None:
    """Raise ValueError unless the total budget gives each label half a share."""
    if total < 2:
        raise ValueError("total budget must be at least 2")


def allocate_budgets(pool: Sequence[ClaimRecord], total: int) -> SelectionBudget:
    """Split a total budget into per-(label, source) cell budgets."""
    check_total(total)
    if total > len(pool):
        raise ValueError(f"budget {total} exceeds pool size {len(pool)}")
    populations: dict[tuple[Label, str], int] = {}
    for rec in pool:
        if rec.label is None:
            raise ValueError(f"record {rec.id!r} is unlabeled; selection needs labels")
        cell = (rec.label, rec.source)
        populations[cell] = populations.get(cell, 0) + 1

    halves = {
        Label.SUPPORTED: (total + 1) // 2,  # odd totals favor Supported
        Label.REFUTED: total // 2,
    }
    per_cell: dict[tuple[Label, str], int] = {}
    for label, half in halves.items():
        cell_pops = {src: n for (lbl, src), n in populations.items() if lbl is label}
        label_pop = sum(cell_pops.values())
        if half > label_pop:
            raise ValueError(
                f"label half {half} for {label.value} exceeds its population {label_pop}"
            )
        if half == 0:
            continue
        for src, k in _apportion(cell_pops, half).items():
            if k > 0:
                per_cell[(label, src)] = k
    return SelectionBudget(per_cell=per_cell, total=total)
