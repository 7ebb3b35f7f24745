"""Funnel orchestration: config, stage accounting, and the end-to-end run.

The funnel executes rule gating, difficulty banding, shingle-Jaccard and
semantic dedup, holdout decontamination, silver decomposition, stratified
facility-location selection, and long-evidence augmentation, in that
order, with every stage's input/output counts and rejection reasons
recorded in a chained report.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Sequence

from ..backends import Cache, DecodingParams, DiskCache, EmbeddingBackend, embed
from ..corpus import ClaimRecord, ingest_claims, read_json
from ..wiring import build_embedding_backend, build_judge_backend, build_verifier_backend
from .budget import allocate_budgets, check_total
from .dedup import check_holdout, decontaminate, dedup_minhash, dedup_semantic
from .select import alt_select, lazy_greedy
from .stages import (
    RuleThresholds,
    StageError,
    difficulty_filter,
    is_count,
    is_number,
    long_evidence_augment,
    rule_filter,
    silver_stage,
)

SELECTORS = ("facility_location", "farthest_point", "random")

# "ner" selects nothing: the one entity counter is `corpus.entity_spans`.
# The key stays accepted, as "heuristic" or "mock", so existing configs load.
_BACKEND_KEYS = ("judge", "embedding", "verifier", "ner")


@dataclass
class StageReport:
    name: str
    input_count: int
    output_count: int
    rejections: dict[str, int] = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "input_count": self.input_count,
            "output_count": self.output_count,
            "rejections": dict(sorted(self.rejections.items())),
        }


@dataclass
class FunnelReport:
    stages: list[StageReport] = field(default_factory=list)

    def add(self, name: str, input_count: int, output_count: int,
            removed: Sequence[tuple[ClaimRecord, str]] = ()) -> None:
        histogram: dict[str, int] = {}
        for _, reason in removed:
            # collapse per-record reasons like "near-duplicate-of:<id>"
            key = reason.split(":", 1)[0]
            histogram[key] = histogram.get(key, 0) + 1
        self.stages.append(StageReport(name, input_count, output_count, histogram))

    def validate_chain(self) -> None:
        """Raise ValueError unless each stage takes the previous one's output,
        no stage but augment grows, and a stage's rejections account for
        every record it removed."""
        for prev, cur in zip(self.stages, self.stages[1:]):
            if cur.input_count != prev.output_count:
                raise ValueError(
                    f"broken chain at stage {cur.name!r}: input {cur.input_count} "
                    f"!= previous output {prev.output_count}"
                )
        for stage in self.stages:
            if stage.name != "augment" and stage.output_count > stage.input_count:
                raise ValueError(
                    f"stage {stage.name!r} grew its input ({stage.input_count} -> "
                    f"{stage.output_count})"
                )
            rejected = sum(stage.rejections.values())
            if stage.name != "augment" and stage.input_count - rejected != stage.output_count:
                raise ValueError(
                    f"stage {stage.name!r}: input {stage.input_count} minus "
                    f"{rejected} rejections != output {stage.output_count}"
                )

    def to_json_obj(self) -> dict:
        return {"stages": [s.to_json_obj() for s in self.stages]}

    @classmethod
    def from_json_obj(cls, obj) -> "FunnelReport":
        """A report from its JSON form; one of another shape raises ValueError."""
        stages = obj.get("stages") if isinstance(obj, dict) else None
        if not isinstance(stages, list):
            raise ValueError("report is not a JSON object with a 'stages' array")
        report = cls()
        for i, s in enumerate(stages):
            rejections = s.get("rejections", {}) if isinstance(s, dict) else None
            if not (isinstance(rejections, dict) and isinstance(s.get("name"), str)
                    and all(map(is_count, (s.get("input_count"), s.get("output_count"),
                                           *rejections.values())))):
                raise ValueError(f"report stage {i} needs a string 'name' and counts "
                                 "that are whole numbers")
            report.stages.append(StageReport(s["name"], s["input_count"], s["output_count"],
                                             dict(rejections)))
        return report


@dataclass
class FunnelConfig:
    """Funnel settings, every value checked when built, whether in code or by
    `from_json_file`; `backends` fills in the default specs."""

    inputs: list[str]
    holdouts: list[str]
    budget: int
    seed: int = 0
    cache_dir: str = ".claimkit-cache"
    selector: str = "facility_location"
    thresholds: RuleThresholds = field(default_factory=RuleThresholds)
    backends: dict[str, str] = field(default_factory=dict)
    max_tokens: int = 4096

    def __post_init__(self):
        if not isinstance(self.backends, dict):
            raise ValueError("config backends must map backend names to string specs")
        unknown = sorted(set(self.backends) - set(_BACKEND_KEYS), key=str)
        if unknown:
            raise ValueError(f"unknown backend {unknown[0]!r}")
        ner = self.backends.get("ner", "heuristic")
        if ner not in ("heuristic", "mock"):
            raise ValueError(f"unsupported entity-counter spec {ner!r}")
        self.backends = {"judge": "mock", "embedding": "mock", "verifier": "mock",
                         **self.backends}
        counts = (self.budget, self.seed, self.max_tokens)
        if not all(is_number(v) and (isinstance(v, int) or v.is_integer()) for v in counts):
            raise ValueError("config budget, seed and max_tokens must be integers")
        self.budget, self.seed, self.max_tokens = map(int, counts)
        check_total(self.budget)  # the select stage's own check, made before any stage
        if self.selector not in SELECTORS:
            raise ValueError(f"unknown selector {self.selector!r}")
        if not (isinstance(self.inputs, list) and isinstance(self.holdouts, list)):
            raise ValueError("config inputs and holdouts must be lists of file names")
        if not self.inputs:
            raise ValueError("config must name at least one input file")
        names = (*self.inputs, *self.holdouts, self.cache_dir)
        if not (all(isinstance(name, (str, os.PathLike)) for name in names)
                and all(isinstance(spec, str) for spec in self.backends.values())):
            raise ValueError("config file names and backend specs must be strings")
        if not isinstance(self.thresholds, RuleThresholds):
            raise ValueError("config thresholds must be a RuleThresholds (in JSON, an object)")

    @classmethod
    def from_json_file(cls, path: str | Path) -> "FunnelConfig":
        """A config from a JSON object; its values are checked by the constructors."""
        obj = read_json(path)
        if not isinstance(obj, dict):
            raise ValueError(f"config {path} is not a JSON object")
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key {unknown[0]!r}")
        thresholds = obj.get("thresholds", {})
        if isinstance(thresholds, dict):
            unknown = sorted(set(thresholds) - {f.name for f in fields(RuleThresholds)})
            if unknown:
                raise ValueError(f"unknown threshold {unknown[0]!r}")
            thresholds = RuleThresholds(**thresholds)
        return cls(**{"inputs": [], "holdouts": [], "budget": None, **obj,
                      "thresholds": thresholds})


def stage_seed(seed: int, stage: str) -> int:
    """Per-stage seed derived from the single run seed."""
    digest = hashlib.blake2b(f"{seed}:{stage}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def select_stratified(
    pool: list[ClaimRecord],
    budget: int,
    selector: str,
    seed: int,
    embedding: EmbeddingBackend,
    cache: Cache,
) -> list[ClaimRecord]:
    """Split the budget over (label, source) cells and pick each cell's share
    with the selector; shared by the funnel's select stage and `claimkit select`.

    It stays in this module: perfbench/tracing.py wraps the `lazy_greedy`,
    `allocate_budgets` and `embed` names that it looks up here.
    """
    shares = allocate_budgets(pool, budget)
    by_cell: dict[tuple, list[ClaimRecord]] = {}
    for rec in pool:
        by_cell.setdefault((rec.label, rec.source), []).append(rec)
    by_id = {rec.id: rec for rec in pool}
    selected_ids: list[str] = []
    for cell in sorted(by_cell, key=lambda c: (c[0].value, c[1])):
        k = shares.for_cell(*cell)
        if k == 0:
            continue
        members = by_cell[cell]
        X = embed([rec.claim for rec in members], embedding, cache)
        ids = [rec.id for rec in members]
        if selector == "facility_location":
            chosen = lazy_greedy(X, k, ids)
        else:
            chosen = alt_select(X, k, selector,
                                stage_seed(seed, f"select:{cell[0].value}:{cell[1]}"), ids)
        selected_ids.extend(chosen)
    return [by_id[i] for i in selected_ids]


def run_funnel(config: FunnelConfig, open_cache: Callable[[str], DiskCache] = DiskCache
               ) -> tuple[list[ClaimRecord], FunnelReport]:
    """Execute every curation stage in order and account for each record.

    The backends are built, the inputs and holdouts read by `ingest_claims`
    (so a bad file raises its IngestError or OSError) and the holdouts
    checked before `open_cache(cache_dir)`; `funnel run --dry-run` stops
    there. A stage maps the pool to (kept, rejected); one that raises fails
    the run with a `StageError` naming it.
    """
    judge = build_judge_backend(config.backends["judge"])
    embedding = build_embedding_backend(config.backends["embedding"])
    verifier = build_verifier_backend(config.backends["verifier"])
    params = DecodingParams(max_tokens=config.max_tokens)
    pool = ingest_claims(*config.inputs)
    holdout = ingest_claims(*config.holdouts)
    if config.holdouts:
        try:
            check_holdout(holdout)
        except ValueError as exc:
            raise StageError("decontaminate", str(exc)) from exc

    def decontaminate_stage(pool):
        if not config.holdouts:
            return list(pool), []
        return decontaminate(pool, holdout, embedding, cache)

    def select_stage(pool):
        selected = select_stratified(pool, config.budget, config.selector, config.seed,
                                     embedding, cache)
        chosen = {rec.id for rec in selected}
        return selected, [(rec, "not-selected") for rec in pool if rec.id not in chosen]

    # Entries look each stage function up when called, so that a wrapper put
    # on this module's name (perfbench/tracing.py) sees the call.
    stages = (
        ("rule_filter", lambda pool: rule_filter(pool, config.thresholds, cache)),
        ("difficulty_filter", lambda pool: difficulty_filter(pool, verifier, cache)),
        ("dedup_minhash", lambda pool: dedup_minhash(pool)),
        ("dedup_semantic", lambda pool: dedup_semantic(pool, embedding, cache)),
        ("decontaminate", decontaminate_stage),
        ("silver_decompose", lambda pool: silver_stage(pool, judge, cache, params)),
        ("select", select_stage),
    )

    report = FunnelReport()
    with open_cache(config.cache_dir) as cache:  # the stages above read `cache` when called
        for name, stage in stages:
            try:
                kept, rejected = stage(pool)
            except Exception as exc:
                raise StageError(name, str(exc)) from exc
            report.add(name, len(pool), len(kept), rejected)
            previous, pool = pool, kept

    # Augmentation draws from the pool as it was before selection.
    final = long_evidence_augment(previous, pool)
    report.add("augment", len(pool), len(final))
    report.validate_chain()
    return final, report
