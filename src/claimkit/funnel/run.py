"""Funnel orchestration: config, stage accounting, and the end-to-end run.

The funnel executes rule gating, difficulty banding, shingle-Jaccard and
semantic dedup, holdout decontamination, silver decomposition, stratified
facility-location selection, and long-evidence augmentation, in that
order, with every stage's input/output counts and rejection reasons
recorded in a chained report.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from ..backends import Cache, DecodingParams, DiskCache, EmbeddingBackend, embed
from ..corpus import ClaimRecord, IngestError, ingest_claims
from ..wiring import (
    build_embedding_backend,
    build_entity_counter,
    build_judge_backend,
    build_verifier_backend,
)
from .budget import allocate_budgets
from .dedup import decontaminate, dedup_minhash, dedup_semantic
from .select import alt_select, lazy_greedy
from .stages import (
    LONG_EVIDENCE_TOKENS,
    RuleThresholds,
    StageError,
    difficulty_filter,
    long_evidence_augment,
    rule_filter,
    silver_stage,
)

STAGE_ORDER = (
    "rule_filter",
    "difficulty_filter",
    "dedup_minhash",
    "dedup_semantic",
    "decontaminate",
    "silver_decompose",
    "select",
    "augment",
)

SELECTORS = ("facility_location", "farthest_point", "random")


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

    def to_json_obj(self) -> dict:
        return {"stages": [s.to_json_obj() for s in self.stages]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FunnelReport":
        report = cls()
        for s in obj["stages"]:
            report.stages.append(StageReport(
                name=s["name"],
                input_count=s["input_count"],
                output_count=s["output_count"],
                rejections=dict(s.get("rejections", {})),
            ))
        return report


@dataclass
class FunnelConfig:
    inputs: list[str]
    holdouts: list[str]
    budget: int
    seed: int = 0
    cache_dir: str = ".claimkit-cache"
    selector: str = "facility_location"
    thresholds: RuleThresholds = field(default_factory=RuleThresholds)
    backends: dict[str, str] = field(default_factory=lambda: {
        "judge": "mock", "embedding": "mock", "verifier": "mock", "ner": "heuristic",
    })
    max_tokens: int = 4096

    @classmethod
    def from_json_file(cls, path: str | Path) -> "FunnelConfig":
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        optional = ("seed", "cache_dir", "selector", "max_tokens")
        cfg = cls(
            inputs=list(obj["inputs"]),
            holdouts=list(obj.get("holdouts", [])),
            budget=int(obj["budget"]),
            thresholds=RuleThresholds(**obj.get("thresholds", {})),
            **{name: obj[name] for name in optional if name in obj},
        )
        cfg.seed, cfg.max_tokens = int(cfg.seed), int(cfg.max_tokens)
        cfg.backends.update(obj.get("backends", {}))
        if cfg.selector not in SELECTORS:
            raise ValueError(f"unknown selector {cfg.selector!r}")
        if not cfg.inputs:
            raise ValueError("config must name at least one input file")
        return cfg


def stage_seed(seed: int, stage: str) -> int:
    """Per-stage seed derived from the single run seed."""
    digest = hashlib.blake2b(f"{seed}:{stage}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def make_pmap(workers: int) -> Callable:
    """Order-preserving parallel map; workers=1 degrades to a plain loop."""
    if workers <= 1:
        return lambda fn, xs: [fn(x) for x in xs]

    def pmap(fn, xs):
        xs = list(xs)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, xs))

    return pmap


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via temp file + rename so readers never see partial output."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_inputs(paths: Sequence[str], what: str) -> list[ClaimRecord]:
    records: list[ClaimRecord] = []
    seen: set[str] = set()
    for path in paths:
        try:
            batch = ingest_claims(path)
        except (OSError, IngestError) as exc:
            raise StageError("ingest", f"{what} file {path}: {exc}") from exc
        for rec in batch:
            if rec.id in seen:
                raise StageError("ingest", f"duplicate id {rec.id!r} across {what} files")
            seen.add(rec.id)
            records.append(rec)
    return records


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


def run_funnel(
    config: FunnelConfig,
    workers: int = 1,
) -> tuple[list[ClaimRecord], FunnelReport]:
    """Execute every curation stage in order and account for each record."""
    pmap = make_pmap(workers)
    cache = DiskCache(config.cache_dir)
    judge = build_judge_backend(config.backends["judge"])
    embedding = build_embedding_backend(config.backends["embedding"])
    verifier = build_verifier_backend(config.backends["verifier"])
    ner = build_entity_counter(config.backends.get("ner", "heuristic"))
    params = DecodingParams(max_tokens=config.max_tokens)

    records = _load_inputs(config.inputs, "input")
    report = FunnelReport()

    kept, rejected = rule_filter(records, config.thresholds, ner, pmap)
    report.add("rule_filter", len(records), len(kept), rejected)
    records = kept

    kept, rejected = difficulty_filter(records, verifier, cache, pmap=pmap)
    report.add("difficulty_filter", len(records), len(kept), rejected)
    records = kept

    kept, rejected = dedup_minhash(records)
    report.add("dedup_minhash", len(records), len(kept), rejected)
    records = kept

    try:
        kept, rejected = dedup_semantic(records, embedding, cache)
    except Exception as exc:
        raise StageError("dedup_semantic", str(exc)) from exc
    report.add("dedup_semantic", len(records), len(kept), rejected)
    records = kept

    if config.holdouts:
        holdout = _load_inputs(config.holdouts, "holdout")
        try:
            kept, rejected = decontaminate(records, holdout, embedding, cache)
        except Exception as exc:
            raise StageError("decontaminate", str(exc)) from exc
    else:
        kept, rejected = list(records), []
    report.add("decontaminate", len(records), len(kept), rejected)
    records = kept

    kept, rejected = silver_stage(records, judge, cache, params, pmap)
    report.add("silver_decompose", len(records), len(kept), rejected)
    records = kept

    try:
        selected = select_stratified(records, config.budget, config.selector, config.seed,
                                     embedding, cache)
    except ValueError as exc:
        raise StageError("select", str(exc)) from exc
    selected_ids = {s.id for s in selected}
    report.add("select", len(records), len(selected),
               [(r, "not-selected") for r in records if r.id not in selected_ids])

    final = long_evidence_augment(records, selected, LONG_EVIDENCE_TOKENS)
    report.add("augment", len(selected), len(final))

    report.validate_chain()
    return final, report
