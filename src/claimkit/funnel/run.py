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
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

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

SELECTORS = ("facility_location", "farthest_point", "random")

# Config keys whose value must have one JSON type; numbers are checked as
# they are converted.
_CONFIG_SHAPES = {"inputs": list, "holdouts": list, "thresholds": dict, "backends": dict,
                  "cache_dir": str}
_JSON_KINDS = {list: "array", dict: "object", str: "string"}


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
        if not isinstance(obj, dict):
            raise ValueError(f"config {path} is not a JSON object")
        for key, kind in _CONFIG_SHAPES.items():
            if not isinstance(obj.get(key, kind()), kind):
                raise ValueError(f"config {key!r} must be a JSON {_JSON_KINDS[kind]}")
        unknown = sorted(set(obj.get("thresholds", {})) - {f.name for f in fields(RuleThresholds)})
        if unknown:
            raise ValueError(f"unknown threshold {unknown[0]!r}")
        names = [*obj.get("inputs", []), *obj.get("holdouts", []),
                 *obj.get("backends", {}).values()]
        if not all(isinstance(name, str) for name in names):
            raise ValueError("config file names and backend specs must be strings")
        optional = ("seed", "cache_dir", "selector", "max_tokens")
        cfg = cls(
            inputs=list(obj.get("inputs", [])),
            holdouts=list(obj.get("holdouts", [])),
            budget=obj.get("budget"),
            thresholds=RuleThresholds(**obj.get("thresholds", {})),
            **{name: obj[name] for name in optional if name in obj},
        )
        try:
            cfg.budget, cfg.seed, cfg.max_tokens = map(int, (cfg.budget, cfg.seed, cfg.max_tokens))
        except TypeError as exc:
            raise ValueError("config budget, seed and max_tokens must be integers") from exc
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


def run_funnel(config: FunnelConfig) -> tuple[list[ClaimRecord], FunnelReport]:
    """Execute every curation stage in order and account for each record.

    Each stage maps the pool to (kept, rejected). A stage that raises fails
    the run with a `StageError` naming the stage; a `StageError` raised
    inside a stage, such as a holdout ingest error, passes through as it is.
    """
    cache = DiskCache(config.cache_dir)
    judge = build_judge_backend(config.backends["judge"])
    embedding = build_embedding_backend(config.backends["embedding"])
    verifier = build_verifier_backend(config.backends["verifier"])
    ner = build_entity_counter(config.backends.get("ner", "heuristic"))
    params = DecodingParams(max_tokens=config.max_tokens)

    def decontaminate_stage(pool):
        if not config.holdouts:
            return list(pool), []
        return decontaminate(pool, _load_inputs(config.holdouts, "holdout"), embedding, cache)

    def select_stage(pool):
        selected = select_stratified(pool, config.budget, config.selector, config.seed,
                                     embedding, cache)
        chosen = {rec.id for rec in selected}
        return selected, [(rec, "not-selected") for rec in pool if rec.id not in chosen]

    # Entries look each stage function up when called, so that a wrapper put
    # on this module's name (perfbench/tracing.py) sees the call.
    stages = (
        ("rule_filter", lambda pool: rule_filter(pool, config.thresholds, ner)),
        ("difficulty_filter", lambda pool: difficulty_filter(pool, verifier, cache)),
        ("dedup_minhash", lambda pool: dedup_minhash(pool)),
        ("dedup_semantic", lambda pool: dedup_semantic(pool, embedding, cache)),
        ("decontaminate", decontaminate_stage),
        ("silver_decompose", lambda pool: silver_stage(pool, judge, cache, params)),
        ("select", select_stage),
    )

    pool = _load_inputs(config.inputs, "input")
    report = FunnelReport()
    for name, stage in stages:
        try:
            kept, rejected = stage(pool)
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, str(exc)) from exc
        report.add(name, len(pool), len(kept), rejected)
        previous, pool = pool, kept

    # Augmentation draws from the pool as it was before selection.
    final = long_evidence_augment(previous, pool, LONG_EVIDENCE_TOKENS)
    report.add("augment", len(pool), len(final))
    report.validate_chain()
    return final, report
