"""Command-line entry point.

Subcommands: `funnel run`, `funnel report`, `dedup`, `decontaminate`,
`select`, `score`, `score-group`, and `eval`. Exit codes: 0 success,
1 stage or backend failure (single machine-parseable error line on
stderr), 2 usage error. All output files are written atomically, and any
--seed reproduces byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .backends import DecodingParams, DiskCache, TransportError, ProtocolError
from .corpus import ClaimRecord, IngestError, Label, ingest_claims
from .funnel import (
    FunnelConfig,
    FunnelReport,
    StageError,
    atomic_write_text,
    decontaminate,
    dedup_minhash,
    dedup_semantic,
    run_funnel,
    select_stratified,
)
from .funnel.run import SELECTORS
# Unused here, but perfbench/tracing.py wraps these module-level names.
from .backends import embed  # noqa: F401
from .funnel import allocate_budgets, lazy_greedy  # noqa: F401
from .metrics import balanced_accuracy, stage_report_render
from .rewards import (
    Labeled,
    RewardBackends,
    Unlabeled,
    fetch_judge_replies,
    group_advantages,
    plan_judge_requests,
    pseudo_label,
    total_reward,
)
from .trace import parse_trace
from .wiring import build_embedding_backend, build_judge_backend


class UsageError(ValueError):
    pass


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1, help="has no effect on any command")
    p.add_argument("--cache-dir", default=".claimkit-cache")
    p.add_argument("--dry-run", action="store_true",
                   help="validate inputs and config, write nothing")


def _add_backend_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--judge", default="mock")
    p.add_argument("--embedding", default="mock")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claimkit",
        description="claim-verification data curation and trace scoring",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_funnel = sub.add_parser("funnel", help="curation funnel commands")
    fsub = p_funnel.add_subparsers(dest="funnel_command", required=True)
    p_run = fsub.add_parser("run", help="execute all curation stages")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--report", required=True)
    _add_common(p_run)
    p_run.set_defaults(seed=None, cache_dir=None)  # the config's values apply unless given

    p_rep = fsub.add_parser("report", help="render a funnel report")
    p_rep.add_argument("--report", required=True)
    p_rep.add_argument("--format", choices=("text", "json"), default="text")
    _add_common(p_rep)

    p_dedup = sub.add_parser("dedup", help="shingle-Jaccard + semantic near-duplicate removal")
    p_dedup.add_argument("--claims", required=True)
    p_dedup.add_argument("--out", required=True)
    p_dedup.add_argument("--embedding", default="mock")
    _add_common(p_dedup)

    p_dec = sub.add_parser("decontaminate", help="remove holdout collisions")
    p_dec.add_argument("--claims", required=True)
    p_dec.add_argument("--holdout", required=True)
    p_dec.add_argument("--out", required=True)
    p_dec.add_argument("--embedding", default="mock")
    _add_common(p_dec)

    p_sel = sub.add_parser("select", help="stratified representative selection")
    p_sel.add_argument("--claims", required=True)
    p_sel.add_argument("--budget", type=int, required=True)
    p_sel.add_argument("--out", required=True)
    p_sel.add_argument("--strategy", default="facility_location",
                       choices=SELECTORS)
    p_sel.add_argument("--embedding", default="mock")
    _add_common(p_sel)

    p_score = sub.add_parser("score", help="score traces into rewards JSONL")
    p_score.add_argument("--traces", required=True)
    p_score.add_argument("--claims", required=True)
    p_score.add_argument("--mode", choices=("labeled", "unlabeled"), default="labeled")
    p_score.add_argument("--out", required=True)
    _add_backend_flags(p_score)
    _add_common(p_score)

    p_group = sub.add_parser("score-group",
                             help="score rollout groups: pseudo-labels + advantages")
    p_group.add_argument("--traces", required=True)
    p_group.add_argument("--claims", required=True)
    p_group.add_argument("--mode", choices=("labeled", "unlabeled"), default="unlabeled")
    p_group.add_argument("--out", required=True)
    _add_backend_flags(p_group)
    _add_common(p_group)

    p_eval = sub.add_parser("eval", help="balanced accuracy of predictions")
    p_eval.add_argument("--preds", required=True)
    p_eval.add_argument("--gold", required=True)
    _add_common(p_eval)

    return parser


def _load_rows(path: str, fields: tuple[str, str]) -> list[dict]:
    """JSONL rows, each an object with a string value for both fields."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise UsageError(f"{path} line {line_no}: invalid JSON: {exc}") from exc
            if not (isinstance(row, dict) and all(isinstance(row.get(f), str) for f in fields)):
                raise UsageError(f"{path} line {line_no}: rows need string "
                                 f"{fields[0]!r} and {fields[1]!r} fields")
            rows.append(row)
    return rows


def _write_claims_atomic(records, path) -> None:
    text = "".join(json.dumps(r.to_json_obj(), ensure_ascii=False) + "\n" for r in records)
    atomic_write_text(path, text)


def _cmd_funnel_run(args) -> int:
    config = FunnelConfig.from_json_file(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.cache_dir is not None:
        config.cache_dir = args.cache_dir
    if args.dry_run:
        for path in list(config.inputs) + list(config.holdouts):
            ingest_claims(path)
        print("dry-run ok: config and inputs validated")
        return 0
    records, report = run_funnel(config)
    _write_claims_atomic(records, args.out)
    atomic_write_text(args.report,
                      json.dumps(report.to_json_obj(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_funnel_report(args) -> int:
    with open(args.report, "r", encoding="utf-8") as fh:
        report = FunnelReport.from_json_obj(json.load(fh))
    print(stage_report_render(report, fmt=args.format))
    return 0


def _cmd_dedup(args) -> int:
    records = ingest_claims(args.claims)
    if args.dry_run:
        print(f"dry-run ok: {len(records)} records parsed")
        return 0
    cache = DiskCache(args.cache_dir)
    kept, _ = dedup_minhash(records)
    backend = build_embedding_backend(args.embedding)
    kept, _ = dedup_semantic(kept, backend, cache)
    _write_claims_atomic(kept, args.out)
    print(f"kept {len(kept)} of {len(records)} records")
    return 0


def _cmd_decontaminate(args) -> int:
    records = ingest_claims(args.claims)
    holdout = ingest_claims(args.holdout)
    if args.dry_run:
        print(f"dry-run ok: {len(records)} train, {len(holdout)} holdout")
        return 0
    cache = DiskCache(args.cache_dir)
    backend = build_embedding_backend(args.embedding)
    kept, _ = decontaminate(records, holdout, backend, cache)
    _write_claims_atomic(kept, args.out)
    print(f"kept {len(kept)} of {len(records)} records")
    return 0


def _cmd_select(args) -> int:
    records = ingest_claims(args.claims)
    if args.dry_run:
        print(f"dry-run ok: {len(records)} records parsed")
        return 0
    selected = select_stratified(records, args.budget, args.strategy, args.seed,
                                 build_embedding_backend(args.embedding),
                                 DiskCache(args.cache_dir))
    _write_claims_atomic(selected, args.out)
    print(f"selected {len(selected)} of {len(records)} records")
    return 0


def _reward_backends(args) -> RewardBackends:
    return RewardBackends(
        judge=build_judge_backend(args.judge),
        embedding=build_embedding_backend(args.embedding),
        cache=DiskCache(args.cache_dir),
        params=DecodingParams(),
    )


def _load_trace_rows(args) -> tuple[list[dict], dict[str, ClaimRecord]]:
    rows = _load_rows(args.traces, ("id", "trace"))
    claims = {rec.id: rec for rec in ingest_claims(args.claims)}
    for row in rows:
        if row["id"] not in claims:
            raise UsageError(f"trace id {row['id']!r} not found in {args.claims}")
    return rows, claims


def _cmd_score(args) -> int:
    rows, claims = _load_trace_rows(args)
    if args.dry_run:
        print(f"dry-run ok: {len(rows)} traces against {len(claims)} claims")
        return 0
    bk = _reward_backends(args)
    jobs = []
    for row in rows:
        record = claims[row["id"]]
        if args.mode == "labeled":
            if record.label is None:
                raise UsageError(f"claim {record.id!r} has no gold label")
            mode = Labeled(record.label)
        else:
            mode = Unlabeled(None)
        jobs.append((record, row["trace"], mode))

    # Plan every rollout, fetch all judge replies in one dispatch, then score.
    bk = fetch_judge_replies(bk, (
        request for record, trace, _ in jobs
        for request in plan_judge_requests(record, parse_trace(trace))))
    results = [total_reward(record, trace, mode, bk).to_json_obj(record.id)
               for record, trace, mode in jobs]
    text = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in results)
    atomic_write_text(args.out, text)
    print(f"scored {len(results)} traces")
    return 0


def _cmd_score_group(args) -> int:
    rows, claims = _load_trace_rows(args)
    if args.dry_run:
        print(f"dry-run ok: {len(rows)} rollouts against {len(claims)} claims")
        return 0
    bk = _reward_backends(args)
    groups: dict[str, list[dict]] = {}
    for row in rows:
        groups.setdefault(row["id"], []).append(row)

    jobs = []
    for cid in sorted(groups):
        record = claims[cid]
        group = groups[cid]
        if len(group) < 2:
            raise UsageError(f"group {cid!r} has fewer than 2 rollouts")
        reports = [parse_trace(row["trace"]) for row in group]
        label_hat = pseudo_label([report.verdict for report in reports])
        if args.mode == "labeled":
            if record.label is None:
                raise UsageError(f"claim {cid!r} has no gold label")
            mode = Labeled(record.label)
        else:
            mode = Unlabeled(label_hat)
        jobs.append((record, group, reports, mode, label_hat))

    # Plan every rollout, fetch all judge replies in one dispatch, then score.
    bk = fetch_judge_replies(bk, (
        request for record, _, reports, _, _ in jobs for report in reports
        for request in plan_judge_requests(record, report)))
    out_rows: list[dict] = []
    for record, group, _, mode, label_hat in jobs:
        scored = [total_reward(record, row["trace"], mode, bk).to_json_obj(record.id)
                  for row in group]
        advantages = group_advantages([r["total"] for r in scored])
        for k, (row_out, adv) in enumerate(zip(scored, advantages)):
            row_out["rollout"] = k
            row_out["advantage"] = adv
            if label_hat is not None:
                row_out["pseudo_label"] = label_hat.value
            out_rows.append(row_out)

    text = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in out_rows)
    atomic_write_text(args.out, text)
    print(f"scored {len(out_rows)} rollouts in {len(groups)} groups")
    return 0


def _cmd_eval(args) -> int:
    preds_rows = _load_rows(args.preds, ("id", "pred"))
    gold = {rec.id: rec for rec in ingest_claims(args.gold)}
    preds, golds = [], []
    for row in preds_rows:
        rec = gold.get(row["id"])
        if rec is None:
            raise UsageError(f"prediction id {row['id']!r} not in gold file")
        if rec.label is None:
            raise UsageError(f"gold claim {row['id']!r} is unlabeled")
        preds.append(Label.from_string(row["pred"]))
        golds.append(rec.label)
    if args.dry_run:
        print(f"dry-run ok: {len(preds)} aligned predictions")
        return 0
    print(f"{balanced_accuracy(preds, golds):.4f}")
    return 0


_HANDLERS = {
    ("funnel", "run"): _cmd_funnel_run,
    ("funnel", "report"): _cmd_funnel_report,
    ("dedup", None): _cmd_dedup,
    ("decontaminate", None): _cmd_decontaminate,
    ("select", None): _cmd_select,
    ("score", None): _cmd_score,
    ("score-group", None): _cmd_score_group,
    ("eval", None): _cmd_eval,
}


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    key = (args.command, getattr(args, "funnel_command", None))
    handler = _HANDLERS[key]
    try:
        return handler(args)
    except (UsageError, IngestError) as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TransportError, ProtocolError) as exc:
        print(f"error: backend: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
