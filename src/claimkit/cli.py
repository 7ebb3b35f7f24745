"""Command-line entry point.

Subcommands: `funnel run`, `funnel report`, `dedup`, `decontaminate`,
`select`, `score`, `score-group`, and `eval`. Exit codes: 0 success, 2 a
bad command line or a malformed input file (IngestError), 1 any other
fault. `dispatch` alone maps a fault to its code and its one `error:` line
on stderr, by its class, whichever command or funnel stage met it. All
output files are written atomically, and `funnel run` and `select`, the
commands that take --seed, give byte-identical artifacts for any one seed.

Each command makes every check and builds its backends before it opens its
cache (`_open_cache`); `--dry-run` stops the same command there, so it
rejects what the real run rejects, with the same error line, and writes nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .backends import DiskCache, TransportError, ProtocolError
from .corpus import (ClaimRecord, IngestError, Label, atomic_write_text, ingest_claims,
                     read_json, read_jsonl, write_claims)
from .funnel import (
    FunnelConfig,
    FunnelReport,
    StageError,
    allocate_budgets,
    decontaminate,
    dedup_minhash,
    dedup_semantic,
    run_funnel,
    select_stratified,
)
from .funnel.dedup import check_holdout
from .funnel.run import SELECTORS
# Unused here, but perfbench/tracing.py wraps these module-level names.
from .backends import embed  # noqa: F401
from .funnel import lazy_greedy  # noqa: F401
from .rewards import total_reward  # noqa: F401
from .metrics import balanced_accuracy, stage_report_render
from .rewards import (
    Labeled,
    RewardBackends,
    SupervisionMode,
    Unlabeled,
    check_rollouts,
    group_advantages,
    pseudo_label,
    score_rollouts,
)
from .trace import parse_trace
from .wiring import build_embedding_backend, build_judge_backend


class _DryRunDone(Exception):
    """A dry run reached its stop point: every check passed."""


def _checks_passed(args) -> None:
    """The one place a dry run stops: checks made, backends built, nothing written."""
    if args.dry_run:
        raise _DryRunDone


def _open_cache(args, root: str | None = None) -> DiskCache:
    """The command's cache, at root or --cache-dir; a dry run stops instead."""
    _checks_passed(args)
    return DiskCache(args.cache_dir if root is None else root)


_SHARED_FLAGS = {
    "--seed": {"type": int, "default": 0},
    "--workers": {"type": int, "default": 1, "help": "has no effect on any command"},
    "--cache-dir": {"default": ".claimkit-cache"},
    "--dry-run": {"action": "store_true", "help": "validate inputs and config, write nothing"},
}


def _add_common(p: argparse.ArgumentParser, *flags: str) -> None:
    """Register --workers and the named shared flags: only those the
    command's handler reads, so any other is a usage error."""
    for flag in ("--workers", *flags):
        p.add_argument(flag, **_SHARED_FLAGS[flag])


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
    _add_common(p_run, "--seed", "--cache-dir", "--dry-run")
    p_run.set_defaults(seed=None, cache_dir=None)  # the config's values apply unless given

    p_rep = fsub.add_parser("report", help="render a funnel report")
    p_rep.add_argument("--report", required=True)
    p_rep.add_argument("--format", choices=("text", "json"), default="text")
    _add_common(p_rep)

    p_dedup = sub.add_parser("dedup", help="shingle-Jaccard + semantic near-duplicate removal")
    p_dedup.add_argument("--claims", required=True)
    p_dedup.add_argument("--out", required=True)
    p_dedup.add_argument("--embedding", default="mock")
    _add_common(p_dedup, "--cache-dir", "--dry-run")

    p_dec = sub.add_parser("decontaminate", help="remove holdout collisions")
    p_dec.add_argument("--claims", required=True)
    p_dec.add_argument("--holdout", required=True)
    p_dec.add_argument("--out", required=True)
    p_dec.add_argument("--embedding", default="mock")
    _add_common(p_dec, "--cache-dir", "--dry-run")

    p_sel = sub.add_parser("select", help="stratified representative selection")
    p_sel.add_argument("--claims", required=True)
    p_sel.add_argument("--budget", type=int, required=True)
    p_sel.add_argument("--out", required=True)
    p_sel.add_argument("--strategy", default="facility_location",
                       choices=SELECTORS)
    p_sel.add_argument("--embedding", default="mock")
    _add_common(p_sel, "--seed", "--cache-dir", "--dry-run")

    p_score = sub.add_parser("score", help="score traces into rewards JSONL")
    p_score.add_argument("--traces", required=True)
    p_score.add_argument("--claims", required=True)
    p_score.add_argument("--mode", choices=("labeled", "unlabeled"), default="labeled")
    p_score.add_argument("--out", required=True)
    _add_backend_flags(p_score)
    _add_common(p_score, "--cache-dir", "--dry-run")

    p_group = sub.add_parser("score-group",
                             help="score rollout groups: pseudo-labels + advantages")
    p_group.add_argument("--traces", required=True)
    p_group.add_argument("--claims", required=True)
    p_group.add_argument("--mode", choices=("labeled", "unlabeled"), default="unlabeled")
    p_group.add_argument("--out", required=True)
    _add_backend_flags(p_group)
    _add_common(p_group, "--cache-dir", "--dry-run")

    p_eval = sub.add_parser("eval", help="balanced accuracy of predictions")
    p_eval.add_argument("--preds", required=True)
    p_eval.add_argument("--gold", required=True)
    _add_common(p_eval, "--dry-run")

    return parser


def _join_claims(path: str, field: str, claims_path: str
                 ) -> list[tuple[int, str, ClaimRecord]]:
    """(line number, `field` value, claim record) for each row of a JSONL
    file of string 'id' and `field` values, in file order. The rows file is
    read first, then the claims file; an id not in it is an IngestError."""
    rows = []
    for line_no, row in read_jsonl(path):
        if not (isinstance(row.get("id"), str) and isinstance(row.get(field), str)):
            raise IngestError(path, line_no, f"rows need string 'id' and {field!r} fields")
        rows.append((line_no, row["id"], row[field]))
    claims = {rec.id: rec for rec in ingest_claims(claims_path)}
    for line_no, rid, _ in rows:
        if rid not in claims:
            raise IngestError(path, line_no, f"id {rid!r} is not in {claims_path}")
    return [(line_no, value, claims[rid]) for line_no, rid, value in rows]


def _cmd_funnel_run(args) -> int:
    overrides = {"seed": args.seed, "cache_dir": args.cache_dir}
    config = dataclasses.replace(FunnelConfig.from_json_file(args.config),
                                 **{k: v for k, v in overrides.items() if v is not None})
    records, report = run_funnel(config, open_cache=functools.partial(_open_cache, args))
    write_claims(records, args.out)
    atomic_write_text(args.report,
                      json.dumps(report.to_json_obj(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_funnel_report(args) -> int:
    report = FunnelReport.from_json_obj(read_json(args.report))
    print(stage_report_render(report, fmt=args.format))
    return 0


def _cmd_dedup(args) -> int:
    records = ingest_claims(args.claims)
    backend = build_embedding_backend(args.embedding)
    with _open_cache(args) as cache:
        kept, _ = dedup_minhash(records)
        kept, _ = dedup_semantic(kept, backend, cache)
    write_claims(kept, args.out)
    print(f"kept {len(kept)} of {len(records)} records")
    return 0


def _cmd_decontaminate(args) -> int:
    records = ingest_claims(args.claims)
    holdout = ingest_claims(args.holdout)
    backend = build_embedding_backend(args.embedding)
    check_holdout(holdout)
    with _open_cache(args) as cache:
        kept, _ = decontaminate(records, holdout, backend, cache)
    write_claims(kept, args.out)
    print(f"kept {len(kept)} of {len(records)} records")
    return 0


def _cmd_select(args) -> int:
    records = ingest_claims(args.claims)
    backend = build_embedding_backend(args.embedding)
    allocate_budgets(records, args.budget)  # select_stratified's budget check, made early
    with _open_cache(args) as cache:
        selected = select_stratified(records, args.budget, args.strategy, args.seed,
                                     backend, cache)
    write_claims(selected, args.out)
    print(f"selected {len(selected)} of {len(records)} records")
    return 0


def _score_rows(args, rollouts) -> list[dict]:
    """Output rows of (record, parsed trace, mode) rollouts, scored from one
    plan, fetched in one dispatch."""
    judge = build_judge_backend(args.judge)
    embedding = build_embedding_backend(args.embedding)
    check_rollouts(rollouts)
    with _open_cache(args) as cache:
        scored = score_rollouts(rollouts, RewardBackends(judge, embedding, cache))
    return [b.to_json_obj(record.id) for b, (record, _, _) in zip(scored, rollouts)]


def _supervision(args, line_no: int, record: ClaimRecord, label_hat: Label | None = None
                 ) -> SupervisionMode:
    """The --mode supervision of the rollout on traces line `line_no`: Labeled
    needs the claim's gold label; Unlabeled carries the group's pseudo-label, if any."""
    if args.mode == "unlabeled":
        return Unlabeled(label_hat)
    if record.label is None:
        raise IngestError(args.traces, line_no, f"claim {record.id!r} has no gold label")
    return Labeled(record.label)


def _cmd_score(args) -> int:
    rollouts = [(record, parse_trace(trace), _supervision(args, line_no, record))
                for line_no, trace, record in _join_claims(args.traces, "trace", args.claims)]

    results = _score_rows(args, rollouts)
    text = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in results)
    atomic_write_text(args.out, text)
    print(f"scored {len(results)} traces")
    return 0


def _cmd_score_group(args) -> int:
    groups: dict[str, list[tuple[int, str, ClaimRecord]]] = {}
    for row in _join_claims(args.traces, "trace", args.claims):
        groups.setdefault(row[2].id, []).append(row)

    rollouts = []
    label_hats = []  # (group size, pseudo-label) per group, in output order
    for cid in sorted(groups):
        group = groups[cid]
        line_no, _, record = group[0]
        if len(group) < 2:
            raise IngestError(args.traces, line_no, f"group {cid!r} has fewer than 2 rollouts")
        reports = [parse_trace(trace) for _, trace, _ in group]
        label_hat = pseudo_label([report.verdict for report in reports])
        mode = _supervision(args, line_no, record, label_hat)
        rollouts += [(record, report, mode) for report in reports]
        label_hats.append((len(group), label_hat))

    scored = iter(_score_rows(args, rollouts))
    out_rows: list[dict] = []
    for size, label_hat in label_hats:
        group_rows = [next(scored) for _ in range(size)]
        advantages = group_advantages([r["total"] for r in group_rows])
        for k, (row_out, adv) in enumerate(zip(group_rows, advantages)):
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
    preds, golds = [], []
    for line_no, pred, rec in _join_claims(args.preds, "pred", args.gold):
        if rec.label is None:
            raise IngestError(args.preds, line_no, f"gold claim {rec.id!r} is unlabeled")
        try:
            preds.append(Label.from_string(pred))
        except ValueError as exc:
            raise IngestError(args.preds, line_no, str(exc)) from None
        golds.append(rec.label)
    _checks_passed(args)
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
    except _DryRunDone:
        print("dry-run ok: every check passed; nothing written")
        return 0
    except (StageError, TransportError, ProtocolError, OSError, ValueError) as exc:
        # One policy, by the fault's class: a stage's failure is classed by
        # its cause, and the stage only names where it happened.
        context = ""
        if isinstance(exc, StageError) and exc.__cause__ is not None:
            context, exc = f"stage {exc.stage}: ", exc.__cause__
        if isinstance(exc, (TransportError, ProtocolError)):
            context += "backend: "
        print(f"error: {context}{exc}", file=sys.stderr)
        return 2 if isinstance(exc, IngestError) else 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
