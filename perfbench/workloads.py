"""The three workloads: their inputs, their passes through `claimkit.cli.dispatch`,
and the checks on each pass's outputs.

An operation is one pass: one `dispatch` call (two for `score`, one per
supervision mode) over the workload's whole input. Each round makes a cold
pass against an empty cache directory and then warm passes against the
cache the cold pass filled. A pass whose exit code is not 0, or whose
outputs fail a check, counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import time
from pathlib import Path

import numpy as np

import inputs as gen

# Sizes, chosen so that every timed pass takes seconds on a 2-core machine.
FUNNEL_CORPUS = 800
FUNNEL_HOLDOUT = 160
FUNNEL_BUDGET = 80
SELECT_PER_LABEL = 1500
SELECT_BUDGET = 600
SCORE_GROUPS = 8
SCORE_GROUP_SIZE = 8
SCORE_SUPERVISION = 0.1
SCORE_WARM_PASSES = 16  # a single warm pass takes a fraction of a second

STAGE_ORDER = ("rule_filter", "difficulty_filter", "dedup_minhash", "dedup_semantic",
               "decontaminate", "silver_decompose", "select", "augment")
JACCARD_LIMIT = 0.7


def dispatch_timed(argvs: list[list[str]]) -> tuple[float, list[str]]:
    """Run CLI invocations back to back; returns wall time and error lines."""
    from claimkit.cli import dispatch

    errors = []
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for argv in argvs:
            try:
                code = dispatch(argv)
            except Exception as exc:  # a crash in the program is a failed pass
                code = repr(exc)
            if code != 0:
                errors.append(f"{' '.join(argv[:2])} exited {code}: {err.getvalue().strip()}")
    return time.perf_counter() - start, errors


def read_jsonl(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _evidence_tokens(row: dict) -> int:
    return len(gen.tokens(" ".join(row["evidence"])))


def _close_pairs(texts_a: list[str], texts_b: list[str] | None = None) -> list[tuple[int, int]]:
    """Index pairs with 3-shingle Jaccard >= JACCARD_LIMIT, within texts_a or across a x b."""
    sh_a = [gen.shingles(t) for t in texts_a]
    sh_b = sh_a if texts_b is None else [gen.shingles(t) for t in texts_b]
    index: dict[str, list[int]] = {}
    for j, s in enumerate(sh_b):
        for g in s:
            index.setdefault(g, []).append(j)
    pairs = []
    for i, s in enumerate(sh_a):
        seen = {j for g in s for j in index.get(g, ())}
        for j in seen:
            if (texts_b is not None or j > i) and gen.jaccard(s, sh_b[j]) >= JACCARD_LIMIT:
                pairs.append((i, j))
    return pairs


def _label_halves(rows: list[dict], budget: int) -> list[str]:
    counts = {lab: sum(r["label"] == lab for r in rows) for lab in gen.LABELS}
    want = {"Supported": (budget + 1) // 2, "Refuted": budget // 2}
    return [] if counts == want else [f"label halves {counts}, expected {want}"]


class Workload:
    """Base: subclasses write inputs in prepare() and define passes and checks."""

    name = ""
    warm_passes = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.items = 0  # input claims or rollouts per pass
        self.judge_url: str | None = None

    def prepare(self) -> None:
        raise NotImplementedError

    def argvs(self, outdir: Path, cache_dir: Path, warm: bool) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self, outdir: Path) -> list[Path]:
        raise NotImplementedError

    def check(self, outdir: Path) -> list[str]:
        raise NotImplementedError


class FunnelWorkload(Workload):
    name = "funnel"

    def prepare(self) -> None:
        self.inp = gen.funnel_inputs(self.seed, FUNNEL_CORPUS, FUNNEL_HOLDOUT)
        self.items = len(self.inp.corpus)
        corpus, holdout = self.workdir / "corpus.jsonl", self.workdir / "holdout.jsonl"
        gen.write_jsonl(self.inp.corpus, corpus)
        gen.write_jsonl(self.inp.holdout, holdout)
        self.config = self.workdir / "funnel.json"
        self.config.write_text(json.dumps({
            "inputs": [str(corpus)], "holdouts": [str(holdout)],
            "budget": FUNNEL_BUDGET, "seed": 0, "selector": "facility_location",
            "backends": {"judge": "mock", "embedding": "mock", "verifier": "mock",
                         "ner": "heuristic"},
        }))
        self.by_id = {r["id"]: r for r in self.inp.corpus}
        self.holdout_claims = [r["claim"] for r in self.inp.holdout]

    def argvs(self, outdir, cache_dir, warm):
        return [["funnel", "run", "--config", str(self.config), "--out", str(outdir / "out.jsonl"),
                 "--report", str(outdir / "report.json"), "--workers", "1",
                 "--cache-dir", str(cache_dir)]]

    def outputs(self, outdir):
        return [outdir / "out.jsonl", outdir / "report.json"]

    def check(self, outdir):
        errors: list[str] = []
        out = read_jsonl(outdir / "out.jsonl")
        stages = json.loads((outdir / "report.json").read_text())["stages"]
        names = tuple(s["name"] for s in stages)
        if names != STAGE_ORDER:
            return [f"report stages {names}"]
        st = {s["name"]: s for s in stages}

        # the report chain
        if stages[0]["input_count"] != len(self.inp.corpus):
            errors.append("rule_filter input is not the corpus size")
        for prev, cur in zip(stages, stages[1:]):
            if cur["input_count"] != prev["output_count"]:
                errors.append(f"chain broken at {cur['name']}")
        for s in stages:
            removed = sum(s["rejections"].values())
            if s["name"] == "augment":
                if s["output_count"] < s["input_count"] or removed:
                    errors.append("augment removed records")
            elif s["input_count"] - s["output_count"] != removed:
                errors.append(f"{s['name']}: rejections do not account for the drop")
        if stages[-1]["output_count"] != len(out):
            errors.append("report output count differs from the output file")

        # planted rule-gate violations
        if st["rule_filter"]["rejections"] != self.inp.violations:
            errors.append(f"rule_filter rejections {st['rule_filter']['rejections']}, "
                          f"planted {self.inp.violations}")

        # records come from the corpus unchanged, with n* >= 2
        ids = [r["id"] for r in out]
        if len(set(ids)) != len(ids):
            errors.append("duplicate ids in the output")
        for r in out:
            src = self.by_id.get(r["id"])
            if src is None or (r["claim"], r["evidence"], r["label"]) != (
                    src["claim"], src["evidence"], src["label"]):
                errors.append(f"output record {r['id']} is not its corpus record")
                break
            if (r.get("silver_question_count") or 0) < 2:
                errors.append(f"{r['id']} has silver_question_count < 2")
                break

        # no near-duplicates left, no holdout collisions left
        claims = [r["claim"] for r in out]
        close = _close_pairs(claims)
        if close:
            errors.append(f"{len(close)} output pairs at Jaccard >= 0.7")
        if _close_pairs(claims, self.holdout_claims):
            errors.append("output claims collide with the holdout")
        if self.inp.collision_ids & set(ids):
            errors.append("a planted holdout collision survived")

        # budget, label halves and the long-evidence augmentation
        b = FUNNEL_BUDGET
        if st["select"]["output_count"] != b:
            errors.append("select did not fill the budget")
        errors += _label_halves(out[:b], b)
        extra = out[b:]
        if len(extra) != st["augment"]["output_count"] - st["augment"]["input_count"]:
            errors.append("output size is not budget plus augmented records")
        if any(_evidence_tokens(r) < gen.LONG_EVIDENCE_TOKENS for r in extra):
            errors.append("an augmented record is below the long-evidence band")
        return errors


class SelectWorkload(Workload):
    name = "select"

    def prepare(self) -> None:
        from claimkit.mock import HashEmbeddingBackend

        self.pool = gen.select_pool(self.seed, SELECT_PER_LABEL)
        self.items = len(self.pool)
        self.claims = self.workdir / "pool.jsonl"
        gen.write_jsonl(self.pool, self.claims)
        self.by_id = {r["id"]: r for r in self.pool}
        # The embeddings are the selection's input: the benchmark asks the
        # same mock backend for them and does the selection arithmetic itself.
        vectors = np.asarray(HashEmbeddingBackend().embed_texts([r["claim"] for r in self.pool]))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        self.cells = {}
        for label in gen.LABELS:
            rows = [i for i, r in enumerate(self.pool) if r["label"] == label]
            self.cells[label] = ([self.pool[i]["id"] for i in rows], vectors[rows])

    def argvs(self, outdir, cache_dir, warm):
        return [["select", "--claims", str(self.claims), "--budget", str(SELECT_BUDGET),
                 "--out", str(outdir / "out.jsonl"), "--cache-dir", str(cache_dir)]]

    def outputs(self, outdir):
        return [outdir / "out.jsonl"]

    def check(self, outdir):
        out = read_jsonl(outdir / "out.jsonl")
        errors = []
        ids = [r["id"] for r in out]
        if len(out) != SELECT_BUDGET:
            errors.append(f"selected {len(out)}, budget {SELECT_BUDGET}")
        if len(set(ids)) != len(ids):
            errors.append("duplicate ids in the selection")
        if any(self.by_id.get(r["id"]) != r for r in out):
            errors.append("a selected record is not its pool record")
            return errors
        errors += _label_halves(out, SELECT_BUDGET)
        for label, (cell_ids, X) in self.cells.items():
            picked = [r["id"] for r in out if r["label"] == label]
            if picked:
                errors += self._check_cell(label, cell_ids, X, picked)
        return errors

    def _check_cell(self, label, cell_ids, X, picked) -> list[str]:
        errors = []
        row_of = {rid: i for i, rid in enumerate(cell_ids)}
        # first pick: argmax of sum_i max(0, <c_i, c_j>), lowest id on ties
        gains = np.zeros(X.shape[0])
        for lo in range(0, X.shape[0], 256):
            gains += np.maximum(X[lo:lo + 256] @ X.T, 0.0).sum(axis=0)
        tol = 1e-9 * max(1.0, float(gains.max()))
        expected = min(cell_ids[j] for j in np.flatnonzero(gains >= gains.max() - tol))
        if picked[0] != expected:
            errors.append(f"{label} cell: first pick {picked[0]}, expected {expected}")
        # facility-location value against a seeded random subset of the same size
        rng = random.Random(f"select-check:{self.seed}:{label}")
        chosen = [row_of[i] for i in picked]
        baseline = rng.sample(range(X.shape[0]), len(chosen))
        f_sel, f_rand = _facility_value(X, chosen), _facility_value(X, baseline)
        if f_sel < (1 - 1 / math.e) * f_rand:
            errors.append(f"{label} cell: f(S) {f_sel:.3f} < (1-1/e) x random {f_rand:.3f}")
        return errors


def _facility_value(X: np.ndarray, rows: list[int]) -> float:
    """sum_i max(0, max_{j in rows} <x_i, x_j>), in row blocks to bound memory."""
    C = X[rows]
    return float(sum(np.maximum((X[lo:lo + 256] @ C.T).max(axis=1), 0.0).sum()
                     for lo in range(0, X.shape[0], 256)))


class ScoreWorkload(Workload):
    name = "score"
    warm_passes = SCORE_WARM_PASSES

    def prepare(self) -> None:
        from claimkit.rewards import partition_supervision

        # Ids are drawn until the split by partition_supervision holds a fixed
        # number of labeled groups, so every seed scores the same mix.
        n_labeled = max(1, round(SCORE_SUPERVISION * SCORE_GROUPS))
        want = {"labeled": n_labeled, "unlabeled": SCORE_GROUPS - n_labeled}
        piles: dict[str, list[str]] = {"labeled": [], "unlabeled": []}
        i = 0
        while any(len(piles[k]) < want[k] for k in want):
            cid = f"grp-{self.seed}-{i:05d}"
            i += 1
            split = partition_supervision([cid], SCORE_SUPERVISION, self.seed)[cid]
            if len(piles[split]) < want[split]:
                piles[split].append(cid)
        labeled, unlabeled = piles["labeled"], piles["unlabeled"]
        self.labeled_ids = set(labeled)
        self.inp = gen.score_inputs(self.seed, SCORE_GROUPS, SCORE_GROUP_SIZE,
                                    sorted(labeled + unlabeled))
        self.items = len(self.inp.rollouts)
        self.gold = {c["id"]: c["label"] for c in self.inp.claims}
        self.n_star = {c["id"]: c["silver_question_count"] for c in self.inp.claims}
        claims = [dict(c, label=c["label"] if c["id"] in self.labeled_ids else None)
                  for c in self.inp.claims]
        self.claims = self.workdir / "claims.jsonl"
        gen.write_jsonl(claims, self.claims)
        self.trace_files = {}
        for mode in ("labeled", "unlabeled"):
            rows = [{"id": r.claim_id, "trace": r.text} for r in self.inp.rollouts
                    if (r.claim_id in self.labeled_ids) == (mode == "labeled")]
            self.trace_files[mode] = self.workdir / f"traces-{mode}.jsonl"
            gen.write_jsonl(rows, self.trace_files[mode])

    def argvs(self, outdir, cache_dir, warm):
        # A warm pass hits the cache on every judge call, so there is no round
        # trip for a second worker to overlap; two GIL-bound threads only made
        # the warm rate spread by a quarter from run to run.
        return [["score-group", "--traces", str(self.trace_files[mode]),
                 "--claims", str(self.claims), "--mode", mode,
                 "--out", str(outdir / f"{mode}.jsonl"), "--judge", self.judge_url,
                 "--workers", "1" if warm else "2", "--cache-dir", str(cache_dir)]
                for mode in ("labeled", "unlabeled")]

    def outputs(self, outdir):
        return [outdir / "labeled.jsonl", outdir / "unlabeled.jsonl"]

    def check(self, outdir):
        errors = []
        for mode in ("labeled", "unlabeled"):
            rows = read_jsonl(outdir / f"{mode}.jsonl")
            expected = [r for r in self.inp.rollouts
                        if (r.claim_id in self.labeled_ids) == (mode == "labeled")]
            expected.sort(key=lambda r: r.claim_id)  # stable: keeps rollout order
            if [r["id"] for r in rows] != [r.claim_id for r in expected]:
                errors.append(f"{mode}: output rows do not match the rollouts")
                continue
            for row, ro in zip(rows, expected):
                errors += self._check_row(mode, row, ro)
            by_group: dict[str, list[tuple[dict, gen.Rollout]]] = {}
            for row, ro in zip(rows, expected):
                by_group.setdefault(ro.claim_id, []).append((row, ro))
            for cid, members in by_group.items():
                errors += self._check_group(cid, members)
            if len(errors) > 20:
                break
        return errors[:20]

    def _check_row(self, mode, row, ro) -> list[str]:
        where = f"{mode} {ro.claim_id} rollout {row.get('rollout')} ({ro.kind})"
        errors = []
        fmt = sum(ro.conditions.values()) / len(ro.conditions)
        gold = self.gold[ro.claim_id]
        ver = float(mode == "labeled" and ro.verdict == gold)
        r = len(ro.questions) / self.n_star[ro.claim_id]
        qc = max(0.0, 1.0 - abs(r - 1.0))
        for key, want in (("fmt", fmt), ("ver", ver), ("qc", qc)):
            if abs(row[key] - want) > 1e-12:
                errors.append(f"{where}: {key} {row[key]}, expected {want}")
        nec_values = {-1.0, 0.0, 0.5, 1.0} if mode == "labeled" else {0.0, 1.0}
        if not -1.0 <= row["div"] <= 0.0:
            errors.append(f"{where}: div {row['div']} outside [-1, 0]")
        if row["cov"] not in (0.0, 1.0):
            errors.append(f"{where}: cov {row['cov']} not in {{0, 1}}")
        if not 0.0 <= row["joint"] <= 1.0:
            errors.append(f"{where}: joint {row['joint']} outside [0, 1]")
        if row["nec"] not in nec_values:
            errors.append(f"{where}: nec {row['nec']} not in {sorted(nec_values)}")
        parts = sum(row[k] for k in ("fmt", "ver", "qc", "div", "cov", "nec", "joint"))
        if abs(row["total"] - parts) > 1e-9:
            errors.append(f"{where}: total {row['total']} is not the sum {parts}")
        return errors

    def _check_group(self, cid, members) -> list[str]:
        errors = []
        verdicts = [ro.verdict for _, ro in members]
        sup, ref = verdicts.count("Supported"), verdicts.count("Refuted")
        want = "Supported" if sup > ref else "Refuted" if ref > sup else None
        if any(row.get("pseudo_label") != want for row, _ in members):
            errors.append(f"{cid}: pseudo-label differs from the majority vote {want}")
        if [row["rollout"] for row, _ in members] != list(range(len(members))):
            errors.append(f"{cid}: rollout indices out of order")
        totals = [row["total"] for row, _ in members]
        adv = [row["advantage"] for row, _ in members]
        sigma = statistics.pstdev(totals)
        want_std = sigma / (sigma + 1e-6)
        if abs(statistics.fmean(adv)) > 1e-9 or abs(statistics.pstdev(adv) - want_std) > 1e-6:
            errors.append(f"{cid}: advantages are not mean 0 and std 1 (or all 0 on a tie)")
        return errors


WORKLOADS = {w.name: w for w in (FunnelWorkload, SelectWorkload, ScoreWorkload)}
