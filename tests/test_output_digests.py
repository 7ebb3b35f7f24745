"""Pinned output bytes: SHA-256 digests of CLI outputs on the benchmark's
seeded inputs, with the mock backends.

A change meant to keep every output byte keeps this test passing. A change
meant to alter outputs updates `output_digests.json` and says which digests
moved and why. To rewrite the manifest from the current code:

    PYTHONPATH=src python tests/test_output_digests.py
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import sqlite3
import sys
from contextlib import closing
from pathlib import Path

import pytest

from claimkit.backends import DiskCache
from claimkit.cli import dispatch
from claimkit.funnel.run import SELECTORS

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("output_digests.json")

# (seed, corpus claims); holdout and budget scale as in the benchmark's funnel workload
FUNNEL_RUNS = ((1, 800), (2, 800), (3, 800), (4, 2000))
SELECT_PER_LABEL, SELECT_BUDGET = 200, 60


@functools.cache
def _inputs_module():
    """perfbench/inputs.py, the benchmark's seeded input generators."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = dispatch([str(a) for a in argv])
    assert code == 0, f"{' '.join(map(str, argv[:2]))} exited {code}"


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cache_rows_sha(cache_dir: Path) -> str:
    with closing(sqlite3.connect(cache_dir / DiskCache.FILE_NAME)) as db:
        rows = db.execute("SELECT key, blob FROM responses ORDER BY key").fetchall()
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _funnel_digests(work: Path, seed: int, n: int) -> dict[str, str]:
    gen = _inputs_module()
    inp = gen.funnel_inputs(seed, n, n // 5)
    corpus, holdout = work / "corpus.jsonl", work / "holdout.jsonl"
    gen.write_jsonl(inp.corpus, corpus)
    gen.write_jsonl(inp.holdout, holdout)
    config = work / "funnel.json"
    config.write_text(json.dumps({"inputs": [str(corpus)], "holdouts": [str(holdout)],
                                  "budget": n // 10, "seed": 0}))
    digests = {}
    for temp in ("cold", "warm"):
        out, report = work / f"{temp}.jsonl", work / f"{temp}-report.json"
        _run("funnel", "run", "--config", config, "--out", out, "--report", report,
             "--workers", 1, "--cache-dir", work / "cache")
        digests[f"{temp}/out.jsonl"] = _sha(out)
        digests[f"{temp}/report.json"] = _sha(report)
        if temp == "cold":
            digests["cold/cache-rows"] = _cache_rows_sha(work / "cache")
    if (seed, n) == FUNNEL_RUNS[0]:  # the single-stage commands, on the same inputs
        _run("dedup", "--claims", corpus, "--out", work / "dedup.jsonl",
             "--cache-dir", work / "stage-cache")
        _run("decontaminate", "--claims", corpus, "--holdout", holdout,
             "--out", work / "decontaminate.jsonl", "--cache-dir", work / "stage-cache")
        digests["dedup/out.jsonl"] = _sha(work / "dedup.jsonl")
        digests["decontaminate/out.jsonl"] = _sha(work / "decontaminate.jsonl")
    return digests


def _select_digests(work: Path) -> dict[str, str]:
    gen = _inputs_module()
    pool = work / "pool.jsonl"
    gen.write_jsonl(gen.select_pool(1, SELECT_PER_LABEL), pool)
    digests = {}
    for strategy in SELECTORS:
        out = work / f"{strategy}.jsonl"
        _run("select", "--claims", pool, "--budget", SELECT_BUDGET, "--strategy", strategy,
             "--seed", 3, "--out", out, "--cache-dir", work / "cache")
        digests[f"{strategy}/out.jsonl"] = _sha(out)
    return digests


CASES = {
    **{f"funnel-seed{seed}-n{n}": (lambda work, seed=seed, n=n: _funnel_digests(work, seed, n))
       for seed, n in FUNNEL_RUNS},
    "select-seed1": _select_digests,
}


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_pinned_digests(tmp_path, case):
    pinned = json.loads(MANIFEST.read_text())[case]
    assert CASES[case](tmp_path) == pinned


if __name__ == "__main__":
    import tempfile

    manifest = {}
    for name, compute in CASES.items():
        with tempfile.TemporaryDirectory() as work:
            manifest[name] = compute(Path(work))
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    sys.exit(0)
