"""The benchmark's tracer, which finds package functions by name, and the
command lines the benchmark passes to the CLI."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import claimkit
from claimkit.cli import build_parser, dispatch
from claimkit.corpus import write_claims
from claimkit.funnel import FunnelConfig, run_funnel
from claimkit.synthetic import funnel_corpus, holdout_corpus

ROOT = Path(__file__).resolve().parents[1]

FUNNEL_STAGE_SPANS = {"funnel.rule_filter", "funnel.difficulty_filter", "funnel.dedup_minhash",
                      "funnel.dedup_semantic", "funnel.decontaminate", "funnel.silver_stage",
                      "funnel.augment"}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_and_uninstalls_against_src():
    # perfbench/tracing.py wraps functions by module and attribute name, so a
    # rename in the package breaks `perfbench/run.py --trace 1`; it fails here.
    assert Path(claimkit.__file__).resolve().is_relative_to(ROOT / "src")
    tracing = _load_tracing()

    tracer = tracing.Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert len(saved) == len(tracing.SPAN_SITES) + len(tracing.COUNT_SITES)
        for owner, key, original in saved:
            assert owner.__dict__[key].__wrapped__ is original
    finally:
        tracer.uninstall()
    for owner, key, original in saved:
        assert owner.__dict__[key] is original


def test_tracer_sees_every_funnel_stage(tmp_path):
    # The tracer patches the stage names in claimkit.funnel.run; a driver that
    # bound the stage functions before that would record no stage spans.
    records = funnel_corpus()
    write_claims(records, tmp_path / "claims.jsonl")
    write_claims(holdout_corpus(records), tmp_path / "holdout.jsonl")
    config = FunnelConfig(inputs=[str(tmp_path / "claims.jsonl")],
                          holdouts=[str(tmp_path / "holdout.jsonl")],
                          budget=10, cache_dir=str(tmp_path / "cache"))

    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        run_funnel(config)
    finally:
        tracer.uninstall()
    assert FUNNEL_STAGE_SPANS <= set(tracer.layer_table())


@pytest.mark.parametrize("workload", ["funnel", "select", "score"])
def test_benchmark_command_lines_parse(tmp_path, monkeypatch, workload):
    # perfbench/workloads.py passes flags to `claimkit.cli.dispatch`; a flag
    # removed from a command it runs would fail every benchmark pass.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    work = workloads.WORKLOADS[workload](1, tmp_path)
    work.prepare()
    work.judge_url = "http://127.0.0.1:9"
    parser = build_parser()
    for warm in (False, True):
        for argv in work.argvs(tmp_path / "out", tmp_path / "cache", warm):
            parser.parse_args(argv)


@pytest.mark.parametrize("workload", ["funnel", "select", "score"])
def test_benchmark_inputs_pass_a_dry_run(tmp_path, monkeypatch, capsys, workload):
    # A dry run makes every check of the real run, so a check that would
    # reject the benchmark's own inputs fails here, not in the benchmark.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    work = workloads.WORKLOADS[workload](1, tmp_path)
    work.prepare()
    work.judge_url = "http://127.0.0.1:9"
    for argv in work.argvs(tmp_path / "out", tmp_path / "cache", False):
        assert dispatch(argv + ["--dry-run"]) == 0, capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "cache").exists()


def _cold_then_warm(workloads, work, tmp_path):
    """One round as perfbench/run.py makes it: a cold pass into an empty cache,
    then a warm pass on what the cold pass stored. Each must pass the
    workload's own checks, and both must write the same bytes."""
    written = []
    for warm in (False, True):
        outdir = tmp_path / f"pass-{int(warm)}"
        outdir.mkdir()
        _, errors = workloads.dispatch_timed(work.argvs(outdir, tmp_path / "cache", warm))
        assert errors == []
        assert work.check(outdir) == []
        written.append([path.read_bytes() for path in work.outputs(outdir)])
    assert written[0] == written[1]


def test_benchmark_funnel_round_passes_its_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    work = workloads.WORKLOADS["funnel"](1, tmp_path)
    work.prepare()
    _cold_then_warm(workloads, work, tmp_path)


def test_benchmark_score_round_passes_its_checks(tmp_path, monkeypatch):
    # Both supervision modes, against the benchmark's own loopback judge,
    # which runs in its own process until the `with` block ends.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    workloads = importlib.import_module("workloads")
    run = importlib.import_module("run")
    work = workloads.WORKLOADS["score"](1, tmp_path)
    work.prepare()
    with run.JudgeServer() as judge:
        work.judge_url = judge.url
        _cold_then_warm(workloads, work, tmp_path)
