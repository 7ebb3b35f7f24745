"""The benchmark's tracer, which finds package functions by name."""

import importlib.util
from pathlib import Path

import claimkit
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
