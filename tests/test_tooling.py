"""The benchmark's tracer, which finds package functions by name."""

import importlib.util
from pathlib import Path

import claimkit

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_and_uninstalls_against_src():
    # perfbench/tracing.py wraps functions by module and attribute name, so a
    # rename in the package breaks `perfbench/run.py --trace 1`; it fails here.
    assert Path(claimkit.__file__).resolve().is_relative_to(ROOT / "src")
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

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
