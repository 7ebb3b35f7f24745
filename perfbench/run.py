"""claimkit benchmark: one workload per invocation, run from a checkout's root.

    python3 perfbench/run.py --workload {funnel,select,score} --seed N \
        --seconds S --trace {0,1}

Builds nothing: it imports claimkit from ./src. It writes its inputs, caches
and outputs under ./.perfbench/ and deletes them when it ends, keeping only
result files in ./.perfbench/results/. The last line of standard output is a
JSON object {correct, attempted, failed, metrics}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. See
perfbench/README.md for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
ENDPOINT_VARS = ("CLAIMKIT_JUDGE_ENDPOINT", "CLAIMKIT_EMBEDDING_ENDPOINT",
                 "CLAIMKIT_VERIFIER_ENDPOINT")
SETUP_SAMPLES = 21
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, {src!r})\n"
    "t = time.perf_counter()\n"
    "import claimkit, claimkit.cli\n"
    "print(time.perf_counter() - t)\n"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup() -> float:
    """Median time to import claimkit and claimkit.cli in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(src=str(SRC))],
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            fail(f"importing claimkit failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def snapshot(directory: Path) -> dict[str, tuple[int, int]]:
    if not directory.is_dir():
        return {}
    return {str(p.relative_to(directory)): (p.stat().st_size, p.stat().st_mtime_ns)
            for p in directory.rglob("*") if p.is_file()}


class JudgeServer:
    """The loopback judge in its own process, for the lifetime of a `with` block."""

    def __enter__(self):
        script = Path(__file__).with_name("judge_server.py")
        self.proc = subprocess.Popen([sys.executable, str(script)],
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline().strip()
        if not line.isdigit():
            self.__exit__()
            fail("judge server did not start")
        self.url = f"http://127.0.0.1:{line}"
        return self

    def stats(self, reset: bool = False) -> dict:
        """The server's counts since its last reset; reset=True starts a new count."""
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(self.url + ("/reset" if reset else "/stats"), timeout=10) as resp:
            return json.load(resp)

    def __exit__(self, *exc):
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def main() -> None:
    parser = argparse.ArgumentParser(description="claimkit benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "claimkit" / "cli.py").is_file():
        fail(f"no claimkit sources under {SRC}; run from the root of a claimkit checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in ENDPOINT_VARS:
        os.environ.pop(var, None)
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    # One BLAS thread: on a 2-core machine a second one made the same matrix
    # products take anywhere from 0.7x to 2.3x their single-thread time.
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

    import workloads  # imports numpy, so after the BLAS setting above

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    tracked_cache = ROOT / ".claimkit-cache"
    before = snapshot(tracked_cache)

    setup_s = measure_setup()
    sys.path.insert(0, str(SRC))
    import claimkit.cli  # noqa: F401  the package under test, from ./src

    if not Path(claimkit.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"claimkit was imported from {claimkit.cli.__file__}, not from {SRC}")

    base = ROOT / ".perfbench"
    workdir = base / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    results = base / "results"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare()
        if args.workload == "score":
            with JudgeServer() as judge:
                wl.judge_url = judge.url
                summary = measure(wl, args, spec, judge)
        else:
            summary = measure(wl, args, spec, None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if snapshot(tracked_cache) != before:
        summary["errors"].append("the run created or changed files under .claimkit-cache/")
    for line in summary["errors"][:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)

    if args.trace:
        values = summary["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            # 0 only when every pass failed, and then correct is false
            "cold_items_per_s": statistics.median(summary["cold_rates"] or [0.0]),
            "warm_items_per_s": statistics.median(summary["warm_rates"] or [0.0]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {"correct": not summary["errors"], "attempted": summary["attempted"],
              "failed": summary["failed"], "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(
        dict(result, rounds=summary["rounds"], setup_s=setup_s), indent=1) + "\n")
    print(json.dumps(result))


def measure(wl, args, spec: dict, judge) -> dict:
    """Rounds of one cold pass and wl.warm_passes warm passes until --seconds
    have passed. With --trace 1, rounds alternate untraced and traced."""
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    layer_names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_pct"]
    spans_path = ROOT / ".perfbench" / "results" / f"{wl.name}-seed{args.seed}-spans.jsonl"
    if tracer is not None:
        spans_path.unlink(missing_ok=True)
    errors: list[str] = []
    attempted = failed = 0
    reference: list[bytes] | None = None
    cold_rates, warm_rates, rounds, layer_rounds = [], [], [], []
    start = time.perf_counter()
    k = 0
    while k < (2 if tracer else 1) or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and k % 2 == 1
        rdir = wl.workdir / f"round-{k}"
        cache_dir = rdir / "cache"
        if traced:
            tracer.reset()
            if judge:
                judge.stats(reset=True)
            tracer.install()
        times, clean = [], []
        try:
            for p in range(1 + wl.warm_passes):
                outdir = rdir / f"pass-{p}"
                outdir.mkdir(parents=True)
                elapsed, errs = workloads.dispatch_timed(wl.argvs(outdir, cache_dir, p > 0))
                times.append(elapsed)
                attempted += 1
                if not errs:
                    try:
                        blobs = [f.read_bytes() for f in wl.outputs(outdir)]
                        if reference is None:
                            errs = wl.check(outdir)
                            reference = blobs
                        elif blobs != reference:
                            errs = ["outputs differ from the first pass's (cold vs warm, "
                                    "or traced vs untraced)"]
                    except (OSError, ValueError, LookupError, TypeError) as exc:
                        errs = [f"unreadable outputs: {exc!r}"]
                clean.append(not errs)
                if errs:
                    failed += 1
                    errors.extend(f"round {k} pass {p}: {e}" for e in errs)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layer_rounds.append(layer_metrics(layer_names, tracer,
                                              judge.stats() if judge else None))
            tracer.write_spans(spans_path, k)
        warm = times[1:]
        rounds.append({"round": k, "traced": traced, "cold_s": times[0], "warm_s": warm})
        if not traced:  # a pass that failed, maybe fast, gives no rate
            cold_rates.extend(wl.items / t for t, ok in zip(times[:1], clean[:1]) if ok)
            warm_rates.extend(wl.items / t for t, ok in zip(times[1:], clean[1:]) if ok)
        shutil.rmtree(rdir, ignore_errors=True)
        k += 1

    summary = {"errors": errors, "attempted": attempted, "failed": failed, "rounds": rounds,
               "cold_rates": cold_rates, "warm_rates": warm_rates}
    if tracer is not None:
        per_layer = {name: statistics.median(r[name] for r in layer_rounds)
                     for name in layer_names}
        plain = statistics.median(sum([r["cold_s"]] + r["warm_s"]) for r in rounds
                                  if not r["traced"])
        traced_t = statistics.median(sum([r["cold_s"]] + r["warm_s"]) for r in rounds
                                     if r["traced"])
        per_layer["trace.overhead_pct"] = 100.0 * (traced_t / plain - 1.0)
        summary["per_layer"] = per_layer
        (ROOT / ".perfbench" / "results" / f"{wl.name}-seed{args.seed}-layers.json").write_text(
            json.dumps({"layers": tracer.layer_table(), "counts": dict(tracer.counts),
                        "per_layer": per_layer}, indent=1, sort_keys=True) + "\n")
    return summary


def layer_metrics(names: list[str], tracer, judge_stats: dict | None) -> dict:
    """One traced round's per-layer figures. A metric named <span>_s is the
    total time of that span; other names are counts kept by the tracer,
    except the judge's two counts, which the loopback server keeps."""
    table = tracer.layer_table()
    m = {}
    for name in names:
        if name == "cache.get_s":  # lookups only, not DiskCache.put's re-read
            m[name] = tracer.top_level_time("cache.get", exclude_parent="cache.put")
        elif name in ("judge.requests", "judge.distinct_prompts"):
            m[name] = judge_stats[name.split(".")[1]] if judge_stats else 0
        elif name.endswith("_s"):
            m[name] = table.get(name[:-2], {}).get("total_s", 0.0)
        else:
            m[name] = tracer.counts.get(name, 0)
    return m


if __name__ == "__main__":
    main()
