"""Spans and counts around claimkit's layer functions, from outside the package.

`Tracer.install()` replaces each wrapped function where its callers look it
up (for example `claimkit.funnel.run.rule_filter`, or `DiskCache.get` on the
class) and `uninstall()` puts the originals back. A span records
(name, start, end, parent, thread); parents come from a per-thread stack,
so the `score-group` worker threads each get their own tree. Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter

# (module, attribute[.method], span name). One span name may cover several
# lookup sites of the same function.
SPAN_SITES = (
    ("claimkit.funnel.run", "ingest_claims", "corpus.ingest"),
    ("claimkit.cli", "ingest_claims", "corpus.ingest"),
    ("claimkit.funnel.run", "rule_filter", "funnel.rule_filter"),
    ("claimkit.funnel.run", "difficulty_filter", "funnel.difficulty_filter"),
    ("claimkit.funnel.run", "dedup_minhash", "funnel.dedup_minhash"),
    ("claimkit.funnel.run", "dedup_semantic", "funnel.dedup_semantic"),
    ("claimkit.funnel.run", "decontaminate", "funnel.decontaminate"),
    ("claimkit.funnel.run", "silver_stage", "funnel.silver_stage"),
    ("claimkit.funnel.run", "long_evidence_augment", "funnel.augment"),
    ("claimkit.funnel.shingling", "MinHasher.signature", "funnel.minhash_signature"),
    ("claimkit.funnel.run", "lazy_greedy", "funnel.lazy_greedy"),
    ("claimkit.cli", "lazy_greedy", "funnel.lazy_greedy"),
    ("claimkit.funnel.run", "allocate_budgets", "funnel.allocate_budgets"),
    ("claimkit.cli", "allocate_budgets", "funnel.allocate_budgets"),
    ("claimkit.backends.cache", "DiskCache.get", "cache.get"),
    ("claimkit.backends.cache", "DiskCache.put", "cache.put"),
    ("claimkit.funnel.run", "embed", "embed"),
    ("claimkit.funnel.dedup", "embed", "embed"),
    ("claimkit.cli", "embed", "embed"),
    ("claimkit.rewards", "embed", "embed"),
    ("claimkit.mock", "HashEmbeddingBackend.embed_texts", "embed.backend"),
    ("claimkit.funnel.stages", "difficulty_score", "difficulty"),
    ("claimkit.funnel.stages", "judge_generate", "judge_generate"),
    ("claimkit.rewards", "judge_generate", "judge_generate"),
    ("claimkit.backends.judges", "HttpJudgeBackend.generate", "judge.round_trip"),
    ("claimkit.mock", "HashJudgeBackend.generate", "judge.round_trip"),
    ("claimkit.cli", "parse_trace", "trace.parse"),
    ("claimkit.rewards", "parse_trace", "trace.parse"),
    ("claimkit.cli", "total_reward", "rewards.total_reward"),
    ("claimkit.rewards", "coverage_reward", "rewards.coverage"),
    ("claimkit.rewards", "necessity_reward", "rewards.necessity"),
    ("claimkit.rewards", "necessity_reward_relative", "rewards.necessity"),
    ("claimkit.rewards", "joint_quality_reward", "rewards.joint_quality"),
    ("claimkit.rewards", "diversity_reward", "rewards.diversity"),
)

# span name -> count of its calls
CALL_COUNTS = {"cache.put": "cache.put_calls", "difficulty": "difficulty.calls",
               "judge_generate": "judge_generate.calls"}

# Called too often for a span each: counted only.
COUNT_SITES = (
    ("claimkit.funnel.dedup", "exact_jaccard", "funnel.jaccard_pairs"),
)


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index or -1, thread id)
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple] = []

    # --- recording ------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _on_return(self, name: str, parent: int, args: tuple, result) -> None:
        """Counts taken at the span boundary, where the work happens."""
        if name == "cache.get":
            # DiskCache.put re-reads what it stored; that is write-path work.
            if parent < 0 or self.spans[parent][0] != "cache.put":
                self.counts["cache.get_calls"] += 1
                self.counts["cache.hits"] += result is not None
        elif name == "embed":
            self.counts["embed.calls"] += 1
            self.counts["embed.texts"] += len(args[0])
        elif name == "embed.backend":
            self.counts["embed.backend_texts"] += len(args[1])
        elif name in CALL_COUNTS:
            self.counts[CALL_COUNTS[name]] += 1

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            with self._lock:
                idx = len(self.spans)
                self.spans.append((name, 0.0, 0.0, parent, threading.get_ident()))
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[idx] = (name, start, end, parent, threading.get_ident())
            with self._lock:
                self._on_return(name, parent, args, result)
            return result
        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for sites, make in ((SPAN_SITES, self.span), (COUNT_SITES, self.counter)):
            for module, attr, name in sites:
                owner, key = _resolve(module, attr)
                original = owner.__dict__[key]
                self._saved.append((owner, key, original))
                setattr(owner, key, make(name, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # --- summaries ------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def layer_table(self) -> dict[str, dict]:
        """Per span name: calls, total time, and self time (total minus the
        time covered by child spans on the same thread)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict] = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return table

    def top_level_time(self, name: str, exclude_parent: str) -> float:
        """Total time of `name` spans whose parent is not an `exclude_parent` span."""
        return sum(end - start for n, start, end, parent, _ in self.spans
                   if n == name and (parent < 0 or self.spans[parent][0] != exclude_parent))

    def write_spans(self, path, round_index: int) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent, thread) in enumerate(self.spans):
                fh.write(json.dumps({"round": round_index, "i": i, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "thread": thread}) + "\n")
