"""Curation funnel: shingling, dedup, budgets, selection, stages, end-to-end."""

import functools
import hashlib
import importlib.util
import itertools
import json
import random
import sqlite3
import string
import sys
from collections import Counter
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    PlantedEmbedding,
    RefEntityCounter,
    ref_farthest_point,
    ref_lazy_greedy,
    ref_naive_greedy,
    ref_semantic_removals,
    ref_tokenize,
)

from claimkit.backends import DecodingParams, DiskCache, MemoryCache, embed
from claimkit.corpus import (
    STOPWORDS,
    ClaimRecord,
    IngestError,
    Label,
    lexical_overlap,
    write_claims,
)
from claimkit.funnel import (
    FunnelConfig,
    FunnelReport,
    MinHasher,
    RuleThresholds,
    StageError,
    allocate_budgets,
    alt_select,
    decontaminate,
    dedup_minhash,
    dedup_semantic,
    difficulty_filter,
    estimate_jaccard,
    exact_jaccard,
    facility_location_value,
    lazy_greedy,
    long_evidence_augment,
    naive_greedy,
    rule_filter,
    run_funnel,
    select_stratified,
    shingle_set,
    silver_stage,
    stage_seed,
)
from claimkit.funnel import run as funnel_run
from claimkit.funnel import select, stages
from claimkit.funnel.stages import RULE_STATS_NAMESPACE, rule_stats
from claimkit.mock import HashEmbeddingBackend, HashJudgeBackend
from claimkit.synthetic import funnel_corpus, holdout_corpus


def rec(id, claim, source="src", label=Label.SUPPORTED, evidence=None):
    return ClaimRecord(id=id, claim=claim, evidence=evidence or ["evidence text"],
                       source=source, label=label)


class TestShingling:
    def test_hand_jaccard(self):
        a = frozenset({1, 2, 3})
        b = frozenset({2, 3, 4})
        assert exact_jaccard(a, b) == 0.5
        assert exact_jaccard(a, a) == 1.0
        assert exact_jaccard(a, frozenset({9})) == 0.0
        assert exact_jaccard(frozenset(), frozenset()) == 0.0

    def test_shingle_windows(self):
        # the lowercased 3-word windows themselves, edge punctuation stripped
        assert shingle_set("One two, three four") == {"one two three", "two three four"}

    def test_short_text_singleton(self):
        assert shingle_set("hi there") == {"hi there"}
        assert shingle_set("hi there") != shingle_set("bye now")

    def test_case_insensitive(self):
        assert shingle_set("One Two Three") == shingle_set("one two three")

    def test_signature_shape_and_determinism(self):
        hasher = MinHasher(seed=5)
        sig = hasher.signature(shingle_set("alpha beta gamma delta"))
        assert sig.shape == (128,)
        again = MinHasher(seed=5).signature(shingle_set("alpha beta gamma delta"))
        assert np.array_equal(sig, again)
        # Pinned: a signature signs each shingle's hash64 value, the value
        # the shingle itself was when shingles were stored hashed.
        assert sig[:3].tolist() == [1935840893830253017, 591350415106173700,
                                    881982575335978476]
        assert hashlib.sha256(sig.astype("<u8").tobytes()).hexdigest() == (
            "1ab89680abcdd6d1633062e21ebaa6152002585cdde27e31ac67e06dd4579d9a")

    def test_estimate_tracks_exact(self):
        hasher = MinHasher(seed=5)
        a = shingle_set("the quick brown fox jumps over the lazy dog again today")
        b = shingle_set("the quick brown fox jumps over the lazy cat again today")
        est = estimate_jaccard(hasher.signature(a), hasher.signature(b))
        assert abs(est - exact_jaccard(a, b)) <= 0.15


class TestDedupMinhash:
    def test_identical_second_removed(self):
        records = [rec("a", "the quick brown fox jumps over the fence"),
                   rec("b", "the quick brown fox jumps over the fence")]
        kept, removed = dedup_minhash(records)
        assert [r.id for r in kept] == ["a"]
        assert removed[0][1] == "near-duplicate-of:a"

    def test_mid_jaccard_pair_survives_exact_check(self):
        # shares words but exact shingle Jaccard < 0.7
        records = [rec("a", "alpha beta gamma delta epsilon zeta eta theta"),
                   rec("b", "alpha beta gamma delta nine ten eleven twelve")]
        a, b = shingle_set(records[0].claim), shingle_set(records[1].claim)
        assert exact_jaccard(a, b) < 0.7
        kept, _ = dedup_minhash(records)
        assert len(kept) == 2

    def test_idempotent(self):
        records = [rec(f"r{i}", f"claim number {i} about topic {i % 3} here today")
                   for i in range(20)]
        records.append(rec("dup", records[0].claim))
        kept, _ = dedup_minhash(records)
        again, removed = dedup_minhash(kept)
        assert [r.id for r in again] == [r.id for r in kept]
        assert removed == []

    def test_planted_pairs_at_075_all_removed(self):
        # Replacing the last 4 of 30 words leaves 24 of 28 shingles shared: J = 24/32.
        rng = random.Random(0)

        def word():
            return "".join(rng.choices(string.ascii_lowercase, k=8))

        records = []
        for p in range(200):
            words = [word() for _ in range(30)]
            records.append(rec(f"a{p}", " ".join(words)))
            records.append(rec(f"b{p}", " ".join(words[:26] + [word() for _ in range(4)])))
        for a, b in zip(records[::2], records[1::2]):
            assert exact_jaccard(shingle_set(a.claim), shingle_set(b.claim)) == 0.75
        kept, removed = dedup_minhash(records)
        assert [r.id for r in kept] == [f"a{p}" for p in range(200)]
        assert [why for _, why in removed] == [f"near-duplicate-of:a{p}" for p in range(200)]

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_boundary_070_removed(self, order):
        # 12 words give 10 shingles; the first 9 of them give 7 of those 10: J = 0.7.
        words = "one two three four five six seven eight nine ten eleven twelve".split()
        texts = (" ".join(words), " ".join(words[:9]))
        records = [rec(f"r{i}", texts[i]) for i in order]
        assert exact_jaccard(shingle_set(texts[0]), shingle_set(texts[1])) == 0.7
        kept, removed = dedup_minhash(records)
        assert [r.id for r in kept] == [f"r{order[0]}"]
        assert removed[0][1] == f"near-duplicate-of:r{order[0]}"


class TestDedupSemantic:
    def _emb(self):
        return PlantedEmbedding({
            "close one": [1.0, 0.0],
            "close two": [0.95, float(np.sqrt(1 - 0.95 ** 2))],
            "far away": [0.0, 1.0],
        })

    def test_threshold_rule(self):
        records = [rec("a", "close one"), rec("b", "close two"), rec("c", "far away")]
        kept, removed = dedup_semantic(records, self._emb(), MemoryCache())
        assert [r.id for r in kept] == ["a", "c"]
        assert removed[0][1] == "semantic-duplicate-of:a"

    def test_below_threshold_kept(self):
        emb = PlantedEmbedding({"x": [1.0, 0.0],
                                "y": [0.65, float(np.sqrt(1 - 0.65 ** 2))]})
        kept, _ = dedup_semantic([rec("a", "x"), rec("b", "y")], emb, MemoryCache())
        assert len(kept) == 2

    def test_boundary_inclusive(self):
        emb = PlantedEmbedding({"x": [1.0, 0.0],
                                "y": [0.70, float(np.sqrt(1 - 0.70 ** 2))]})
        kept, _ = dedup_semantic([rec("a", "x"), rec("b", "y")], emb, MemoryCache())
        assert [r.id for r in kept] == ["a"]


    def test_matches_per_record_gather_near_threshold(self):
        # later records sit at cosine 0.70 +- a few ulps from a random earlier one
        rng = np.random.default_rng(70)
        d = 16
        base = random_unit_rows(rng, 300, d)
        table = {}
        for i in range(600):
            if i < 300 or i % 3 == 0:
                v = base[i % 300]
            else:
                u = base[int(rng.integers(0, 300))]
                w = rng.standard_normal(d)
                w -= (w @ u) * u
                w /= np.linalg.norm(w)
                c = 0.70 + float(rng.choice([-2e-13, -1e-13, 0.0, 1e-13, 2e-13]))
                v = c * u + np.sqrt(1.0 - c * c) * w
            table[f"claim {i}"] = v
        texts = list(table)
        order = rng.permutation(len(texts))
        records = [rec(f"r{j:04d}", texts[j]) for j in order]
        emb = PlantedEmbedding(table)
        vectors = embed([r.claim for r in records], emb, MemoryCache())
        best = [max(vectors[:i] @ vectors[i]) for i in range(1, len(records))]
        assert sum(abs(b - 0.70) < 1e-12 for b in best) >= 50
        expected = ref_semantic_removals(vectors, [r.id for r in records])
        kept, removed = dedup_semantic(records, emb, MemoryCache())
        assert [(r.id, why) for r, why in removed] == expected
        assert len(kept) + len(removed) == len(records)


class TestDecontaminate:
    def test_both_predicates(self):
        emb = PlantedEmbedding({
            "train near holdout": [0.92, float(np.sqrt(1 - 0.92 ** 2))],
            "totally different words entirely": [0.5, float(np.sqrt(0.75))],
            "the exact same claim text here verbatim": [0.0, 1.0],
            "holdout anchor": [1.0, 0.0],
        })
        train = [rec("t1", "train near holdout"),
                 rec("t2", "totally different words entirely"),
                 rec("t3", "the exact same claim text here verbatim")]
        holdout = [rec("h1", "holdout anchor"),
                   rec("h2", "the exact same claim text here verbatim")]
        kept, removed = decontaminate(train, holdout, emb, MemoryCache())
        assert [r.id for r in kept] == ["t2"]
        reasons = dict((r.id, why) for r, why in removed)
        assert reasons["t1"].startswith("holdout-cosine")
        assert reasons["t3"].startswith("holdout-jaccard")

    def test_neither_threshold_crossed(self):
        emb = PlantedEmbedding({
            "alpha beta gamma delta epsilon zeta": [0.85, float(np.sqrt(1 - 0.85 ** 2))],
            "anchor claim": [1.0, 0.0],
        })
        train = [rec("t", "alpha beta gamma delta epsilon zeta")]
        kept, removed = decontaminate(train, [rec("h", "anchor claim")], emb, MemoryCache())
        assert [r.id for r in kept] == ["t"] and removed == []

    def test_empty_holdout_rejected(self):
        with pytest.raises(ValueError):
            decontaminate([rec("t", "x")], [], PlantedEmbedding({}), MemoryCache())

    def test_lowest_holdout_index_wins_and_jaccard_wins_tie(self):
        near = [0.95, float(np.sqrt(1 - 0.95 ** 2))]
        emb = PlantedEmbedding({
            "one two three four five six": [1.0, 0.0],
            "unrelated holdout words here": near,
            "seven eight nine ten eleven": [0.0, 1.0],
        })
        train = [rec("t1", "one two three four five six"),
                 rec("t2", "seven eight nine ten eleven")]
        holdout = [rec("h0", "unrelated holdout words here"),
                   rec("h1", "one two three four five six"),
                   rec("h2", "seven eight nine ten eleven")]
        _, removed = decontaminate(train, holdout, emb, MemoryCache())
        # t1: cosine with h0 comes before its Jaccard copy h1; t2: both predicates at h2
        assert [why for _, why in removed] == ["holdout-cosine:h0", "holdout-jaccard:h2"]


class BagOfWords:
    """Word-count vectors over a fixed vocabulary: similar word mixes embed close."""

    backend_id = "bag-of-words"

    def __init__(self, vocabulary):
        self.vocabulary = vocabulary

    def embed_texts(self, texts):
        return [[text.split().count(w) for w in self.vocabulary] for text in texts]


def colliding_claims(rng, vocabulary, n, bases=()):
    """Short claims over a tiny vocabulary, half of them edits of an earlier
    claim or of `bases`, so shingle sets overlap often."""
    out = []
    for _ in range(n):
        pool = out + list(bases)
        if pool and rng.random() < 0.5:
            words = rng.choice(pool).split()
            i = rng.randrange(len(words))
            edit = rng.choice(("drop", "swap", "add"))
            if edit == "drop" and len(words) > 1:
                del words[i]
            elif edit == "swap":
                words[i] = rng.choice(vocabulary)
            else:
                words.insert(i, rng.choice(vocabulary))
        else:
            words = rng.choices(vocabulary, k=rng.randint(1, 9))
        out.append(" ".join(words))
    return out


def reference_dedup(records):
    kept, removed = [], []
    for r in records:
        s = shingle_set(r.claim)
        hit = next((k for k in kept if exact_jaccard(s, shingle_set(k.claim)) >= 0.7), None)
        if hit is None:
            kept.append(r)
        else:
            removed.append((r, f"near-duplicate-of:{hit.id}"))
    return kept, removed


def reference_decontaminate(train, holdout, backend, cache):
    sims = (embed([r.claim for r in train], backend, cache)
            @ embed([r.claim for r in holdout], backend, cache).T)
    kept, removed = [], []
    for i, r in enumerate(train):
        reason = None
        for j, h in enumerate(holdout):
            if exact_jaccard(shingle_set(r.claim), shingle_set(h.claim)) >= 0.7:
                reason = f"holdout-jaccard:{h.id}"
                break
            if float(sims[i, j]) >= 0.90:
                reason = f"holdout-cosine:{h.id}"
                break
        if reason is None:
            kept.append(r)
        else:
            removed.append((r, reason))
    return kept, removed


class TestShingleJoinDifferential:
    VOCABULARY = "red blue green cat dog bird runs sits eats big small old".split()

    @staticmethod
    def _ids(result):
        kept, removed = result
        return [r.id for r in kept], [(r.id, why) for r, why in removed]

    @pytest.mark.parametrize("seed", range(12))
    def test_dedup_matches_brute_force(self, seed):
        rng = random.Random(seed)
        records = [rec(f"r{i}", c)
                   for i, c in enumerate(colliding_claims(rng, self.VOCABULARY, 150))]
        got = self._ids(dedup_minhash(records))
        assert got == self._ids(reference_dedup(records))
        assert got[1] and len(got[0]) > 20

    @pytest.mark.parametrize("seed", range(12))
    def test_decontaminate_matches_brute_force(self, seed):
        rng = random.Random(seed)
        hold_claims = colliding_claims(rng, self.VOCABULARY, 40)
        holdout = [rec(f"h{j}", c) for j, c in enumerate(hold_claims)]
        train = [rec(f"t{i}", c) for i, c in
                 enumerate(colliding_claims(rng, self.VOCABULARY, 120, bases=hold_claims))]
        emb = BagOfWords(self.VOCABULARY)
        got = self._ids(decontaminate(train, holdout, emb, MemoryCache()))
        assert got == self._ids(reference_decontaminate(train, holdout, emb, MemoryCache()))
        kinds = {why.split(":")[0] for _, why in got[1]}
        assert kinds == {"holdout-jaccard", "holdout-cosine"} and got[0]


class TestBudgets:
    def _pool(self, spec):
        out = []
        i = 0
        for (label, source), n in spec.items():
            for _ in range(n):
                out.append(rec(f"p{i}", f"claim {i}", source=source, label=label))
                i += 1
        return out

    def test_sqrt_proportional(self):
        pool = self._pool({(Label.SUPPORTED, "a"): 100, (Label.SUPPORTED, "b"): 400,
                           (Label.REFUTED, "a"): 100, (Label.REFUTED, "b"): 400})
        budget = allocate_budgets(pool, 60)
        assert budget.for_cell(Label.SUPPORTED, "a") == 10
        assert budget.for_cell(Label.SUPPORTED, "b") == 20
        assert budget.for_cell(Label.REFUTED, "a") == 10
        assert budget.for_cell(Label.REFUTED, "b") == 20
        assert sum(budget.per_cell.values()) == 60

    def test_odd_total_favors_supported(self):
        pool = self._pool({(Label.SUPPORTED, "a"): 60, (Label.REFUTED, "a"): 60})
        budget = allocate_budgets(pool, 101)
        supported = sum(v for (lbl, _), v in budget.per_cell.items()
                        if lbl is Label.SUPPORTED)
        refuted = budget.total - supported
        assert supported == 51 and refuted == 50

    def test_single_source_takes_all(self):
        pool = self._pool({(Label.SUPPORTED, "only"): 30, (Label.REFUTED, "only"): 30})
        budget = allocate_budgets(pool, 10)
        assert budget.for_cell(Label.SUPPORTED, "only") == 5

    def test_cell_cap_redistributes(self):
        pool = self._pool({(Label.SUPPORTED, "tiny"): 2, (Label.SUPPORTED, "big"): 100,
                           (Label.REFUTED, "big"): 100})
        budget = allocate_budgets(pool, 40)
        assert budget.for_cell(Label.SUPPORTED, "tiny") <= 2
        assert (budget.for_cell(Label.SUPPORTED, "tiny")
                + budget.for_cell(Label.SUPPORTED, "big")) == 20

    def test_budget_exceeding_pool_errors(self):
        pool = self._pool({(Label.SUPPORTED, "a"): 3, (Label.REFUTED, "a"): 3})
        with pytest.raises(ValueError):
            allocate_budgets(pool, 7)

    def test_unlabeled_pool_errors(self):
        pool = [rec("u", "c", label=None), rec("v", "c2", label=None)]
        with pytest.raises(ValueError):
            allocate_budgets(pool, 2)


def test_select_stratified_skips_a_cell_without_a_share():
    # Supported's one unit goes by sqrt population, 3 to 1, to "big"; the
    # "tiny" cell's share is 0, so it is neither embedded nor selected.
    pool = ([rec(f"s{i}", f"supported claim {i}", source="big") for i in range(9)]
            + [rec("t0", "tiny claim", source="tiny")]
            + [rec(f"r{i}", f"refuted claim {i}", source="big", label=Label.REFUTED)
               for i in range(9)])
    assert allocate_budgets(pool, 2).for_cell(Label.SUPPORTED, "tiny") == 0
    embedded = []

    class Recording(HashEmbeddingBackend):
        def embed_texts(self, texts):
            embedded.extend(texts)
            return super().embed_texts(texts)

    selected = select_stratified(pool, 2, "facility_location", 0, Recording(), MemoryCache())
    assert len(selected) == 2 and {r.source for r in selected} == {"big"}
    assert "tiny claim" not in embedded and len(embedded) == 18


def random_unit_rows(rng, n, d, nonnegative=False):
    X = rng.standard_normal((n, d))
    if nonnegative:
        X = np.abs(X)
    return X / np.linalg.norm(X, axis=1, keepdims=True)


class TestSelect:
    def test_lazy_equals_naive_small(self):
        rng = np.random.default_rng(0)
        X = random_unit_rows(rng, 12, 4)
        assert lazy_greedy(X, 5) == naive_greedy(X, 5)

    def test_k_equals_n_selects_all(self):
        rng = np.random.default_rng(1)
        X = random_unit_rows(rng, 6, 3)
        assert sorted(lazy_greedy(X, 6)) == list(range(6))

    def test_objective_nondecreasing(self):
        rng = np.random.default_rng(2)
        X = random_unit_rows(rng, 15, 4, nonnegative=True)
        order = lazy_greedy(X, 6)
        values = [facility_location_value(X, order[:i + 1]) for i in range(len(order))]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_tie_breaks_lowest_id(self):
        # two identical points: the lower id must win
        X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert naive_greedy(X, 1, ids=["b", "a", "z"]) == ["a"]
        assert lazy_greedy(X, 1, ids=["b", "a", "z"]) == ["a"]

    def test_random_reproducible(self):
        rng = np.random.default_rng(3)
        X = random_unit_rows(rng, 10, 3)
        assert alt_select(X, 4, "random", seed=9) == alt_select(X, 4, "random", seed=9)
        assert len(set(alt_select(X, 4, "random", seed=9))) == 4

    def test_farthest_point_picks_extremes(self):
        # three coplanar unit vectors: middle one bisects the extremes
        X = np.array([[1.0, 0.0],
                      [np.cos(np.pi / 4), np.sin(np.pi / 4)],
                      [0.0, 1.0]])
        picked = alt_select(X, 2, "farthest_point", seed=0)
        assert sorted(picked[1:] + [picked[0]])[:2] in ([0, 1], [0, 2]) or True
        # seed point maximizes total similarity (the middle), then the
        # farthest from it is either extreme
        assert picked[0] == 1
        assert picked[1] in (0, 2)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            alt_select(np.eye(3), 2, "kmeans", seed=0)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            lazy_greedy(np.eye(3), 4)


def planted_ties(rng, n, d):
    """Unit rows where every fifth row repeats an earlier one, so gains and
    distances tie exactly, under ids that are not in row order."""
    X = random_unit_rows(rng, n, d)
    for row in range(4, n, 5):
        X[row] = X[int(rng.integers(0, row))]
    ids = [f"id-{v:05d}" for v in rng.permutation(n)]
    return X, ids


def planted_near_ties(rng, n, d):
    """planted_ties, and every fifth row from the third on copies an earlier
    row with each coordinate moved by 1 to 4 ulp, so its gains come within a
    few ulp of the copied row's."""
    X, ids = planted_ties(rng, n, d)
    for row in range(2, n, 5):
        source = X[int(rng.integers(0, row))]
        ulps = rng.integers(1, 5, size=d) * rng.choice([-1, 1], size=d)
        X[row] = source + ulps * np.spacing(source)
    return X, ids


def select_benchmark_cells(monkeypatch, seed):
    """{label: (ids, X)} of the select benchmark's two 1500 x 32 cells."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)  # its dataclasses look it up
    spec.loader.exec_module(inputs)
    pool = inputs.select_pool(seed, 1500)
    cells = {}
    for label in inputs.LABELS:
        members = [r for r in pool if r["label"] == label]
        cells[label] = ([r["id"] for r in members],
                        embed([r["claim"] for r in members], HashEmbeddingBackend(), MemoryCache()))
    return cells


class TestSelectDifferential:
    """Row-reading, block-evaluated selection against the column-reading loops."""

    @pytest.mark.parametrize("n", [1, 31, 32, 33])
    def test_greedy_matches_reference_for_every_k(self, n):
        X, ids = planted_ties(np.random.default_rng(n), n, 6)
        for k in range(1, n + 1):
            expected = ref_lazy_greedy(X, k, ids)
            assert ref_naive_greedy(X, k, ids) == expected
            assert lazy_greedy(X, k, ids) == expected
            assert naive_greedy(X, k, ids) == expected

    def test_greedy_matches_reference_at_1500(self):
        # greedy picks do not depend on k, so every k's answer is a prefix of k = n's
        X, ids = planted_ties(np.random.default_rng(1500), 1500, 32)
        expected = ref_lazy_greedy(X, 1500, ids)
        assert ref_naive_greedy(X, 40, ids) == expected[:40]
        for k in (1, 2, 31, 32, 33, 300, 1499, 1500):
            assert lazy_greedy(X, k, ids) == expected[:k]
        for k in (1, 33, 40):
            assert naive_greedy(X, k, ids) == expected[:k]
        assert sorted(expected) == sorted(ids)

    @pytest.mark.parametrize("n", [1, 2, 31, 33, 200])
    def test_farthest_point_matches_reference(self, n):
        X, ids = planted_ties(np.random.default_rng(n + 7), n, 4)
        for k in sorted({1, min(2, n), n // 2 or 1, n}):
            assert alt_select(X, k, "farthest_point", seed=0, ids=ids) == \
                ref_farthest_point(X, k, ids)
        # exact ties in totals and in distances, broken toward the lowest id
        X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]] * 2)
        ids = ["h", "c", "f", "a", "d", "g", "b", "e"]
        assert alt_select(X, 8, "farthest_point", seed=0, ids=ids) == ref_farthest_point(X, 8, ids)

    def test_similarity_matrix_is_bitwise_symmetric(self, monkeypatch):
        # The row reads stand in for column reads only because X @ X.T is
        # exactly symmetric; checked on the select benchmark's own embeddings.
        for _, X in select_benchmark_cells(monkeypatch, 811).values():
            assert X.shape == (1500, 32)
            S = X @ X.T
            assert np.array_equal(S, S.T)

    def test_greedy_matches_reference_through_near_ties(self):
        # Exact ties and gains a few ulp apart are where an estimate that is
        # off by more than the screen allows would commit the wrong row.
        X, ids = planted_near_ties(np.random.default_rng(2024), 1500, 32)
        expected = ref_lazy_greedy(X, 1500, ids)
        # ref_naive_greedy takes about 20 s at k = n; a prefix anchors the heap
        # reference, which matches it for every k at n <= 33 above.
        assert ref_naive_greedy(X, 60, ids) == expected[:60]
        for k in (1, 2, 33, 300, 750, 1499, 1500):
            assert lazy_greedy(X, k, ids) == expected[:k]

    def test_float32_rows_match_naive(self):
        X, ids = planted_near_ties(np.random.default_rng(32), 400, 16)
        X = X.astype(np.float32)
        assert lazy_greedy(X, 400, ids) == naive_greedy(X, 400, ids)

    def test_screen_keeps_every_winner_at_the_full_error_bound(self):
        # Each estimate is off by the whole bound b in its worst direction:
        # rows 1 and 2 tie for the largest gain, row 1 reads high and row 2
        # low; row 3 trails by 2**-20 and reads high.
        b = 0.25
        gains = np.array([0.25, 1.0, 1.0, 1.0 - 2.0**-20])
        est = gains + np.array([b, b, -b, b])
        assert select._screen(est, b).tolist() == [1, 2, 3]

    def test_exact_gain_rows_stay_within_n_plus_2k(self, monkeypatch):
        # Exact gain rows are the work's regression signal on a noisy machine:
        # n in round 0, then about one per pick.
        gains, counted = select._gains, []

        def counting_gains(S, rows, coverage):
            counted.append(len(rows))
            return gains(S, rows, coverage)

        cells = select_benchmark_cells(monkeypatch, 1)
        monkeypatch.setattr(select, "_gains", counting_gains)
        for ids, X in cells.values():
            counted.clear()
            lazy_greedy(X, 300, ids)
            assert 1500 <= sum(counted) <= 1500 + 2 * 300


class TestStages:
    def _good_record(self):
        claim = "The botanist Elena Petrov moved to Oslo in 1921 and studied ferns."
        filler = ("archive records describe the period and letters mention "
                  "the relocation while newspapers covered the arrival in detail")
        evidence = [
            "Elena Petrov moved to Oslo in 1921 and studied ferns at the institute.",
            (filler + " ") * 6,
            (filler + " ") * 6,
        ]
        return ClaimRecord(id="g", claim=claim, evidence=evidence,
                           source="s", label=Label.SUPPORTED)

    def test_rule_filter_first_failing_reason(self):
        th = RuleThresholds()
        good = self._good_record()
        cases = [
            (ClaimRecord(id="p", claim=good.claim, evidence=good.evidence[:2],
                         source="s", label=Label.SUPPORTED), "too-few-passages"),
            (ClaimRecord(id="t", claim=good.claim,
                         evidence=["short.", "also short.", "tiny."],
                         source="s", label=Label.SUPPORTED), "too-short"),
            (ClaimRecord(id="o", claim=good.claim,
                         evidence=[good.claim] + list(good.evidence),
                         source="s", label=Label.SUPPORTED), "high-overlap"),
            (ClaimRecord(id="e", claim="someone moved somewhere once more.",
                         evidence=good.evidence, source="s",
                         label=Label.SUPPORTED), "too-few-entities"),
        ]
        records = [good] + [c for c, _ in cases]
        kept, rejected = rule_filter(records, th, MemoryCache())
        assert [r.id for r in kept] == ["g"]
        assert [(r.id, why) for r, why in rejected] == \
            [(c.id, why) for c, why in cases]

    def test_rule_filter_too_long(self):
        good = self._good_record()
        long_rec = ClaimRecord(id="L", claim=good.claim,
                               evidence=[("word " * 4000)] * 3,
                               source="s", label=Label.SUPPORTED)
        _, rejected = rule_filter([long_rec], RuleThresholds(), MemoryCache())
        assert rejected[0][1] == "too-long"

    def test_difficulty_band_inclusive(self):
        class Fixed:
            backend_id = "fixed"

            def __init__(self, p):
                self.p = p

            def probability_supported(self, claim, evidence):
                return self.p

        record = rec("r", "claim text")
        for p, keep in [(0.3, True), (0.5, True), (0.8, True),
                        (0.29, False), (0.81, False), (0.9, False)]:
            kept, rejected = difficulty_filter([record], Fixed(p), MemoryCache())
            assert bool(kept) is keep, p
            if not keep:
                assert rejected[0][1] == "difficulty-out-of-band"

    def test_silver_stage_counts_and_reasons(self):
        class Scripted:
            backend_id = "scripted-silver"

            def generate(self, prompt, params):
                if "unparsable" in prompt:
                    return "no questions at all"
                if "single" in prompt:
                    return "1. Only one question?"
                return "1. First question?\n2. Second question?\n3. Third question?"

        records = [rec("ok", "a normal claim"), rec("one", "a single claim"),
                   rec("bad", "an unparsable claim")]
        kept, rejected = silver_stage(records, Scripted(), MemoryCache(), DecodingParams())
        assert [r.id for r in kept] == ["ok"]
        assert kept[0].silver_question_count == 3
        reasons = dict((r.id, why) for r, why in rejected)
        assert reasons == {"one": "too-few-silver-questions", "bad": "silver-unparsable"}

    def test_augment_adds_long_unselected(self):
        long_rec = rec("long", "c1", evidence=["word " * 3500])
        short_rec = rec("short", "c2", evidence=["word " * 100])
        picked = rec("sel", "c3", evidence=["word " * 3500])
        # the counts augment reads are those the rule gate hands over
        evidence_tokens = {}
        rule_filter([long_rec, short_rec, picked], RuleThresholds(), MemoryCache(),
                    evidence_tokens)
        assert evidence_tokens == {"long": 3500, "short": 100, "sel": 3500}
        out = long_evidence_augment([long_rec, short_rec, picked], [picked], evidence_tokens)
        assert [r.id for r in out] == ["sel", "long"]
        # superset of the selection, no duplicates
        out2 = long_evidence_augment([picked], [picked], evidence_tokens)
        assert [r.id for r in out2] == ["sel"]


# The rule gate as it was before the evidence was tokenized once per record:
# the evidence text is rebuilt and tokenized by the counting gate and again
# by the overlap gate, with the reference tokenizer from conftest.
def ref_lexical_overlap(claim, evidence):
    claim_tokens = [t.lower() for t in ref_tokenize(claim)]
    if not claim_tokens:
        raise ValueError("claim must be non-empty")
    content = {t for t in claim_tokens if t not in STOPWORDS}
    if not content:
        content = set(claim_tokens)
    evidence_tokens = {t.lower() for t in ref_tokenize(evidence)}
    hit = sum(1 for t in content if t in evidence_tokens)
    return hit / len(content)


def ref_rule_violation(record, thresholds, ner):
    if len(record.evidence) < thresholds.min_passages:
        return "too-few-passages"
    tokens = len(ref_tokenize(record.evidence_text()))
    if tokens < thresholds.min_evidence_tokens:
        return "too-short"
    if tokens > thresholds.max_evidence_tokens:
        return "too-long"
    if ref_lexical_overlap(record.claim, record.evidence_text()) >= thresholds.max_lexical_overlap:
        return "high-overlap"
    if len(set(ner.entity_spans(record.claim))) < thresholds.min_entities:
        return "too-few-entities"
    return None


# Edge punctuation and punctuation-only tokens, ASCII and not: the tokenizer
# strips the first kind and drops the second.
EDGE_PUNCT = list(".,;:!?\"'()[]{}-") + ["\u00ab", "\u00bb", "\u201c", "\u201d", "\u00bf",
                                          "\u00a1", "\u2014", "\u2026", "\u3001", "\u3002"]
PUNCT_TOKENS = ["\u2014", "...", "\u00ab\u00bb", "\u00bf\u00a1", "--", "\u3002", "(!)"]


def punctuated(text, rng):
    words = []
    for word in text.split():
        if rng.random() < 0.3:
            word = rng.choice(EDGE_PUNCT) + word
        if rng.random() < 0.3:
            word += rng.choice(EDGE_PUNCT)
        words.append(word)
        if rng.random() < 0.1:
            words.append(rng.choice(PUNCT_TOKENS))
    return " ".join(words)


def padded(record, n_tokens, rng):
    """The record with three passages holding n_tokens tokens plus as many
    punctuation-only tokens: raw whitespace counts run far above the gates."""
    words = ref_tokenize(record.evidence_text())
    words = (words * (n_tokens // len(words) + 1))[:n_tokens]
    noisy = [w for word in words for w in (word, rng.choice(PUNCT_TOKENS))]
    third = len(noisy) // 3
    evidence = [" ".join(noisy[:third]), " ".join(noisy[third:2 * third]),
                " ".join(noisy[2 * third:])]
    return ClaimRecord(id=record.id, claim=record.claim, evidence=evidence,
                       source=record.source, label=record.label)


class TestRuleViolationDifferential:
    def test_matches_reference_on_corpus_and_punctuated_variants(self):
        th = RuleThresholds()
        records = differential_records(th)
        _, rejected = rule_filter(records, th, MemoryCache())
        reasons = {id(r): why for r, why in rejected}
        for record in records:
            assert reasons.get(id(record)) == ref_rule_violation(record, th, RefEntityCounter()), \
                record.id
            assert lexical_overlap(record.claim, record.evidence_text()) == \
                ref_lexical_overlap(record.claim, record.evidence_text()), record.id
        n = (len(records) - 4) // 2  # the corpus, as many variants, 4 padded records
        assert {reasons.get(id(r)) for r in records[n:2 * n]} == {
            None, "too-few-passages", "too-short", "too-long", "high-overlap",
            "too-few-entities"}
        assert [reasons.get(id(r)) for r in records[2 * n:]] == \
            ["too-short", None, None, "too-long"]


def differential_records(th):
    """The corpus, its punctuated variants and padded records at the token
    bounds: every rule reason, and tokens that strip to nothing."""
    rng = random.Random(5)
    base = funnel_corpus()
    variants = [
        ClaimRecord(id=r.id, claim=punctuated(r.claim, rng),
                    evidence=[punctuated(p, rng) for p in r.evidence],
                    source=r.source, label=r.label)
        for r in base
    ]
    clean = rule_filter(base, th, MemoryCache())[0][0]  # first kept
    edges = [th.min_evidence_tokens - 1, th.min_evidence_tokens,
             th.max_evidence_tokens, th.max_evidence_tokens + 1]
    return base + variants + [padded(clean, n, rng) for n in edges]


class TestCachedRuleStats:
    """`rule_filter` reads each record's stats through the cache; a warm run
    must reject exactly what the reference gate rejects, at any thresholds."""

    OTHER_THRESHOLDS = [
        RuleThresholds(min_passages=2, min_evidence_tokens=50, max_evidence_tokens=400,
                       max_lexical_overlap=0.5, min_entities=1),
        RuleThresholds(min_passages=4, min_evidence_tokens=300, max_evidence_tokens=20000,
                       max_lexical_overlap=1.0, min_entities=3),
    ]

    @pytest.fixture(scope="class")
    def records(self):
        return differential_records(RuleThresholds())

    def test_rule_filter_matches_reference_cold_and_warm(self, records):
        th = RuleThresholds()
        expected = [ref_rule_violation(r, th, RefEntityCounter()) for r in records]
        assert set(expected) == {None, "too-few-passages", "too-short", "too-long",
                                 "high-overlap", "too-few-entities"}
        cache = MemoryCache()
        for _ in ("cold", "warm"):
            kept, rejected = rule_filter(records, th, cache)
            reasons = {id(r): why for r, why in rejected}
            assert [reasons.get(id(r)) for r in records] == expected
            assert [id(r) for r in kept] == [id(r) for r, why in zip(records, expected)
                                             if why is None]

    def test_warm_run_with_changed_thresholds_equals_cold_run(self, records):
        cache = MemoryCache()
        rule_filter(records, RuleThresholds(), cache)
        for th in self.OTHER_THRESHOLDS:
            assert rule_filter(records, th, cache) == rule_filter(records, th, MemoryCache())

    def test_rerun_computes_no_stats(self, records, monkeypatch):
        computed = []
        row = stages._rule_stats_row
        monkeypatch.setattr(stages, "_rule_stats_row",
                            lambda claim, text: computed.append(claim) or row(claim, text))
        cache = MemoryCache()
        first = rule_filter(records, RuleThresholds(), cache)
        assert len(computed) == len({(r.claim, r.evidence_text()) for r in records})
        computed.clear()
        assert rule_filter(records, RuleThresholds(), cache) == first
        rule_filter(records, self.OTHER_THRESHOLDS[0], cache)
        assert computed == []

    def test_claim_without_tokens_fails_only_at_the_overlap_gate(self):
        passages = ["word " * 100] * 3
        tokenless = rec("x", "... \u2014 (!)", evidence=passages)
        too_short = rec("y", tokenless.claim, evidence=["word"] * 3)
        cache = MemoryCache()
        for _ in ("cold", "warm"):
            assert rule_filter([too_short], RuleThresholds(), cache) == \
                ([], [(too_short, "too-short")])
            with pytest.raises(ValueError, match="claim must be non-empty"):
                rule_filter([tokenless], RuleThresholds(), cache)

    def test_key_tells_claim_from_evidence(self):
        # Moving text across the claim/evidence boundary keeps
        # claim + evidence_text() but must change the key.
        a = rec("a", "Oslo is in Norway", evidence=["Oslo"])
        b = rec("b", "Oslo is in Norwa", evidence=["yOslo"])
        alone = rule_stats([a], MemoryCache()) + rule_stats([b], MemoryCache())
        assert alone[0] != alone[1]
        assert rule_stats([a, b], MemoryCache()) == alone

    def test_stats_row_is_pinned(self):
        # Stored rows outlive the code that wrote them. If this row changes,
        # the tokenizer, STOPWORDS or entity_spans changed, and the namespace
        # must be bumped with it, so that old rows are not read as new ones.
        record = rec("g", "The botanist Elena Petrov moved to Oslo, in 1921; \u00abshe\u00bb "
                          "studied FERNS \u2014 and \u039f\u0394\u039f\u03a3 ferns.",
                     evidence=["Elena Petrov (1890\u20131960) moved to Oslo.",
                               "She studied ferns at the institute \u2014 \u2026 "
                               "\u03bf\u03b4\u03bf\u03c2!",
                               "Zur\u00cdch? Oslo's ferns, (again)."])
        assert RULE_STATS_NAMESPACE == "rule-stats-v1"
        assert rule_stats([record], MemoryCache()) == [
            {"evidence_tokens": 17, "content_tokens": 9, "content_hits": 7, "entities": 4}]


class TestReport:
    def test_chain_validation(self):
        report = FunnelReport()
        report.add("a", 10, 8, [(rec("x", "c"), "why"), (rec("y", "c"), "why")])
        report.add("b", 8, 8)
        report.validate_chain()
        report.stages[1].input_count = 7
        with pytest.raises(ValueError):
            report.validate_chain()

    def test_growth_only_in_augment(self):
        report = FunnelReport()
        report.add("a", 5, 6)
        with pytest.raises(ValueError):
            report.validate_chain()
        report2 = FunnelReport()
        report2.add("select", 5, 3, [(rec("x", "c"), "not-selected"),
                                     (rec("y", "c"), "not-selected")])
        report2.add("augment", 3, 4)
        report2.validate_chain()

    def test_json_round_trip(self):
        report = FunnelReport()
        report.add("a", 10, 9, [(rec("x", "c"), "why:detail")])
        back = FunnelReport.from_json_obj(
            json.loads(json.dumps(report.to_json_obj())))
        assert back.to_json_obj() == report.to_json_obj()
        assert back.stages[0].rejections == {"why": 1}


_COUNTS = "config budget, seed and max_tokens must be integers"
_NAMES = "config file names and backend specs must be strings"
_LISTS = "config inputs and holdouts must be lists of file names"

# (config fields as a JSON file would hold them, the one ValueError message)
CONFIG_FAULTS = [
    ({"inputs": "claims.jsonl"}, _LISTS),
    ({"inputs": 5}, _LISTS),
    ({"holdouts": "holdout.jsonl"}, _LISTS),
    ({"inputs": []}, "config must name at least one input file"),
    ({"inputs": [3]}, _NAMES),
    ({"holdouts": [None]}, _NAMES),
    ({"cache_dir": 5}, _NAMES),
    ({"backends": "mock"}, "config backends must map backend names to string specs"),
    ({"backends": {"judge": 5}}, _NAMES),
    ({"backends": {"embeding": "mock"}}, "unknown backend 'embeding'"),
    ({"backends": {"ner": "http://127.0.0.1:9"}},
     "unsupported entity-counter spec 'http://127.0.0.1:9'"),
    ({"budget": 2.5}, _COUNTS),
    ({"budget": None}, _COUNTS),
    ({"seed": "3"}, _COUNTS),
    ({"max_tokens": True}, _COUNTS),
    ({"selector": "kmeans"}, "unknown selector 'kmeans'"),
    ({"thresholds": [3]}, "config thresholds must be a RuleThresholds (in JSON, an object)"),
    ({"thresholds": {"min_passages": "3"}}, "config threshold 'min_passages' must be a number"),
    ({"thresholds": {"min_entities": True}}, "config threshold 'min_entities' must be a number"),
]


@functools.cache
def _funnel_corpus():
    # Generated once and only read: generating it dominates these tests' setup.
    records = funnel_corpus()
    return records, holdout_corpus(records)


class TestRunFunnel:
    def _config(self, tmp_path, **overrides):
        records, holdout = _funnel_corpus()
        write_claims(records, tmp_path / "claims.jsonl")
        write_claims(holdout, tmp_path / "holdout.jsonl")
        base = dict(inputs=[str(tmp_path / "claims.jsonl")],
                    holdouts=[str(tmp_path / "holdout.jsonl")],
                    budget=10, seed=3, cache_dir=str(tmp_path / "cache"))
        base.update(overrides)
        return FunnelConfig(**base)

    def test_end_to_end_counts_chain(self, tmp_path):
        config = self._config(tmp_path)
        final, report = run_funnel(config)
        report.validate_chain()
        assert [s.name for s in report.stages] == [
            "rule_filter", "difficulty_filter", "dedup_minhash", "dedup_semantic",
            "decontaminate", "silver_decompose", "select", "augment"]
        assert report.stages[0].input_count == 200
        assert len(final) == report.stages[-1].output_count
        # every planted violation class shows up in the rule histogram
        assert set(report.stages[0].rejections) == {
            "too-few-passages", "too-short", "too-long",
            "high-overlap", "too-few-entities"}

    def test_warm_run_tokenizes_no_evidence_and_shingles_each_claim_once(
            self, tmp_path, monkeypatch):
        # Counts, not timings: a warm run reads the rule counts from the
        # cache and hands the evidence counts on to augment, and the two
        # shingle stages share one set per claim text.
        config = self._config(tmp_path)
        run_funnel(config)
        calls = {name: Counter() for name in ("count_tokens", "token_set", "shingle_set")}

        def counting(name, fn):
            def wrapper(text, *args):
                calls[name][text] += 1
                return fn(text, *args)
            return wrapper

        for module in [m for name, m in sys.modules.items() if name.startswith("claimkit")]:
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        dedup_input = []
        real_dedup = funnel_run.dedup_minhash
        monkeypatch.setattr(funnel_run, "dedup_minhash",
                            lambda pool, *args: real_dedup(dedup_input.extend(pool) or pool, *args))
        run_funnel(config)

        assert not calls["count_tokens"] and not calls["token_set"]
        claims = {r.claim for r in dedup_input + _funnel_corpus()[1]}
        shingled = calls["shingle_set"]
        assert shingled and set(shingled) <= claims and max(shingled.values()) == 1

    def test_deterministic_across_runs(self, tmp_path):
        config = self._config(tmp_path)
        first, _ = run_funnel(config)
        second, _ = run_funnel(config)
        assert [r.id for r in first] == [r.id for r in second]

    def test_each_fetch_stores_its_misses_in_one_put_many(self, tmp_path):
        # Only `fetch_cached` calls the cache: one `get_many` per fetch, then
        # at most one `put_many`, of every miss, on a cold run and none on a
        # warm one. The rows are those of a cache that stores row by row.
        fetches = []  # per fetch, the row count of each put_many

        class Counting(DiskCache):
            def get_many(self, keys):
                fetches.append([])
                return super().get_many(keys)

            def put_many(self, items):
                items = list(items)
                fetches[-1].append(len(items))
                return super().put_many(items)

        class RowByRow(DiskCache):
            def put_many(self, items):
                stored = {}
                for item in items:
                    stored.update(super().put_many([item]))
                return stored

        def rows(config):
            with closing(sqlite3.connect(Path(config.cache_dir) / DiskCache.FILE_NAME)) as db:
                return sorted(db.execute("SELECT key, blob FROM responses"))

        config = self._config(tmp_path)
        cold, _ = run_funnel(config, open_cache=Counting)
        assert all(len(puts) <= 1 and 0 not in puts for puts in fetches)
        assert sum(map(sum, fetches)) == len(rows(config)) > 0
        fetches.clear()
        warm, _ = run_funnel(config, open_cache=Counting)
        assert fetches and not any(fetches) and warm == cold
        (tmp_path / "rows").mkdir()
        row_by_row = self._config(tmp_path / "rows")
        assert run_funnel(row_by_row, open_cache=RowByRow)[0] == cold
        assert rows(row_by_row) == rows(config)

    # (name looked up in claimkit.funnel.run, report name of its stage)
    @pytest.mark.parametrize("attr, stage", [
        ("rule_filter", "rule_filter"),
        ("difficulty_filter", "difficulty_filter"),
        ("dedup_minhash", "dedup_minhash"),
        ("dedup_semantic", "dedup_semantic"),
        ("decontaminate", "decontaminate"),
        ("silver_stage", "silver_decompose"),
        ("select_stratified", "select"),
    ])
    def test_stage_failure_names_the_stage(self, tmp_path, monkeypatch, attr, stage):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(f"claimkit.funnel.run.{attr}", boom)
        with pytest.raises(StageError) as err:
            run_funnel(self._config(tmp_path))
        assert err.value.stage == stage
        assert str(err.value) == f"stage {stage}: boom"

    def test_holdout_ingest_error_is_raised_as_it_is(self, tmp_path):
        # An input fault is no stage's failure: run_funnel raises what
        # ingest_claims raised, and an id read from an earlier holdout file
        # is a duplicate at its line in the later one.
        holdout = _funnel_corpus()[1]
        second = tmp_path / "second.jsonl"
        write_claims(holdout[2:3], second)
        config = self._config(tmp_path, holdouts=[str(tmp_path / "holdout.jsonl"), str(second)])
        with pytest.raises(IngestError) as err:
            run_funnel(config)
        assert str(err.value) == f"{second} line 1: duplicate id {holdout[2].id!r}"

    def test_inputs_and_holdouts_load_before_the_cache_opens(self, tmp_path, monkeypatch):
        # A bad holdout file fails the run before any cache or stage work, and
        # the cache opener is called last, at the config's cache_dir.
        ran, opened = [], []
        monkeypatch.setattr("claimkit.funnel.run.rule_filter", lambda *args: ran.append(args))
        config = self._config(tmp_path, holdouts=[str(tmp_path / "missing.jsonl")])
        with pytest.raises(FileNotFoundError) as err:
            run_funnel(config)
        assert str(err.value) == (
            f"[Errno 2] No such file or directory: '{tmp_path / 'missing.jsonl'}'")
        assert ran == [] and not (tmp_path / "cache").exists()

        class Stop(Exception):
            pass

        def stop(root):
            opened.append(root)
            raise Stop

        with pytest.raises(Stop):
            run_funnel(self._config(tmp_path), open_cache=stop)
        assert opened == [str(tmp_path / "cache")] and ran == []

    def test_config_built_in_code_is_completed(self, tmp_path):
        # A partial backends dict is merged into the defaults, as from a JSON
        # file, so the run needs no key it was not given.
        config = self._config(tmp_path, budget=10.0, backends={"embedding": "mock"})
        assert config.backends == {"judge": "mock", "embedding": "mock", "verifier": "mock"}
        assert config.budget == 10 and isinstance(config.budget, int)
        _, report = run_funnel(config)
        assert report.stages[-2].output_count == 10

    @pytest.mark.parametrize("fields, message", [
        ({"selector": "kmeans"}, "unknown selector 'kmeans'"),
        ({"inputs": []}, "config must name at least one input file"),
        ({"budget": 2.5}, "config budget, seed and max_tokens must be integers"),
        ({"seed": True}, "config budget, seed and max_tokens must be integers"),
        ({"backends": {"embeding": "mock"}}, "unknown backend 'embeding'"),
        ({"backends": {"ner": "http://127.0.0.1:9"}},
         "unsupported entity-counter spec 'http://127.0.0.1:9'"),
        ({"backends": {"judge": 5}}, "config file names and backend specs must be strings"),
        ({"holdouts": [3]}, "config file names and backend specs must be strings"),
    ])
    def test_config_built_in_code_is_checked_when_built(self, fields, message):
        # These used to pass construction and fail inside run_funnel, some
        # only after every stage but select had run.
        with pytest.raises(ValueError) as err:
            FunnelConfig(**{"inputs": ["claims.jsonl"], "holdouts": [], "budget": 10, **fields})
        assert str(err.value) == message

    @pytest.mark.parametrize("fields, message", CONFIG_FAULTS)
    @pytest.mark.parametrize("source", ["code", "json"])
    def test_config_fault_has_one_message_from_code_and_json(self, tmp_path, source,
                                                              fields, message):
        # One check path: a fault a config file can hold is rejected by the
        # constructors, with one message, however the config is built.
        fields = {"inputs": ["claims.jsonl"], "holdouts": [], "budget": 10, **fields}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(fields))

        def build():
            if source == "json":
                return FunnelConfig.from_json_file(path)
            thresholds = fields.get("thresholds", {})
            if isinstance(thresholds, dict):  # what a file's thresholds object becomes
                thresholds = RuleThresholds(**thresholds)
            return FunnelConfig(**{**fields, "thresholds": thresholds})

        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda: FunnelConfig(inputs=["c.jsonl"], holdouts=[], budget=10,
                                          thresholds={"min_passages": 3}),
                     "config thresholds must be a RuleThresholds (in JSON, an object)",
                     id="thresholds-dict"),
        pytest.param(lambda: RuleThresholds(min_passages="3"),
                     "config threshold 'min_passages' must be a number",
                     id="threshold-string"),
        pytest.param(lambda: RuleThresholds(max_lexical_overlap=None),
                     "config threshold 'max_lexical_overlap' must be a number",
                     id="threshold-none"),
        pytest.param(lambda: FunnelConfig(inputs=["c.jsonl"], holdouts=[], budget=10,
                                          backends={1: "mock", "judge": "mock", "x": "mock"}),
                     "unknown backend 1",
                     id="backend-name-not-string"),
    ])
    def test_code_only_config_faults_fail_when_built(self, build, message):
        # A dict where a RuleThresholds belongs, or a string threshold, used
        # to pass construction and fail inside rule_filter; a backend name
        # that is not a string raised TypeError.
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    def test_run_without_holdouts_keeps_every_record_at_decontaminate(self, tmp_path):
        _, report = run_funnel(self._config(tmp_path, holdouts=[]))
        stage = next(s for s in report.stages if s.name == "decontaminate")
        assert stage.output_count == stage.input_count > 0 and stage.rejections == {}
        assert report.stages[-2].output_count == 10

    def test_selector_variants_run(self, tmp_path):
        for selector in ("random", "farthest_point"):
            config = self._config(tmp_path, selector=selector)
            final, report = run_funnel(config)
            report.validate_chain()
            assert len(final) >= 10

    def test_stage_seed_is_stable(self):
        assert stage_seed(3, "x") == stage_seed(3, "x")
        assert stage_seed(3, "x") != stage_seed(4, "x")
        assert stage_seed(3, "x") != stage_seed(3, "y")

    def test_config_built_in_code_takes_path_file_names(self):
        config = FunnelConfig(inputs=[Path("c.jsonl")], holdouts=[Path("h.jsonl")], budget=10)
        assert config.inputs == [Path("c.jsonl")] and config.holdouts == [Path("h.jsonl")]

    def test_config_file_backend_spec_must_be_a_string(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"inputs": ["x.jsonl"], "budget": 5,
                                    "backends": {"judge": 5}}))
        with pytest.raises(ValueError) as err:
            FunnelConfig.from_json_file(path)
        assert str(err.value) == "config file names and backend specs must be strings"

    def test_config_validation(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"inputs": ["x.jsonl"], "budget": 5,
                                    "selector": "kmeans"}))
        with pytest.raises(ValueError):
            FunnelConfig.from_json_file(path)
