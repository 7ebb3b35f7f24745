"""Seven-signal reward ensemble, pseudo-labels, advantages, supervision split."""

import json
import math

import numpy as np
import pytest
from conftest import PlantedEmbedding, ScriptedJudge, trace_texts
from hypothesis import given, settings
from test_acceptance import _random_trace

from claimkit import rewards
from claimkit.backends import (
    DecodingParams,
    JudgeParseError,
    MemoryCache,
    TemplateId,
    ThreeWayVerdict,
    judge_generate,
    parse_atomicity,
    parse_binary_answer,
    parse_verdict,
    prompt_digest,
    render_prompt,
)
from claimkit.backends.embeddings import EMBED_CHUNK
from claimkit.corpus import ClaimRecord, Label
from claimkit.mock import HashEmbeddingBackend, HashJudgeBackend
from claimkit.rewards import (
    Labeled,
    RewardBackends,
    RewardBreakdown,
    RewardPlan,
    Unlabeled,
    coverage_reward,
    diversity_reward,
    fetch_plan,
    format_reward,
    group_advantages,
    joint_quality_reward,
    necessity_reward,
    necessity_reward_relative,
    partition_supervision,
    pseudo_label,
    question_count_reward,
    total_reward,
    verification_reward,
)
from claimkit.trace import is_abstention, parse_trace


def make_backends(judge=None, embedding=None):
    return RewardBackends(
        judge=judge or ScriptedJudge(),
        embedding=embedding or HashEmbeddingBackend(),
        cache=MemoryCache(),
        params=DecodingParams(),
    )


VALID_TRACE = (
    "<think>plan</think>\n"
    "<question>Did she move to Paris?</question>\n"
    "<answer>Yes, the document says Paris.</answer>\n"
    "<question>Was the year 1921?</question>\n"
    "<answer>Yes, 1921.</answer>\n"
    "<verification>Supported</verification>"
)


def make_record(n_star=2):
    return ClaimRecord(id="r1", claim="Alice moved to Paris in 1921.",
                       evidence=["Alice moved to Paris in 1921 and stayed."],
                       source="test", label=Label.SUPPORTED,
                       silver_question_count=n_star)


class TestFormatAndVerification:
    def test_format_is_condition_fraction(self):
        assert format_reward(parse_trace(VALID_TRACE)) == 1.0
        assert format_reward(parse_trace(VALID_TRACE + " tail")) == 0.9
        assert format_reward(parse_trace("")) == 0.0

    def test_verification(self):
        assert verification_reward(Label.SUPPORTED, Label.SUPPORTED) == 1
        assert verification_reward(Label.REFUTED, Label.SUPPORTED) == 0
        assert verification_reward(None, Label.SUPPORTED) == 0


class TestQuestionCount:
    @pytest.mark.parametrize("n, n_star, expected", [
        (3, 3, 1.0),
        (6, 3, 0.0),   # r = 2 vanishes
        (3, 2, 0.5),   # r = 1.5
        (1, 2, 0.5),   # r = 0.5, symmetric
        (9, 3, 0.0),   # beyond r = 2 stays clamped
    ])
    def test_kernel(self, n, n_star, expected):
        assert question_count_reward(n, n_star) == pytest.approx(expected, abs=1e-15)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            question_count_reward(0, 3)
        with pytest.raises(ValueError):
            question_count_reward(3, 0)

    def test_kernel_symmetry(self):
        for n, n_star in [(1, 2), (3, 4), (5, 8)]:
            r = n / n_star
            mirror = 2 - r
            assert question_count_reward(n, n_star) == pytest.approx(
                max(0.0, 1.0 - abs(mirror - 1.0)), abs=1e-12)


class TestDiversity:
    def test_single_question_zero(self):
        assert diversity_reward(["only?"], HashEmbeddingBackend(), MemoryCache()) == 0.0

    def test_orthogonal_pair(self):
        emb = PlantedEmbedding({"a?": [1, 0, 0], "b?": [0, 1, 0]})
        assert diversity_reward(["a?", "b?"], emb, MemoryCache()) == 0.0

    def test_identical_pair(self):
        emb = PlantedEmbedding({"a?": [1, 0, 0]})
        assert diversity_reward(["a?", "a?"], emb, MemoryCache()) == pytest.approx(-0.5)

    def test_three_questions_running_max(self):
        c = math.sqrt(1 - 0.04)
        emb = PlantedEmbedding({
            "q1?": [1, 0, 0],
            "q2?": [0.2, c, 0],       # cos to q1 = 0.2
            "q3?": [0.2, 0, c],       # cos to q1 = 0.2, to q2 = 0.04
        })
        val = diversity_reward(["q1?", "q2?", "q3?"], emb, MemoryCache())
        assert val == pytest.approx(-0.4 / 3)

    def test_duplicate_never_increases(self):
        emb = PlantedEmbedding({"a?": [1, 0], "b?": [0, 1]})
        base = diversity_reward(["a?", "b?"], emb, MemoryCache())
        more = diversity_reward(["a?", "b?", "a?"], emb, MemoryCache())
        assert more < base

    def test_anticorrelated_clamped_at_zero(self):
        emb = PlantedEmbedding({"a?": [1, 0], "b?": [-1, 0]})
        assert diversity_reward(["a?", "b?"], emb, MemoryCache()) == 0.0


class TestCoverage:
    def test_match_and_mismatch(self):
        bk = make_backends(ScriptedJudge(coverage=lambda a: "Supported"))
        assert coverage_reward("c", ["a1"], Label.SUPPORTED, bk) == 1
        assert coverage_reward("c", ["a1"], Label.REFUTED, bk) == 0

    def test_nei_counts_as_mismatch(self):
        bk = make_backends(ScriptedJudge(coverage=lambda a: "Not Enough Information"))
        assert coverage_reward("c", ["a1"], Label.SUPPORTED, bk) == 0

    def test_parse_error_scores_zero_with_flag(self):
        bk = make_backends(ScriptedJudge(raw=lambda p: "malformed reply"))
        flags = []
        assert coverage_reward("c", ["a1"], Label.SUPPORTED, bk, flags) == 0
        assert flags == ["coverage-judge-parse-error"]

    def test_requires_answers(self):
        with pytest.raises(ValueError):
            coverage_reward("c", [], Label.SUPPORTED, make_backends())


class TestNecessity:
    def test_all_four_matrix_cells(self):
        # Supported iff "key" answer present AND "poison" answer absent.
        def cov(answers):
            if any("poison" in a for a in answers):
                return "Refuted"
            return "Supported" if any("key" in a for a in answers) else "Refuted"

        bk = make_backends(ScriptedJudge(coverage=cov))
        gold = Label.SUPPORTED

        # necessary: full correct, LOO without the key answer is wrong
        scores, trace = necessity_reward("c", ["key fact", "key fact too"], gold, bk)
        assert scores == [0.5, 0.5] and trace == 0.5  # redundant pair

        scores, trace = necessity_reward("c", ["key fact", "filler"], gold, bk)
        assert scores == [1.0, 0.5] and trace == 0.5  # necessary + redundant

        # neutral: full wrong and LOO wrong
        scores, trace = necessity_reward("c", ["filler", "more filler"], gold, bk)
        assert scores == [0.0, 0.0] and trace == 0.0

        # harmful: full wrong, dropping the poison makes it correct
        scores, trace = necessity_reward("c", ["key fact", "poison"], gold, bk)
        assert scores == [0.0, -1.0] and trace == -1.0

    def test_one_harmful_forfeits_trace(self):
        def cov(answers):
            return "Refuted" if any("poison" in a for a in answers) else "Supported"

        bk = make_backends(ScriptedJudge(coverage=cov))
        scores, trace = necessity_reward("c", ["good", "also good", "poison"],
                                         Label.SUPPORTED, bk)
        assert -1.0 in scores and trace == -1.0

    def test_permutation_invariant_per_question(self):
        def cov(answers):
            return "Supported" if any("key" in a for a in answers) else "Refuted"

        bk = make_backends(ScriptedJudge(coverage=cov))
        fwd, _ = necessity_reward("c", ["key fact", "filler"], Label.SUPPORTED, bk)
        rev, _ = necessity_reward("c", ["filler", "key fact"], Label.SUPPORTED, bk)
        assert fwd == list(reversed(rev))

    def test_relative_flip_rule(self):
        def cov(answers):
            return "Supported" if any("key" in a for a in answers) else "Refuted"

        bk = make_backends(ScriptedJudge(coverage=cov))
        scores, trace = necessity_reward_relative("c", ["key fact", "filler"], bk)
        assert scores == [1.0, 0.0] and trace == 0.0

    def test_relative_singleton(self):
        bk = make_backends(ScriptedJudge(coverage=lambda a: "Supported" if a else "Refuted"))
        # dropping the only answer leaves nothing: verdict None != Supported
        scores, trace = necessity_reward_relative("c", ["only"], bk)
        assert scores == [1.0] and trace == 1.0


class TestJointQuality:
    def test_worked_example_with_abstention(self):
        judge = ScriptedJudge()  # all factors positive
        bk = make_backends(judge)
        pairs = [("Q one?", "Yes, stated."), ("Q two?", "I don't know")]
        per_q, total = joint_quality_reward("claim", "doc", pairs, bk)
        assert per_q == [1.0, 1.0] and total == 1.0
        # the abstaining second question never consults the correctness judge
        assert judge.calls == ["answerability", "atomicity", "correctness",
                               "answerability", "atomicity"]

    def test_atomicity_fraction(self):
        judge = ScriptedJudge(atomicity=lambda q: (True, True, True, True, "two" not in q))
        bk = make_backends(judge)
        per_q, total = joint_quality_reward(
            "claim", "doc", [("one?", "a"), ("two?", "b")], bk)
        assert per_q == [1.0, 0.8] and total == pytest.approx(0.9)

    def test_zero_factor_absorbs(self):
        judge = ScriptedJudge(answerability=lambda q: 0 if "bad" in q else 1)
        bk = make_backends(judge)
        per_q, total = joint_quality_reward(
            "claim", "doc", [("bad q?", "a"), ("good q?", "b")], bk)
        assert per_q == [0.0, 1.0] and total == 0.5

    def test_parse_error_zeroes_factor_and_flags(self):
        def raw(prompt):
            if "Verification Rules" in prompt:
                return "no answer block"
            if "atomicity criteria" in prompt:
                return ("<answer>\nis_question:YES\nsingle_focus:YES\n"
                        "no_conjunctions:YES\nverifiable:YES\ngrounded:YES\n</answer>")
            return "<answer>1</answer>"

        bk = make_backends(ScriptedJudge(raw=raw))
        flags = []
        per_q, total = joint_quality_reward("claim", "doc", [("q?", "a")], bk, flags)
        assert per_q == [0.0]
        assert "correctness-judge-parse-error" in flags


class TestTotalReward:
    def test_labeled_additivity_and_ranges(self):
        bk = make_backends()
        b = total_reward(make_record(), VALID_TRACE, Labeled(Label.SUPPORTED), bk)
        assert b.total == b.fmt + b.ver + b.qc + b.div + b.cov + b.nec + b.joint
        assert b.fmt == 1.0 and b.ver == 1.0 and b.qc == 1.0
        assert b.cov == 1.0 and b.joint == 1.0
        assert -2.0 <= b.total <= 6.0  # component maxima sum to 6

    def test_unlabeled_drops_verification(self):
        bk = make_backends()
        b = total_reward(make_record(), VALID_TRACE, Unlabeled(Label.SUPPORTED), bk)
        assert b.ver == 0.0 and b.mode == "unlabeled"
        assert b.pseudo_label is Label.SUPPORTED
        assert b.cov == 1.0  # judge agrees with pseudo-label

    def test_unlabeled_without_pseudo_label(self):
        bk = make_backends()
        b = total_reward(make_record(), VALID_TRACE, Unlabeled(None), bk)
        assert b.cov == 0.0
        assert "no-pseudo-label" in b.flags

    def test_missing_silver_count_errors(self):
        rec = make_record()
        rec.silver_question_count = None
        with pytest.raises(ValueError):
            total_reward(rec, VALID_TRACE, Labeled(Label.SUPPORTED), make_backends())

    def test_garbage_trace_scores_zero_components(self):
        b = total_reward(make_record(), "just some prose", Labeled(Label.SUPPORTED),
                         make_backends())
        assert b.fmt == 0.0 and b.qc == 0.0 and b.div == 0.0
        assert b.joint == 0.0 and b.cov == 0.0 and b.nec == 0.0
        assert "no-questions" in b.flags

    def test_warm_cache_determinism(self):
        bk = make_backends()
        first = total_reward(make_record(), VALID_TRACE, Labeled(Label.SUPPORTED), bk)
        second = total_reward(make_record(), VALID_TRACE, Labeled(Label.SUPPORTED), bk)
        assert first == second


# --- the serial reference: one judge call at a time, as rewards were first scored ---


def _ref_coverage_verdict(claim, answers, bk):
    prompt = render_prompt(TemplateId.COVERAGE_VERDICT, {
        "answers": "\n".join(f"{i + 1}. {a}" for i, a in enumerate(answers)), "claim": claim})
    reply = judge_generate(bk.judge, prompt, bk.params, bk.cache,
                           template_id=TemplateId.COVERAGE_VERDICT.value)
    try:
        return parse_verdict(reply)
    except JudgeParseError:
        return None


def _ref_coverage(claim, answers, reference, bk, flags):
    verdict = _ref_coverage_verdict(claim, answers, bk)
    if verdict is None:
        flags.append("coverage-judge-parse-error")
    return int(verdict is ThreeWayVerdict.from_label(reference))


def _ref_necessity(claim, answers, gold, bk):
    target = ThreeWayVerdict.from_label(gold)
    full_ok = _ref_coverage_verdict(claim, answers, bk) is target
    scores = []
    for i in range(len(answers)):
        loo_answers = [a for j, a in enumerate(answers) if j != i]
        loo = _ref_coverage_verdict(claim, loo_answers, bk) if loo_answers else None
        loo_ok = loo is target
        if full_ok and not loo_ok:
            scores.append(1.0)
        elif full_ok and loo_ok:
            scores.append(0.5)
        elif not full_ok and not loo_ok:
            scores.append(0.0)
        else:
            scores.append(-1.0)
    return scores, min(scores)


def _ref_necessity_relative(claim, answers, bk):
    full = _ref_coverage_verdict(claim, answers, bk)
    scores = []
    for i in range(len(answers)):
        loo_answers = [a for j, a in enumerate(answers) if j != i]
        loo = _ref_coverage_verdict(claim, loo_answers, bk) if loo_answers else None
        scores.append(float(loo is not full if (loo is not None or full is not None) else 0.0))
    return scores, min(scores)


def _ref_factor(bk, template, slots, parse, flag, flags):
    reply = judge_generate(bk.judge, render_prompt(template, slots), bk.params, bk.cache,
                           template_id=template.value)
    try:
        return parse(reply)
    except JudgeParseError:
        flags.append(flag)
        return 0.0


def _ref_joint(claim, document, qa_pairs, bk, flags):
    terms = []
    for question, answer in qa_pairs:
        r_ans = _ref_factor(bk, TemplateId.ANSWERABILITY,
                            {"document": document, "question": question},
                            lambda r: float(parse_binary_answer(r)),
                            "answerability-judge-parse-error", flags)
        r_atom = _ref_factor(bk, TemplateId.ATOMICITY_CHECKLIST,
                             {"claim": claim, "question": question},
                             lambda r: parse_atomicity(r).fraction_passed(),
                             "atomicity-judge-parse-error", flags)
        if is_abstention(answer):
            terms.append(r_ans * r_atom)
            continue
        r_corr = _ref_factor(bk, TemplateId.ANSWER_CORRECTNESS,
                             {"document": document, "sentence": answer},
                             lambda r: float(parse_binary_answer(r)),
                             "correctness-judge-parse-error", flags)
        terms.append(r_ans * r_atom * r_corr)
    return terms, sum(terms) / len(terms)


def _ref_total_reward(record, trace_text, mode, bk):
    report = parse_trace(trace_text)
    flags = []
    fmt = format_reward(report)
    questions, answers = report.questions, report.answers
    qa_pairs = list(zip(questions, answers))
    n = len(questions)
    if n >= 1:
        qc = question_count_reward(n, record.silver_question_count)
        div = diversity_reward(questions, bk.embedding, bk.cache)
    else:
        qc = div = 0.0
        flags.append("no-questions")
    if qa_pairs:
        joint_pq, joint = _ref_joint(record.claim, record.evidence_text(), qa_pairs, bk, flags)
    else:
        joint_pq, joint = [], 0.0
    if isinstance(mode, Labeled):
        ver = float(verification_reward(report.verdict, mode.gold))
        if answers:
            cov = float(_ref_coverage(record.claim, answers, mode.gold, bk, flags))
            nec_pq, nec = _ref_necessity(record.claim, answers, mode.gold, bk)
        else:
            cov, nec_pq, nec = 0.0, [], 0.0
            flags.append("no-answers")
        pseudo, mode_name = None, "labeled"
    else:
        ver = 0.0
        pseudo = mode.pseudo
        if pseudo is not None and answers:
            cov = float(_ref_coverage(record.claim, answers, pseudo, bk, flags))
        else:
            cov = 0.0
            if pseudo is None:
                flags.append("no-pseudo-label")
        if answers:
            nec_pq, nec = _ref_necessity_relative(record.claim, answers, bk)
        else:
            nec_pq, nec = [], 0.0
            flags.append("no-answers")
        mode_name = "unlabeled"
    total = fmt + ver + qc + div + cov + nec + joint
    return RewardBreakdown(fmt=fmt, ver=ver, qc=qc, div=div, cov=cov, nec=nec, joint=joint,
                           total=total, nec_per_question=nec_pq, joint_per_question=joint_pq,
                           mode=mode_name, pseudo_label=pseudo, flags=flags)


class GarblingJudge(HashJudgeBackend):
    """The mock judge, with about one reply in four unparseable."""

    backend_id = "garbling-judge"

    def generate(self, prompt, params):
        return "no structured answer" if prompt_digest(prompt)[0] in "0123" else \
            super().generate(prompt, params)


class CountingJudge(HashJudgeBackend):
    def __init__(self):
        self.calls = 0

    def generate(self, prompt, params):
        self.calls += 1
        return super().generate(prompt, params)


class CountingEmbedding(HashEmbeddingBackend):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def embed_texts(self, texts):
        self.calls += 1
        return super().embed_texts(texts)


MODES = [Labeled(Label.SUPPORTED), Labeled(Label.REFUTED), Unlabeled(Label.SUPPORTED),
         Unlabeled(Label.REFUTED), Unlabeled(None)]
RECORD = ClaimRecord(id="diff", claim="Alice moved to Paris in 1921.",
                     evidence=["Alice moved to Paris in 1921."], source="diff",
                     label=Label.SUPPORTED, silver_question_count=3)


class TestPlanDispatchScore:
    @pytest.mark.parametrize("judge_cls", [HashJudgeBackend, GarblingJudge])
    def test_matches_serial_reference(self, judge_cls):
        rng = np.random.default_rng(101)
        new_bk = RewardBackends(judge_cls(), HashEmbeddingBackend(), MemoryCache())
        ref_bk = RewardBackends(judge_cls(), HashEmbeddingBackend(), MemoryCache())
        flagged = 0
        for _ in range(150):
            trace = _random_trace(rng)
            for mode in MODES:
                new = total_reward(RECORD, trace, mode, new_bk).to_json_obj(RECORD.id)
                ref = _ref_total_reward(RECORD, trace, mode, ref_bk).to_json_obj(RECORD.id)
                assert json.dumps(new) == json.dumps(ref)
                flagged += any(f.endswith("judge-parse-error") for f in new["flags"])
        assert flagged > 0 if judge_cls is GarblingJudge else flagged == 0

    def test_scoring_after_dispatch_calls_no_judge(self, monkeypatch):
        rng = np.random.default_rng(7)
        traces = [_random_trace(rng) for _ in range(60)]
        judge, embedding = CountingJudge(), CountingEmbedding()
        plan = RewardPlan()
        for trace in traces:
            plan.add_rollout(RECORD, parse_trace(trace))
        bk = fetch_plan(RewardBackends(judge, embedding, MemoryCache()), plan)
        fetched = (judge.calls, embedding.calls)
        assert judge.calls > 0
        assert embedding.calls == math.ceil(len(plan.questions) / EMBED_CHUNK) > 1
        renders = []
        monkeypatch.setattr(rewards, "render_prompt", lambda *args: renders.append(args))
        for trace in traces:
            for mode in MODES:
                total_reward(RECORD, trace, mode, bk)
        assert (judge.calls, embedding.calls, renders) == (*fetched, [])

    @settings(max_examples=200, deadline=None)
    @given(trace_texts)
    def test_plan_is_total(self, text):
        plan = RewardPlan().add_rollout(RECORD, parse_trace(text))
        for (template, *slot_values), prompt in plan.prompts.items():
            assert isinstance(template, TemplateId) and isinstance(prompt, str)
            assert all(isinstance(value, str) for value in slot_values)
        assert all(isinstance(question, str) for question in plan.questions)


class TestPseudoLabel:
    S, R = Label.SUPPORTED, Label.REFUTED

    def test_majority(self):
        assert pseudo_label([self.S] * 6 + [self.R] * 2) is self.S
        assert pseudo_label([self.R] * 8) is self.R

    def test_tie_is_none(self):
        assert pseudo_label([self.S] * 4 + [self.R] * 4) is None

    def test_absent_excluded(self):
        assert pseudo_label([self.S, None, None, self.R, self.R]) is self.R
        assert pseudo_label([None, None]) is None

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            pseudo_label([])

    def test_permutation_invariance(self):
        votes = [self.S, self.R, self.S, None, self.S, self.R, self.S, self.S]
        assert pseudo_label(votes) is pseudo_label(list(reversed(votes)))


class TestGroupAdvantages:
    def test_constant_group_is_zeros(self):
        assert group_advantages([1.0, 1.0, 1.0, 1.0]) == [0.0, 0.0, 0.0, 0.0]

    def test_two_point_group(self):
        a = group_advantages([0.0, 2.0])
        assert a[0] == pytest.approx(-1.0, abs=2e-6)
        assert a[1] == pytest.approx(1.0, abs=2e-6)

    def test_mean_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            totals = rng.normal(size=8).tolist()
            assert abs(sum(group_advantages(totals))) <= 1e-12 * 8

    def test_needs_two(self):
        with pytest.raises(ValueError):
            group_advantages([1.0])


class TestPartitionSupervision:
    def test_extremes(self):
        ids = [f"id-{i}" for i in range(100)]
        assert set(partition_supervision(ids, 1.0, 0).values()) == {"labeled"}
        assert set(partition_supervision(ids, 0.0, 0).values()) == {"unlabeled"}

    def test_order_independence(self):
        ids = [f"id-{i}" for i in range(500)]
        fwd = partition_supervision(ids, 0.5, 42)
        rev = partition_supervision(list(reversed(ids)), 0.5, 42)
        assert fwd == rev

    def test_seed_changes_split(self):
        ids = [f"id-{i}" for i in range(500)]
        assert partition_supervision(ids, 0.5, 1) != partition_supervision(ids, 0.5, 2)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            partition_supervision(["a", "a"], 0.5, 0)

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            partition_supervision(["a"], 1.5, 0)
