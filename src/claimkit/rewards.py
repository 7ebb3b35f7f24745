"""The seven-signal reward ensemble, pseudo-labels, and group advantages.

Components: format, verification, question count, diversity, coverage,
necessity (4-state leave-one-out on the labeled path, binary flip test on
the unlabeled path), and joint multiplicative quality. All seven sum at
unit weight into one scalar per trace; an external trainer consumes the
group-normalized advantages.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .backends import (
    Cache,
    DecodingParams,
    EmbeddingBackend,
    JudgeBackend,
    JudgeParseError,
    TemplateId,
    ThreeWayVerdict,
    embed,
    judge_generate,
    parse_atomicity,
    parse_binary_answer,
    parse_verdict,
    render_prompt,
)
from .corpus import ClaimRecord, Label
from .trace import ParseReport, is_abstention, parse_trace

ADVANTAGE_EPS = 1e-6


@dataclass
class RewardBackends:
    """Everything trace scoring needs to talk to the outside world."""

    judge: JudgeBackend
    embedding: EmbeddingBackend
    cache: Cache
    params: DecodingParams = field(default_factory=DecodingParams)


@dataclass(frozen=True)
class Labeled:
    gold: Label


@dataclass(frozen=True)
class Unlabeled:
    pseudo: Label | None = None


SupervisionMode = Labeled | Unlabeled


@dataclass
class RewardBreakdown:
    fmt: float
    ver: float
    qc: float
    div: float
    cov: float
    nec: float
    joint: float
    total: float
    nec_per_question: list[float] = field(default_factory=list)
    joint_per_question: list[float] = field(default_factory=list)
    mode: str = "labeled"
    pseudo_label: Label | None = None
    flags: list[str] = field(default_factory=list)

    def to_json_obj(self, record_id: str) -> dict:
        obj = {
            "id": record_id,
            "fmt": self.fmt,
            "ver": self.ver,
            "qc": self.qc,
            "div": self.div,
            "cov": self.cov,
            "nec": self.nec,
            "nec_per_question": list(self.nec_per_question),
            "joint": self.joint,
            "joint_per_question": list(self.joint_per_question),
            "total": self.total,
            "mode": self.mode,
            "flags": list(self.flags),
        }
        if self.pseudo_label is not None:
            obj["pseudo_label"] = self.pseudo_label.value
        return obj


# --- deterministic components ---------------------------------------------


def format_reward(report: ParseReport) -> float:
    return report.satisfied_fraction()


def verification_reward(verdict: Label | None, gold: Label) -> int:
    """Outcome anchor: 1 iff the trace ends in the gold verdict. Missing
    verdict (truncated trace) scores 0."""
    return int(verdict is not None and verdict is gold)


def question_count_reward(n: int, n_star: int) -> float:
    """Triangular kernel on r = n / n_star: max(0, 1 - |r - 1|)."""
    if n < 1 or n_star < 1:
        raise ValueError("n and n_star must be positive")
    r = n / n_star
    return max(0.0, 1.0 - abs(r - 1.0))


def diversity_reward(
    questions: Sequence[str],
    backend: EmbeddingBackend,
    cache: Cache,
) -> float:
    """Redundancy penalty: -(1/n) * sum_{i>=2} max_{j<i} cos(q_i, q_j).

    Each term is floored at 0 similarity so anti-correlated questions never
    push the reward above 0; the declared range is [-1, 0].
    """
    n = len(questions)
    if n < 1:
        raise ValueError("need at least one question")
    if n == 1:
        return 0.0
    vectors = embed(list(questions), backend, cache)
    penalty = 0.0
    for i in range(1, n):
        sims = vectors[:i] @ vectors[i]
        penalty += max(0.0, float(np.max(sims)))
    return -penalty / n


# --- judge-backed components -----------------------------------------------


def _format_answers(answers: Sequence[str]) -> str:
    return "\n".join(f"{i + 1}. {a}" for i, a in enumerate(answers))


def _coverage_verdict(
    claim: str,
    answers: Sequence[str],
    bk: RewardBackends,
) -> ThreeWayVerdict | None:
    """Run the coverage judge on (answers, claim); None on a judge parse error."""
    prompt = render_prompt(
        TemplateId.COVERAGE_VERDICT,
        {"answers": _format_answers(answers), "claim": claim},
    )
    reply = judge_generate(bk.judge, prompt, bk.params, bk.cache,
                           template_id=TemplateId.COVERAGE_VERDICT.value)
    try:
        return parse_verdict(reply)
    except JudgeParseError:
        return None


def coverage_reward(
    claim: str,
    answers: Sequence[str],
    reference: Label,
    bk: RewardBackends,
    flags: list[str] | None = None,
) -> int:
    """1 iff the judge reconstructs the reference verdict from answers alone.

    NotEnoughInfo and judge parse errors both count as a failed
    reconstruction (the indicator is 2-way even though the judge is 3-way).
    """
    if not answers:
        raise ValueError("coverage needs at least one answer")
    verdict = _coverage_verdict(claim, answers, bk)
    if verdict is None and flags is not None:
        flags.append("coverage-judge-parse-error")
    return int(verdict is ThreeWayVerdict.from_label(reference))


def necessity_reward(
    claim: str,
    answers: Sequence[str],
    gold: Label,
    bk: RewardBackends,
) -> tuple[list[float], float]:
    """Leave-one-out 4-state necessity against the gold label.

    Per question: +1 necessary, +0.5 redundant, 0 neutral, -1 harmful.
    Trace score is the minimum, so one harmful question forfeits the reward.
    """
    if not answers:
        raise ValueError("necessity needs at least one answer")
    target = ThreeWayVerdict.from_label(gold)
    full = _coverage_verdict(claim, answers, bk)
    full_ok = full is target
    scores: list[float] = []
    for i in range(len(answers)):
        loo_answers = [a for j, a in enumerate(answers) if j != i]
        if loo_answers:
            loo = _coverage_verdict(claim, loo_answers, bk)
        else:
            loo = None  # dropping the only answer leaves nothing to judge
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


def necessity_reward_relative(
    claim: str,
    answers: Sequence[str],
    bk: RewardBackends,
) -> tuple[list[float], float]:
    """Label-free necessity: 1 iff dropping the answer flips the judge verdict."""
    if not answers:
        raise ValueError("necessity needs at least one answer")
    full = _coverage_verdict(claim, answers, bk)
    scores: list[float] = []
    for i in range(len(answers)):
        loo_answers = [a for j, a in enumerate(answers) if j != i]
        loo = _coverage_verdict(claim, loo_answers, bk) if loo_answers else None
        scores.append(float(loo is not full if (loo is not None or full is not None) else 0.0))
    return scores, min(scores)


def joint_quality_reward(
    claim: str,
    document: str,
    qa_pairs: Sequence[tuple[str, str]],
    bk: RewardBackends,
    flags: list[str] | None = None,
) -> tuple[list[float], float]:
    """Per-question answerability x atomicity x correctness, averaged.

    Abstaining answers drop the undefined correctness factor. A judge parse
    error zeroes that factor and flags it.
    """
    if not qa_pairs:
        raise ValueError("joint quality needs at least one cycle")
    terms: list[float] = []
    for question, answer in qa_pairs:
        ans_prompt = render_prompt(
            TemplateId.ANSWERABILITY, {"document": document, "question": question}
        )
        reply = judge_generate(bk.judge, ans_prompt, bk.params, bk.cache,
                               template_id=TemplateId.ANSWERABILITY.value)
        try:
            r_ans = float(parse_binary_answer(reply))
        except JudgeParseError:
            r_ans = 0.0
            if flags is not None:
                flags.append("answerability-judge-parse-error")

        atom_prompt = render_prompt(
            TemplateId.ATOMICITY_CHECKLIST, {"claim": claim, "question": question}
        )
        reply = judge_generate(bk.judge, atom_prompt, bk.params, bk.cache,
                               template_id=TemplateId.ATOMICITY_CHECKLIST.value)
        try:
            r_atom = parse_atomicity(reply).fraction_passed()
        except JudgeParseError:
            r_atom = 0.0
            if flags is not None:
                flags.append("atomicity-judge-parse-error")

        if is_abstention(answer):
            terms.append(r_ans * r_atom)
            continue

        corr_prompt = render_prompt(
            TemplateId.ANSWER_CORRECTNESS, {"document": document, "sentence": answer}
        )
        reply = judge_generate(bk.judge, corr_prompt, bk.params, bk.cache,
                               template_id=TemplateId.ANSWER_CORRECTNESS.value)
        try:
            r_corr = float(parse_binary_answer(reply))
        except JudgeParseError:
            r_corr = 0.0
            if flags is not None:
                flags.append("correctness-judge-parse-error")
        terms.append(r_ans * r_atom * r_corr)
    return terms, sum(terms) / len(terms)


# --- composition ------------------------------------------------------------


def total_reward(
    record: ClaimRecord,
    trace_text: str,
    mode: SupervisionMode,
    bk: RewardBackends,
) -> RewardBreakdown:
    """Parse a trace and dispatch all seven components per supervision mode.

    On the unlabeled path the verification reward is dropped (contributes 0),
    coverage scores against the group pseudo-label when one exists, and
    necessity falls back to the binary flip test.
    """
    if record.silver_question_count is None:
        raise ValueError(
            f"record {record.id!r} has no silver_question_count; question-count reward needs it"
        )
    if isinstance(mode, Labeled) and mode.gold is None:
        raise ValueError("labeled mode requires a gold label")

    report = parse_trace(trace_text)
    flags: list[str] = []

    fmt = format_reward(report)
    questions = report.questions
    answers = report.answers
    qa_pairs = list(zip(questions, answers))
    n = len(questions)
    document = record.evidence_text()

    if n >= 1:
        qc = question_count_reward(n, record.silver_question_count)
        div = diversity_reward(questions, bk.embedding, bk.cache)
    else:
        qc = 0.0
        div = 0.0
        flags.append("no-questions")

    if qa_pairs:
        joint_pq, joint = joint_quality_reward(record.claim, document, qa_pairs, bk, flags)
    else:
        joint_pq, joint = [], 0.0

    if isinstance(mode, Labeled):
        ver = float(verification_reward(report.verdict, mode.gold))
        if answers:
            cov = float(coverage_reward(record.claim, answers, mode.gold, bk, flags))
            nec_pq, nec = necessity_reward(record.claim, answers, mode.gold, bk)
        else:
            cov, nec_pq, nec = 0.0, [], 0.0
            flags.append("no-answers")
        pseudo = None
        mode_name = "labeled"
    else:
        ver = 0.0  # dropped on the unlabeled path
        pseudo = mode.pseudo
        if pseudo is not None and answers:
            cov = float(coverage_reward(record.claim, answers, pseudo, bk, flags))
        else:
            cov = 0.0
            if pseudo is None:
                flags.append("no-pseudo-label")
        if answers:
            nec_pq, nec = necessity_reward_relative(record.claim, answers, bk)
        else:
            nec_pq, nec = [], 0.0
            if "no-answers" not in flags and not answers:
                flags.append("no-answers")
        mode_name = "unlabeled"

    total = fmt + ver + qc + div + cov + nec + joint
    return RewardBreakdown(
        fmt=fmt, ver=ver, qc=qc, div=div, cov=cov, nec=nec, joint=joint,
        total=total, nec_per_question=nec_pq, joint_per_question=joint_pq,
        mode=mode_name, pseudo_label=pseudo, flags=flags,
    )


def pseudo_label(verdicts: Sequence[Label | None]) -> Label | None:
    """Majority vote over present verdicts; exact tie means no pseudo-label."""
    if not verdicts:
        raise ValueError("need at least one rollout verdict")
    supported = sum(1 for v in verdicts if v is Label.SUPPORTED)
    refuted = sum(1 for v in verdicts if v is Label.REFUTED)
    if supported > refuted:
        return Label.SUPPORTED
    if refuted > supported:
        return Label.REFUTED
    return None


def group_advantages(totals: Sequence[float]) -> list[float]:
    """GRPO-style group normalization: (r - mean) / (population std + eps)."""
    if len(totals) < 2:
        raise ValueError("need a group of at least 2 rollouts")
    arr = np.asarray(totals, dtype=np.float64)
    mean = arr.mean()
    std = arr.std()
    return list((arr - mean) / (std + ADVANTAGE_EPS))


def partition_supervision(
    claim_ids: Sequence[str],
    s: float,
    seed: int,
) -> dict[str, str]:
    """Stable per-claim labeled/unlabeled split at supervision rate s.

    Pure function of (id, seed): independent of input order, epochs, and
    worker counts.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError("supervision rate must be in [0, 1]")
    ids = list(claim_ids)
    if len(set(ids)) != len(ids):
        raise ValueError("claim ids must be unique")
    out: dict[str, str] = {}
    for cid in ids:
        digest = hashlib.sha256(f"{cid}\x00{seed}".encode("utf-8")).digest()
        u = int.from_bytes(digest[:8], "big") / 2**64
        out[cid] = "labeled" if u < s else "unlabeled"
    return out
