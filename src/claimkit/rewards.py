"""The seven-signal reward ensemble, pseudo-labels, and group advantages.

Components: format, verification, question count, diversity, coverage,
necessity (4-state leave-one-out on the labeled path, binary flip test on
the unlabeled path), and joint multiplicative quality. All seven sum at
unit weight into one scalar per trace; an external trainer consumes the
group-normalized advantages.

The four judge-backed components score in three steps, plan -> dispatch ->
score. `plan_judge_requests` lists every judge prompt one rollout needs; no
judge reply feeds another prompt, so a whole file of rollouts can be planned
before any call is sent. `fetch_judge_replies` hands a plan to one
`judge_generate_many` call, which reads the cache once per distinct prompt,
calls the judge once per distinct miss (concurrently over HTTP) and stores
each reply, and returns backends that hold the replies. Scoring then reads
every verdict from those replies and calls no judge. A component, or
`total_reward`, given backends without replies plans and fetches its own.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

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
    judge_generate_many,
    parse_atomicity,
    parse_binary_answer,
    parse_verdict,
    prompt_digest,
    render_prompt,
)
# Unused here, but perfbench/tracing.py wraps this module-level name.
from .backends import judge_generate  # noqa: F401
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

JudgeRequest = tuple[TemplateId, str]  # (template, rendered prompt)


@dataclass
class _WithReplies(RewardBackends):
    """Backends plus the judge replies fetched for a plan, keyed as
    `judge_generate_many` keys them."""

    replies: dict[tuple[str, str], str] = field(default_factory=dict)


def fetch_judge_replies(bk: RewardBackends, requests: Iterable[JudgeRequest]) -> RewardBackends:
    """Fetch the replies to every request in one dispatch; the returned
    backends score any rollout whose prompts are among the requests."""
    replies = judge_generate_many(bk.judge, ((t.value, prompt) for t, prompt in requests),
                                  bk.params, bk.cache)
    return _WithReplies(bk.judge, bk.embedding, bk.cache, bk.params, replies)


def _fetched(bk: RewardBackends, plan: Callable[..., list[JudgeRequest]], *args) -> _WithReplies:
    """bk itself when it already holds fetched replies, else bk plus the replies to plan(*args)."""
    return bk if isinstance(bk, _WithReplies) else fetch_judge_replies(bk, plan(*args))


# template -> (reply parser, score on a parse error, flag for a parse error)
_READERS = {
    TemplateId.COVERAGE_VERDICT: (parse_verdict, None, "coverage-judge-parse-error"),
    TemplateId.ANSWERABILITY: (lambda r: float(parse_binary_answer(r)), 0.0,
                               "answerability-judge-parse-error"),
    TemplateId.ATOMICITY_CHECKLIST: (lambda r: parse_atomicity(r).fraction_passed(), 0.0,
                                     "atomicity-judge-parse-error"),
    TemplateId.ANSWER_CORRECTNESS: (lambda r: float(parse_binary_answer(r)), 0.0,
                                    "correctness-judge-parse-error"),
}


def _ask(bk: _WithReplies, template: TemplateId, slots: dict[str, str],
         flags: list[str] | None = None):
    """The parsed reply to one fetched prompt. A judge parse error gives the
    template's fallback score and, when flags is given, appends its flag."""
    parse, fallback, flag = _READERS[template]
    reply = bk.replies[(template.value, prompt_digest(render_prompt(template, slots)))]
    try:
        return parse(reply)
    except JudgeParseError:
        if flags is not None:
            flags.append(flag)
        return fallback


def _request(template: TemplateId, slots: dict[str, str]) -> JudgeRequest:
    return template, render_prompt(template, slots)


def _coverage_slots(claim: str, answers: Sequence[str]) -> dict[str, str]:
    return {"answers": "\n".join(f"{i + 1}. {a}" for i, a in enumerate(answers)),
            "claim": claim}


def _leave_one_out(answers: Sequence[str]) -> list[list[str]]:
    return [[a for j, a in enumerate(answers) if j != i] for i in range(len(answers))]


def _quality_asks(claim: str, document: str, question: str,
                  answer: str) -> list[tuple[TemplateId, dict[str, str]]]:
    """Answerability and atomicity, plus correctness unless the answer abstains."""
    asks = [(TemplateId.ANSWERABILITY, {"document": document, "question": question}),
            (TemplateId.ATOMICITY_CHECKLIST, {"claim": claim, "question": question})]
    if not is_abstention(answer):
        asks.append((TemplateId.ANSWER_CORRECTNESS, {"document": document, "sentence": answer}))
    return asks


def _coverage_plan(claim: str, answers: Sequence[str]) -> list[JudgeRequest]:
    return [_request(TemplateId.COVERAGE_VERDICT, _coverage_slots(claim, answers))]


def _necessity_plan(claim: str, answers: Sequence[str]) -> list[JudgeRequest]:
    """Coverage on the full answer set and on each non-empty leave-one-out subset."""
    return _coverage_plan(claim, answers) + [
        _request(TemplateId.COVERAGE_VERDICT, _coverage_slots(claim, rest))
        for rest in _leave_one_out(answers) if rest
    ]


def _joint_plan(claim: str, document: str,
                qa_pairs: Sequence[tuple[str, str]]) -> list[JudgeRequest]:
    return [_request(template, slots) for question, answer in qa_pairs
            for template, slots in _quality_asks(claim, document, question, answer)]


def plan_judge_requests(record: ClaimRecord, report: ParseReport) -> list[JudgeRequest]:
    """Every judge prompt `total_reward` asks about one rollout, in the order
    it asks them: per question answerability, atomicity and (unless the
    answer abstains) correctness; then coverage on the full answer set and on
    each non-empty leave-one-out subset. The same for both supervision modes."""
    requests = _joint_plan(record.claim, record.evidence_text(),
                           list(zip(report.questions, report.answers)))
    if report.answers:
        requests += _necessity_plan(record.claim, report.answers)
    return requests


def _coverage_verdict(claim: str, answers: Sequence[str], bk: _WithReplies,
                      flags: list[str] | None = None) -> ThreeWayVerdict | None:
    """The coverage judge on (answers, claim); None on a judge parse error."""
    return _ask(bk, TemplateId.COVERAGE_VERDICT, _coverage_slots(claim, answers), flags)


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
    bk = _fetched(bk, _coverage_plan, claim, answers)
    verdict = _coverage_verdict(claim, answers, bk, flags)
    return int(verdict is ThreeWayVerdict.from_label(reference))


def _leave_one_out_verdicts(
    claim: str,
    answers: Sequence[str],
    bk: RewardBackends,
) -> tuple[ThreeWayVerdict | None, list[ThreeWayVerdict | None]]:
    """Coverage verdicts on the full answer set and on the set without each
    answer in turn; None where dropping the only answer leaves nothing to judge."""
    bk = _fetched(bk, _necessity_plan, claim, answers)
    full = _coverage_verdict(claim, answers, bk)
    return full, [_coverage_verdict(claim, rest, bk) if rest else None
                  for rest in _leave_one_out(answers)]


# (full set reconstructs the target, set without the answer does) -> score
_NECESSITY = {(True, False): 1.0, (True, True): 0.5, (False, False): 0.0, (False, True): -1.0}


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
    full, loo = _leave_one_out_verdicts(claim, answers, bk)
    scores = [_NECESSITY[full is target, verdict is target] for verdict in loo]
    return scores, min(scores)


def necessity_reward_relative(
    claim: str,
    answers: Sequence[str],
    bk: RewardBackends,
) -> tuple[list[float], float]:
    """Label-free necessity: 1 iff dropping the answer flips the judge verdict."""
    if not answers:
        raise ValueError("necessity needs at least one answer")
    full, loo = _leave_one_out_verdicts(claim, answers, bk)
    scores = [float(verdict is not full) for verdict in loo]
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
    bk = _fetched(bk, _joint_plan, claim, document, qa_pairs)
    terms: list[float] = []
    for question, answer in qa_pairs:
        term = 1.0
        for template, slots in _quality_asks(claim, document, question, answer):
            term *= _ask(bk, template, slots, flags)
        terms.append(term)
    return terms, sum(terms) / len(terms)


# --- composition ------------------------------------------------------------


def total_reward(
    record: ClaimRecord,
    trace_text: str,
    mode: SupervisionMode,
    bk: RewardBackends,
) -> RewardBreakdown:
    """Parse a trace and dispatch all seven components per supervision mode.

    Judge verdicts come from bk's fetched replies when it holds them (see
    `fetch_judge_replies`); otherwise the rollout's plan is fetched first.

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
    bk = _fetched(bk, plan_judge_requests, record, report)
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
