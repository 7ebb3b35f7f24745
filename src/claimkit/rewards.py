"""The seven-signal reward ensemble, pseudo-labels, and group advantages.

Components: format, verification, question count, diversity, coverage,
necessity (4-state leave-one-out on the labeled path, binary flip test on
the unlabeled path), and joint multiplicative quality. All seven sum at
unit weight into one scalar per trace; an external trainer consumes the
group-normalized advantages.

Scoring runs in three steps, plan -> dispatch -> score, so that a whole
file of rollouts talks to its backends once. A `RewardPlan` lists what the
rollouts need from outside: every judge prompt, rendered once and keyed by
its template and slot values, and the questions of every rollout with two
or more of them, which the diversity reward embeds. No judge reply feeds
another prompt, so every rollout is planned before any call is sent.
`fetch_plan` dispatches a plan: one `judge_generate_many` call, which reads
the cache once per distinct prompt, calls the judge once per distinct miss
(concurrently over HTTP), stores each reply and returns one reply per
prompt in plan order, and one `embed` call over the distinct questions,
sent 64 texts per request, which returns one vector per question in order.
It returns backends that hold the replies and a unit vector per question.
Scoring then reads every verdict and vector from those, and calls no judge
or embedder and renders no prompt. `score_rollouts` runs the three steps
over parsed rollouts. `total_reward`, or a component, given backends
without fetched data plans and fetches its own.
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
    return _diversity(embed(list(questions), backend, cache))


def _diversity(vectors: np.ndarray) -> float:
    """The diversity reward of n >= 2 questions, given their (n, d) unit rows."""
    penalty = 0.0
    for i in range(1, len(vectors)):
        sims = vectors[:i] @ vectors[i]
        penalty += max(0.0, float(np.max(sims)))
    return -penalty / len(vectors)


# --- plan -> dispatch -------------------------------------------------------

Ask = tuple[TemplateId, dict[str, str]]  # (template, slot values)


def _coverage_slots(claim: str, answers: Sequence[str]) -> dict[str, str]:
    return {"answers": "\n".join(f"{i + 1}. {a}" for i, a in enumerate(answers)),
            "claim": claim}


def _leave_one_out(answers: Sequence[str]) -> list[list[str]]:
    return [[a for j, a in enumerate(answers) if j != i] for i in range(len(answers))]


def _quality_asks(claim: str, document: str, question: str, answer: str) -> list[Ask]:
    """Answerability and atomicity, plus correctness unless the answer abstains."""
    asks = [(TemplateId.ANSWERABILITY, {"document": document, "question": question}),
            (TemplateId.ATOMICITY_CHECKLIST, {"claim": claim, "question": question})]
    if not is_abstention(answer):
        asks.append((TemplateId.ANSWER_CORRECTNESS, {"document": document, "sentence": answer}))
    return asks


def _coverage_asks(claim: str, answers: Sequence[str]) -> list[Ask]:
    return [(TemplateId.COVERAGE_VERDICT, _coverage_slots(claim, answers))]


def _necessity_asks(claim: str, answers: Sequence[str]) -> list[Ask]:
    """Coverage on the full answer set and on each non-empty leave-one-out subset."""
    return _coverage_asks(claim, answers) + [
        (TemplateId.COVERAGE_VERDICT, _coverage_slots(claim, rest))
        for rest in _leave_one_out(answers) if rest
    ]


def _joint_asks(claim: str, document: str, qa_pairs: Sequence[tuple[str, str]]) -> list[Ask]:
    return [ask for question, answer in qa_pairs
            for ask in _quality_asks(claim, document, question, answer)]


class RewardPlan:
    """What a set of rollouts needs from the judge and the embedder, each item once.

    `prompts` maps each ask's key, (template, *slot values), to its rendered
    prompt; scoring looks replies up by that key and renders nothing.
    `questions` holds the texts to embed, in first-seen order.
    """

    def __init__(self) -> None:
        self.prompts: dict[tuple, str] = {}
        self.questions: dict[str, None] = {}

    def add_asks(self, asks: Iterable[Ask]) -> RewardPlan:
        for template, slots in asks:
            key = (template, *slots.values())
            if key not in self.prompts:
                self.prompts[key] = render_prompt(template, slots)
        return self

    def add_rollout(self, record: ClaimRecord, report: ParseReport) -> RewardPlan:
        """Everything `total_reward` asks about one rollout, the same for both
        supervision modes: per question answerability, atomicity and (unless
        the answer abstains) correctness; coverage on the full answer set and
        on each non-empty leave-one-out subset; and the questions, when there
        are two or more (diversity embeds no lone question)."""
        self.add_asks(_joint_asks(record.claim, record.evidence_text(),
                                  list(zip(report.questions, report.answers))))
        if report.answers:
            self.add_asks(_necessity_asks(record.claim, report.answers))
        if len(report.questions) > 1:
            self.questions.update(dict.fromkeys(report.questions))
        return self


@dataclass
class _Fetched(RewardBackends):
    """Backends plus what `fetch_plan` fetched: each judge reply under its
    ask key, and each question's unit vector."""

    replies: dict[tuple, str] = field(default_factory=dict)
    vectors: dict[str, np.ndarray] = field(default_factory=dict)


def fetch_plan(bk: RewardBackends, plan: RewardPlan) -> RewardBackends:
    """Fetch a plan's judge replies and question vectors in one dispatch; the
    returned backends score any rollout the plan covers with no further call."""
    requests = [(key[0].value, prompt) for key, prompt in plan.prompts.items()]
    replies = judge_generate_many(bk.judge, requests, bk.params, bk.cache)
    texts = list(plan.questions)
    vectors = embed(texts, bk.embedding, bk.cache)
    return _Fetched(bk.judge, bk.embedding, bk.cache, bk.params,
                    dict(zip(plan.prompts, replies)), dict(zip(texts, vectors)))


def _fetched(bk: RewardBackends, asks: Callable[..., list[Ask]], *args) -> _Fetched:
    """bk itself when it already holds fetched data, else bk plus the replies to asks(*args)."""
    return bk if isinstance(bk, _Fetched) else fetch_plan(bk, RewardPlan().add_asks(asks(*args)))


# --- judge-backed components -----------------------------------------------

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


def _ask(bk: _Fetched, template: TemplateId, slots: dict[str, str],
         flags: list[str] | None = None):
    """The parsed reply to one fetched ask. A judge parse error gives the
    template's fallback score and, when flags is given, appends its flag."""
    parse, fallback, flag = _READERS[template]
    reply = bk.replies[(template, *slots.values())]
    try:
        return parse(reply)
    except JudgeParseError:
        if flags is not None:
            flags.append(flag)
        return fallback


def _coverage_verdict(claim: str, answers: Sequence[str], bk: _Fetched,
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
    bk = _fetched(bk, _coverage_asks, claim, answers)
    verdict = _coverage_verdict(claim, answers, bk, flags)
    return int(verdict is ThreeWayVerdict.from_label(reference))


def _leave_one_out_verdicts(
    claim: str,
    answers: Sequence[str],
    bk: RewardBackends,
) -> tuple[ThreeWayVerdict | None, list[ThreeWayVerdict | None]]:
    """Coverage verdicts on the full answer set and on the set without each
    answer in turn; None where dropping the only answer leaves nothing to judge."""
    bk = _fetched(bk, _necessity_asks, claim, answers)
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
    bk = _fetched(bk, _joint_asks, claim, document, qa_pairs)
    terms: list[float] = []
    for question, answer in qa_pairs:
        term = 1.0
        for template, slots in _quality_asks(claim, document, question, answer):
            term *= _ask(bk, template, slots, flags)
        terms.append(term)
    return terms, sum(terms) / len(terms)


# --- composition ------------------------------------------------------------

Rollout = tuple[ClaimRecord, ParseReport, SupervisionMode]  # (record, parsed trace, mode)


def total_reward(
    record: ClaimRecord,
    trace_text: str,
    mode: SupervisionMode,
    bk: RewardBackends,
) -> RewardBreakdown:
    """Parse a trace and dispatch all seven components per supervision mode.

    Judge verdicts and question vectors come from bk's fetched data when it
    holds them (see `fetch_plan`); otherwise the rollout's plan is fetched
    first. Many rollouts score faster through `score_rollouts`.

    On the unlabeled path the verification reward is dropped (contributes 0),
    coverage scores against the group pseudo-label when one exists, and
    necessity falls back to the binary flip test.
    """
    (breakdown,) = score_rollouts([(record, parse_trace(trace_text), mode)], bk)
    return breakdown


def check_rollouts(rollouts: Sequence[Rollout]) -> None:
    """`score_rollouts`' check, which a caller may make before opening a cache."""
    for record, _, mode in rollouts:
        if record.silver_question_count is None:
            raise ValueError(f"record {record.id!r} has no silver_question_count; "
                             "question-count reward needs it")
        if isinstance(mode, Labeled) and mode.gold is None:
            raise ValueError("labeled mode requires a gold label")


def score_rollouts(rollouts: Sequence[Rollout], bk: RewardBackends) -> list[RewardBreakdown]:
    """`total_reward` of each parsed rollout, in order. Every rollout is
    checked and planned first, and the plan is fetched in one dispatch,
    unless bk already holds fetched data."""
    check_rollouts(rollouts)
    if not isinstance(bk, _Fetched):
        plan = RewardPlan()
        for record, report, _ in rollouts:
            plan.add_rollout(record, report)
        bk = fetch_plan(bk, plan)
    return [_score(record, report, mode, bk) for record, report, mode in rollouts]


def _score(record: ClaimRecord, report: ParseReport, mode: SupervisionMode,
           bk: _Fetched) -> RewardBreakdown:
    """All seven components of one checked rollout, from fetched data alone."""
    flags: list[str] = []

    fmt = format_reward(report)
    questions = report.questions
    answers = report.answers
    qa_pairs = list(zip(questions, answers))
    n = len(questions)
    document = record.evidence_text()

    if n >= 1:
        qc = question_count_reward(n, record.silver_question_count)
        div = _diversity(np.vstack([bk.vectors[q] for q in questions])) if n > 1 else 0.0
    else:
        qc = 0.0
        div = 0.0
        flags.append("no-questions")

    if qa_pairs:
        joint_pq, joint = joint_quality_reward(record.claim, document, qa_pairs, bk, flags)
    else:
        joint_pq, joint = [], 0.0

    labeled = isinstance(mode, Labeled)
    reference = mode.gold if labeled else mode.pseudo
    ver = float(verification_reward(report.verdict, mode.gold)) if labeled else 0.0
    if reference is not None and answers:
        cov = float(coverage_reward(record.claim, answers, reference, bk, flags))
    else:
        cov = 0.0
        if reference is None:  # only an unlabeled rollout lacks one
            flags.append("no-pseudo-label")
    if not answers:
        nec_pq, nec = [], 0.0
        flags.append("no-answers")
    elif labeled:
        nec_pq, nec = necessity_reward(record.claim, answers, mode.gold, bk)
    else:
        nec_pq, nec = necessity_reward_relative(record.claim, answers, bk)

    total = fmt + ver + qc + div + cov + nec + joint
    return RewardBreakdown(
        fmt=fmt, ver=ver, qc=qc, div=div, cov=cov, nec=nec, joint=joint,
        total=total, nec_per_question=nec_pq, joint_per_question=joint_pq,
        mode="labeled" if labeled else "unlabeled",
        pseudo_label=None if labeled else reference, flags=flags,
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
