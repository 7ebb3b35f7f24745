"""XML-delimited verification-trace grammar and a lenient parser.

Traces interleave <think>, <question>, <answer>, and a final <verification>
block. The parser is total: arbitrary bytes in, a fixed 10-entry condition
checklist out. Structural failure is data (a false condition), not an error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .corpus import Label

KNOWN_TAGS = ("think", "question", "answer", "verification")

# Fixed checklist; the format reward is the satisfied fraction.
CONDITION_IDS = (
    "has_think",
    "think_before_question",
    "has_question",
    "qa_counts_equal",
    "qa_alternation",
    "one_verification",
    "valid_verdict",
    "well_nested",
    "nothing_after_verdict",
    "min_two_cycles",
)

# Conditions that must hold for a Trace object to be reconstructable.
_RECONSTRUCTION_CONDITIONS = CONDITION_IDS[:8]

_TAG_TOKEN = re.compile(r"</?(think|question|answer|verification)>")
_BLOCK = re.compile(
    r"<(think|question|answer|verification)>(.*?)</\1>", re.DOTALL
)


@dataclass
class Cycle:
    question: str
    answer: str
    post_think: str | None = None


@dataclass
class Trace:
    initial_think: str
    cycles: list[Cycle]
    verdict: Label


@dataclass
class ParseReport:
    trace: Trace | None
    conditions: list[tuple[str, bool]]
    raw_verdict_text: str | None
    # Best-effort extraction for reward scoring on malformed traces.
    questions: list[str] = field(default_factory=list)
    answers: list[str] = field(default_factory=list)
    verdict: Label | None = None

    def satisfied_fraction(self) -> float:
        return sum(ok for _, ok in self.conditions) / len(self.conditions)


def _parse_verdict_label(text: str) -> Label | None:
    norm = text.strip().lower().rstrip(".")
    if norm == "supported":
        return Label.SUPPORTED
    if norm == "refuted":
        return Label.REFUTED
    return None


def parse_trace(text: str) -> ParseReport:
    """Parse arbitrary text against the trace grammar.

    Unknown tags are treated as free text. A Trace is returned only when the
    structural conditions needed to rebuild it all hold; the remaining two
    checklist entries (no trailing text, n >= 2) only affect the format score.
    """
    blocks = [(m.group(1), m.group(2), m.start(), m.end()) for m in _BLOCK.finditer(text)]
    tag_tokens = list(_TAG_TOKEN.finditer(text))

    # Well-nested: every known tag token belongs to exactly one matched,
    # non-overlapping block. Each block's own two tags are tag tokens, so a
    # tag token inside a block body would be one more than twice the blocks.
    well_nested = bool(blocks) and len(tag_tokens) == 2 * len(blocks)

    thinks = [(body, start) for name, body, start, _ in blocks if name == "think"]
    questions = [(body, start) for name, body, start, _ in blocks if name == "question"]
    answers = [(body, start) for name, body, start, _ in blocks if name == "answer"]
    verifications = [
        (body, start, end) for name, body, start, end in blocks if name == "verification"
    ]

    has_think = len(thinks) >= 1
    has_question = len(questions) >= 1
    think_before_question = (
        has_think and has_question and thinks[0][1] < questions[0][1]
    )
    qa_counts_equal = has_question and len(questions) == len(answers)

    # Strict Q->A alternation over the q/a subsequence, with non-empty content.
    # `blocks` is in start order, as `_BLOCK.finditer` yields it.
    qa_seq = [
        (("q" if name == "question" else "a"), body)
        for name, body, _, _ in blocks if name in ("question", "answer")
    ]
    alternation = bool(qa_seq) and len(qa_seq) % 2 == 0
    if alternation:
        for i, (kind, body) in enumerate(qa_seq):
            expected = "q" if i % 2 == 0 else "a"
            if kind != expected or not body.strip():
                alternation = False
                break

    one_verification = len(verifications) == 1
    raw_verdict_text = verifications[0][0] if verifications else None
    verdict = _parse_verdict_label(raw_verdict_text) if raw_verdict_text is not None else None
    valid_verdict = one_verification and verdict is not None

    nothing_after = False
    if verifications:
        tail = text[verifications[-1][2]:]
        nothing_after = not tail.strip()

    n_cycles = min(len(questions), len(answers))
    min_two_cycles = alternation and n_cycles >= 2

    cond_values = {
        "has_think": has_think,
        "think_before_question": think_before_question,
        "has_question": has_question,
        "qa_counts_equal": qa_counts_equal,
        "qa_alternation": alternation,
        "one_verification": one_verification,
        "valid_verdict": valid_verdict,
        "well_nested": well_nested,
        "nothing_after_verdict": nothing_after,
        "min_two_cycles": min_two_cycles,
    }
    conditions = [(cid, cond_values[cid]) for cid in CONDITION_IDS]

    trace = None
    if all(cond_values[cid] for cid in _RECONSTRUCTION_CONDITIONS):
        trace = _reconstruct(blocks, verdict)

    report = ParseReport(
        trace=trace,
        conditions=conditions,
        raw_verdict_text=raw_verdict_text,
        questions=[body.strip() for body, _ in questions if body.strip()],
        answers=[body.strip() for body, _ in answers if body.strip()],
        verdict=verdict if one_verification else None,
    )
    return report


def _reconstruct(blocks, verdict: Label) -> Trace:
    initial_think = ""
    cycles: list[Cycle] = []
    pending_q: str | None = None
    for name, body, _, _ in blocks:  # in start order
        if name == "think":
            if not cycles and pending_q is None:
                if not initial_think:
                    initial_think = body.strip()
            elif cycles and pending_q is None:
                if cycles[-1].post_think is None:
                    cycles[-1].post_think = body.strip()
        elif name == "question":
            pending_q = body.strip()
        elif name == "answer":
            if pending_q is not None:
                cycles.append(Cycle(question=pending_q, answer=body.strip()))
                pending_q = None
        elif name == "verification":
            break
    return Trace(initial_think=initial_think, cycles=cycles, verdict=verdict)


def render_trace(trace: Trace) -> str:
    """Serialize a Trace so that parse_trace round-trips it."""
    parts = [f"<think>{trace.initial_think}</think>"]
    for cycle in trace.cycles:
        parts.append(f"<question>{cycle.question}</question>")
        parts.append(f"<answer>{cycle.answer}</answer>")
        if cycle.post_think is not None:
            parts.append(f"<think>{cycle.post_think}</think>")
    parts.append(f"<verification>{trace.verdict.value}</verification>")
    return "\n\n".join(parts)


_ABSTENTION_PHRASES = ("i don't know", "i do not know")


def is_abstention(answer: str) -> bool:
    """True iff the answer signals inability to answer from the evidence."""
    norm = answer.strip().lower().replace("’", "'")
    return any(phrase in norm for phrase in _ABSTENTION_PHRASES)
