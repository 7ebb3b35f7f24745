"""Per-record funnel stages: rule gates, difficulty band, silver decomposition,
and the long-evidence augmentation pass."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from ..backends import (
    Cache,
    DecodingParams,
    JudgeBackend,
    JudgeParseError,
    TemplateId,
    VerifierBackend,
    difficulty_scores,
    judge_generate_many,
    parse_question_list,
    render_prompt,
)
# Unused here, but perfbench/tracing.py wraps these module-level names.
from ..backends import difficulty_score, judge_generate  # noqa: F401
from ..corpus import (
    ClaimRecord,
    count_tokens,
    entity_count,
    overlap_with_tokens,
    tokenize,
)

DIFFICULTY_BAND = (0.3, 0.8)
LONG_EVIDENCE_TOKENS = 3000


def is_number(value) -> bool:
    """A JSON number: an int or a float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class StageError(RuntimeError):
    """A funnel stage failed; carries the stage name for the CLI error line."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


@dataclass(frozen=True)
class RuleThresholds:
    min_passages: int = 3
    min_evidence_tokens: int = 200
    max_evidence_tokens: int = 10000
    max_lexical_overlap: float = 0.9
    min_entities: int = 2

    def __post_init__(self):
        for f in fields(self):
            if not is_number(getattr(self, f.name)):
                raise ValueError(f"config threshold {f.name!r} must be a number")


def rule_violation(record: ClaimRecord, thresholds: RuleThresholds) -> str | None:
    """First failing rule for a record, or None when all gates pass.

    Token bounds apply to the concatenated evidence, the same text later
    stages decompose against. That text is tokenized once; the two length
    gates and the overlap gate share the token list.
    """
    if len(record.evidence) < thresholds.min_passages:
        return "too-few-passages"
    evidence = tokenize(record.evidence_text())
    if len(evidence) < thresholds.min_evidence_tokens:
        return "too-short"
    if len(evidence) > thresholds.max_evidence_tokens:
        return "too-long"
    if overlap_with_tokens(record.claim, evidence) >= thresholds.max_lexical_overlap:
        return "high-overlap"
    if entity_count(record.claim) < thresholds.min_entities:
        return "too-few-entities"
    return None


def _partition(outcomes: Iterable[tuple[ClaimRecord, str | None]]) -> tuple[list, list]:
    """Kept records (reason None) and (record, reason) rejections, in order."""
    kept, rejected = [], []
    for rec, reason in outcomes:
        if reason is None:
            kept.append(rec)
        else:
            rejected.append((rec, reason))
    return kept, rejected


def rule_filter(
    records: Sequence[ClaimRecord],
    thresholds: RuleThresholds,
) -> tuple[list[ClaimRecord], list[tuple[ClaimRecord, str]]]:
    return _partition((rec, rule_violation(rec, thresholds)) for rec in records)


def difficulty_filter(
    records: Sequence[ClaimRecord],
    verifier: VerifierBackend,
    cache: Cache,
) -> tuple[list[ClaimRecord], list[tuple[ClaimRecord, str]]]:
    """Keep records whose label-aligned verifier confidence lies in
    DIFFICULTY_BAND (inclusive): hard enough to teach, easy enough to learn from."""
    lo, hi = DIFFICULTY_BAND
    scores = difficulty_scores(records, verifier, cache)
    return _partition((rec, None if lo <= p <= hi else "difficulty-out-of-band")
                      for rec, p in zip(records, scores))


def _silver_prompt(record: ClaimRecord) -> str:
    return render_prompt(TemplateId.SILVER_DECOMPOSE,
                         {"evidence_doc": record.evidence_text(), "claim": record.claim})


def silver_stage(
    records: Sequence[ClaimRecord],
    judge: JudgeBackend,
    cache: Cache,
    params: DecodingParams,
) -> tuple[list[ClaimRecord], list[tuple[ClaimRecord, str]]]:
    """Ask the generation backend for each record's minimal question
    decomposition, all prompts in one `judge_generate_many`, and store its
    size as the record's n-star. A record whose reply does not parse, or
    that gets fewer than two questions, is rejected."""
    template = TemplateId.SILVER_DECOMPOSE.value

    def outcome(rec: ClaimRecord, reply: str) -> tuple[ClaimRecord, str | None]:
        try:
            n = len(parse_question_list(reply))
        except JudgeParseError:
            return rec, "silver-unparsable"
        return (rec.with_silver_count(n), None) if n >= 2 else (rec, "too-few-silver-questions")

    replies = judge_generate_many(judge, [(template, _silver_prompt(rec)) for rec in records],
                                  params, cache)
    return _partition([outcome(rec, reply) for rec, reply in zip(records, replies)])


def long_evidence_augment(
    pool: Sequence[ClaimRecord],
    selected: Sequence[ClaimRecord],
) -> list[ClaimRecord]:
    """Append every unselected pool record with >= LONG_EVIDENCE_TOKENS evidence tokens."""
    out = list(selected)
    have = {rec.id for rec in selected}
    for rec in pool:
        if rec.id not in have and count_tokens(rec.evidence_text()) >= LONG_EVIDENCE_TOKENS:
            out.append(rec)
            have.add(rec.id)
    return out
