"""Per-record funnel stages: rule gates, difficulty band, silver decomposition,
and the long-evidence augmentation pass."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..backends import (
    Cache,
    DecodingParams,
    JudgeBackend,
    JudgeParseError,
    TemplateId,
    VerifierBackend,
    difficulty_score,
    judge_generate,
    parse_question_list,
    render_prompt,
)
from ..corpus import (
    ClaimRecord,
    EntityCounter,
    count_tokens,
    entity_count,
    overlap_with_tokens,
    tokenize,
)

DIFFICULTY_BAND = (0.3, 0.8)
LONG_EVIDENCE_TOKENS = 3000


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


def rule_violation(
    record: ClaimRecord,
    thresholds: RuleThresholds,
    ner: EntityCounter,
) -> str | None:
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
    if entity_count(record.claim, ner) < thresholds.min_entities:
        return "too-few-entities"
    return None


def rule_filter(
    records: Sequence[ClaimRecord],
    thresholds: RuleThresholds,
    ner: EntityCounter,
    pmap: Callable | None = None,
) -> tuple[list[ClaimRecord], list[tuple[ClaimRecord, str]]]:
    mapper = pmap or (lambda fn, xs: [fn(x) for x in xs])
    try:
        reasons = mapper(lambda rec: rule_violation(rec, thresholds, ner), records)
    except Exception as exc:
        raise StageError("rule_filter", str(exc)) from exc
    kept, rejected = [], []
    for rec, reason in zip(records, reasons):
        if reason is None:
            kept.append(rec)
        else:
            rejected.append((rec, reason))
    return kept, rejected


def difficulty_filter(
    records: Sequence[ClaimRecord],
    verifier: VerifierBackend,
    cache: Cache | None = None,
    band: tuple[float, float] = DIFFICULTY_BAND,
    pmap: Callable | None = None,
) -> tuple[list[ClaimRecord], list[tuple[ClaimRecord, str]]]:
    """Keep records whose label-aligned verifier confidence lies in the band
    (inclusive): hard enough to teach, easy enough to learn from."""
    mapper = pmap or (lambda fn, xs: [fn(x) for x in xs])
    lo, hi = band
    try:
        scores = mapper(lambda rec: difficulty_score(rec, verifier, cache), records)
    except Exception as exc:
        raise StageError("difficulty_filter", str(exc)) from exc
    kept, rejected = [], []
    for rec, p in zip(records, scores):
        if lo <= p <= hi:
            kept.append(rec)
        else:
            rejected.append((rec, "difficulty-out-of-band"))
    return kept, rejected


def silver_decompose(
    record: ClaimRecord,
    judge: JudgeBackend,
    cache: Cache,
    params: DecodingParams | None = None,
) -> ClaimRecord:
    """Ask the generation backend for the minimal question decomposition and
    store its size as the record's n-star. Unparsable replies raise."""
    params = params or DecodingParams()
    prompt = render_prompt(
        TemplateId.SILVER_DECOMPOSE,
        {"evidence_doc": record.evidence_text(), "claim": record.claim},
    )
    reply = judge_generate(judge, prompt, params, cache,
                           template_id=TemplateId.SILVER_DECOMPOSE.value)
    questions = parse_question_list(reply)
    return record.with_silver_count(len(questions))


def silver_stage(
    records: Sequence[ClaimRecord],
    judge: JudgeBackend,
    cache: Cache,
    params: DecodingParams | None = None,
    pmap: Callable | None = None,
) -> tuple[list[ClaimRecord], list[tuple[ClaimRecord, str]]]:
    mapper = pmap or (lambda fn, xs: [fn(x) for x in xs])

    def one(rec: ClaimRecord) -> ClaimRecord | None:
        try:
            return silver_decompose(rec, judge, cache, params)
        except JudgeParseError:
            return None

    try:
        results = mapper(one, records)
    except Exception as exc:
        raise StageError("silver_decompose", str(exc)) from exc
    kept, rejected = [], []
    for rec, updated in zip(records, results):
        if updated is None:
            rejected.append((rec, "silver-unparsable"))
        elif updated.silver_question_count >= 2:
            kept.append(updated)
        else:
            rejected.append((rec, "too-few-silver-questions"))
    return kept, rejected


def long_evidence_augment(
    pool: Sequence[ClaimRecord],
    selected: Sequence[ClaimRecord],
    min_tokens: int = LONG_EVIDENCE_TOKENS,
) -> list[ClaimRecord]:
    """Append every unselected pool record with >= min_tokens evidence tokens."""
    out = list(selected)
    have = {rec.id for rec in selected}
    for rec in pool:
        if rec.id not in have and count_tokens(rec.evidence_text()) >= min_tokens:
            out.append(rec)
            have.add(rec.id)
    return out
