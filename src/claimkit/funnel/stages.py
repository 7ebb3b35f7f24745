"""Per-record funnel stages: rule gates, difficulty band, silver decomposition,
and the long-evidence augmentation pass."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

from ..backends import (
    Cache,
    CacheRecordError,
    DecodingParams,
    JudgeBackend,
    JudgeParseError,
    TemplateId,
    VerifierBackend,
    cache_key,
    difficulty_scores,
    judge_generate_many,
    parse_question_list,
    render_prompt,
)
from ..backends.transport import fetch_cached
# Unused here, but perfbench/tracing.py wraps these module-level names.
from ..backends import difficulty_score, judge_generate  # noqa: F401
from ..corpus import ClaimRecord, content_overlap, entity_count, token_set

DIFFICULTY_BAND = (0.3, 0.8)
LONG_EVIDENCE_TOKENS = 3000


def is_number(value) -> bool:
    """A JSON number: an int or a float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_count(value) -> bool:
    """A JSON whole number >= 0: an int, but not a bool."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


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


# The stats rows' cache namespace. The rows hold counts that the tokenizer,
# STOPWORDS and `entity_spans` define: a change to any of them must bump it.
RULE_STATS_NAMESPACE = "rule-stats-v1"
RULE_STATS_FIELDS = ("evidence_tokens", "content_tokens", "content_hits", "entities")


def _rule_stats_row(claim: str, evidence_text: str) -> dict:
    evidence, n_tokens = token_set(evidence_text)
    content, hits = content_overlap(claim, evidence)
    return {"evidence_tokens": n_tokens, "content_tokens": content, "content_hits": hits,
            "entities": entity_count(claim)}


def rule_stats(records: Sequence[ClaimRecord], cache: Cache) -> list[dict]:
    """For each record, the counts that the rule gates read:
    `evidence_tokens`, the claim's distinct `content_tokens` and how many of
    them the evidence holds (`content_hits`), and the claim's `entities`.

    They depend only on the claim and `evidence_text()`, so they are keyed
    by those two and fetched like embeddings: one `get_many`, the misses
    computed in one call and stored with one `put_many`. A stored row
    without every count raises CacheRecordError.
    """
    # Requests hold the records, not their evidence texts, so that no more
    # than one text is alive at a time.
    keys = [cache_key(RULE_STATS_NAMESPACE, [rec.claim, rec.evidence_text()], "claimkit")
            for rec in records]
    # No backend: the misses are computed in this thread.
    stored = fetch_cached(None, cache, zip(keys, records),
                          lambda batch: [_rule_stats_row(rec.claim, rec.evidence_text())
                                         for rec in batch],
                          chunk=max(len(keys), 1))
    for row in stored:
        if not (isinstance(row, dict) and all(is_count(row.get(f)) for f in RULE_STATS_FIELDS)):
            raise CacheRecordError("rule-stats", "does not hold every rule count as a "
                                   "whole number")
    return stored


def _first_violation(passages: int, stats: dict, thresholds: RuleThresholds) -> str | None:
    if passages < thresholds.min_passages:
        return "too-few-passages"
    if stats["evidence_tokens"] < thresholds.min_evidence_tokens:
        return "too-short"
    if stats["evidence_tokens"] > thresholds.max_evidence_tokens:
        return "too-long"
    if not stats["content_tokens"]:
        raise ValueError("claim must be non-empty")
    if stats["content_hits"] / stats["content_tokens"] >= thresholds.max_lexical_overlap:
        return "high-overlap"
    if stats["entities"] < thresholds.min_entities:
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
    cache: Cache,
    evidence_tokens: dict[str, int] | None = None,
) -> tuple[list[ClaimRecord], list[tuple[ClaimRecord, str]]]:
    """Keep the records that pass every rule gate; reject the others with
    their first failing rule. Token bounds apply to the concatenated
    evidence, the text later stages decompose against. The stats come
    through `rule_stats`, and the thresholds are applied after the read, so
    they stay out of its keys. A given `evidence_tokens` dict gains each
    record's id -> evidence token count, for `long_evidence_augment`."""
    stats = rule_stats(records, cache)
    if evidence_tokens is not None:
        evidence_tokens.update((rec.id, row["evidence_tokens"])
                               for rec, row in zip(records, stats))
    return _partition((rec, _first_violation(len(rec.evidence), row, thresholds))
                      for rec, row in zip(records, stats))


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
    evidence_tokens: Mapping[str, int],
) -> list[ClaimRecord]:
    """Append every unselected pool record with >= LONG_EVIDENCE_TOKENS evidence
    tokens. The counts, by record id, are the rule gate's: `rule_filter`
    fills `evidence_tokens` from `rule_stats`, so no evidence is tokenized here."""
    out = list(selected)
    have = {rec.id for rec in selected}
    for rec in pool:
        if rec.id not in have and evidence_tokens[rec.id] >= LONG_EVIDENCE_TOKENS:
            out.append(rec)
            have.add(rec.id)
    return out
