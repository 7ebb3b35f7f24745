"""Claim corpus ingestion, label normalization, and text statistics.

The tokenizer here is deliberately dependency-free: split on Unicode
whitespace, strip leading/trailing punctuation (Unicode category P*), keep
non-empty residues. All downstream length thresholds are defined in these
units.

Most tokens need no stripping, so `_strip_punct` returns a token whose first
and last characters both pass `str.isalnum()` as it is, without looking up a
Unicode category. This is exact because no character that passes `isalnum()`
is in a P* category: in Unicode 14.0 (Python 3.11) every such character is in
an L* or N* category. The premise rests on the Unicode database of the
running Python, so tests/test_corpus.py checks it over every code point.
"""

from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Protocol


class Label(Enum):
    SUPPORTED = "Supported"
    REFUTED = "Refuted"

    @classmethod
    def from_string(cls, s: str) -> "Label":
        norm = s.strip().lower()
        if norm == "supported":
            return cls.SUPPORTED
        if norm == "refuted":
            return cls.REFUTED
        raise ValueError(f"not a 2-way verdict label: {s!r}")


# Default mapping for common native verdict schemes. Case-insensitive keys;
# callers may pass their own table per corpus.
DEFAULT_LABEL_MAP: dict[str, Label] = {
    "supported": Label.SUPPORTED,
    "supports": Label.SUPPORTED,
    "true": Label.SUPPORTED,
    "entailment": Label.SUPPORTED,
    "entailed": Label.SUPPORTED,
    "refuted": Label.REFUTED,
    "refutes": Label.REFUTED,
    "false": Label.REFUTED,
    "contradiction": Label.REFUTED,
    "not_supported": Label.REFUTED,
}


@dataclass
class ClaimRecord:
    """One (claim, evidence, optional gold label) row flowing through the funnel."""

    id: str
    claim: str
    evidence: list[str]
    source: str
    label: Label | None = None
    silver_question_count: int | None = None
    meta: dict[str, str] = field(default_factory=dict)

    def with_silver_count(self, n: int) -> "ClaimRecord":
        return replace(self, silver_question_count=n)

    def evidence_text(self) -> str:
        return " ".join(self.evidence)

    def to_json_obj(self) -> dict:
        obj: dict = {
            "id": self.id,
            "claim": self.claim,
            "evidence": list(self.evidence),
            "label": self.label.value if self.label is not None else None,
            "source": self.source,
        }
        if self.meta:
            obj["meta"] = dict(self.meta)
        if self.silver_question_count is not None:
            obj["silver_question_count"] = self.silver_question_count
        return obj


class IngestError(ValueError):
    """Malformed claims file; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def ingest_claims(
    path: str | Path,
    label_map: dict[str, Label] | None = None,
) -> list[ClaimRecord]:
    """Read a claims JSONL file, mapping native label strings to the 2-way scheme.

    Preserves file order. Unmapped non-null labels, duplicate ids, and
    schema violations raise IngestError with the offending line number.
    """
    table = {k.lower(): v for k, v in (label_map or DEFAULT_LABEL_MAP).items()}
    records: list[ClaimRecord] = []
    seen_ids: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestError(line_no, f"invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise IngestError(line_no, "line is not a JSON object")
            for key in ("id", "claim", "evidence", "source"):
                if key not in obj:
                    raise IngestError(line_no, f"missing field {key!r}")
            rid = obj["id"]
            if not isinstance(rid, str) or not rid:
                raise IngestError(line_no, "id must be a non-empty string")
            if rid in seen_ids:
                raise IngestError(line_no, f"duplicate id {rid!r}")
            seen_ids.add(rid)
            if not isinstance(obj["claim"], str) or not obj["claim"]:
                raise IngestError(line_no, "claim must be a non-empty string")
            if not isinstance(obj["source"], str):
                raise IngestError(line_no, "source must be a string")
            evidence = obj["evidence"]
            if not isinstance(evidence, list) or not all(isinstance(p, str) for p in evidence):
                raise IngestError(line_no, "evidence must be a list of strings")
            label = None
            raw_label = obj.get("label")
            if raw_label is not None:
                if not isinstance(raw_label, str):
                    raise IngestError(line_no, "label must be a string or null")
                mapped = table.get(raw_label.lower())
                if mapped is None:
                    raise IngestError(line_no, f"unknown label string {raw_label!r}")
                label = mapped
            silver = obj.get("silver_question_count")
            if silver is not None and (not isinstance(silver, int) or silver < 1):
                raise IngestError(line_no, "silver_question_count must be a positive integer")
            meta = obj.get("meta")
            if meta is not None and not isinstance(meta, dict):
                raise IngestError(line_no, "meta must be a JSON object or null")
            records.append(
                ClaimRecord(
                    id=rid,
                    claim=obj["claim"],
                    evidence=list(evidence),
                    source=obj["source"],
                    label=label,
                    silver_question_count=silver,
                    meta=dict(meta or {}),
                )
            )
    return records


def write_claims(records: Iterable[ClaimRecord], path: str | Path) -> None:
    """Write records back to the claims JSONL schema (one object per line)."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json_obj(), ensure_ascii=False) + "\n")


# --- tokenization --------------------------------------------------------


def _strip_punct(token: str) -> str:
    """The non-empty `token` without its leading and trailing P* characters."""
    if token[0].isalnum() and token[-1].isalnum():
        return token
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def tokenize(text: str) -> list[str]:
    return [tok for tok in map(_strip_punct, text.split()) if tok]


def count_tokens(text: str) -> int:
    """len(tokenize(text)), without building the list: a token with an
    alphanumeric first or last character never strips to nothing."""
    return sum(1 for raw in text.split()
               if raw[0].isalnum() or raw[-1].isalnum() or _strip_punct(raw))


# Small built-in stopword list for the lexical-overlap statistic.
STOPWORDS = frozenset(
    """a an the and or but of to in on at by for with from as is are was were
    be been being it its this that these those he she they them his her their
    we you i not no do does did done have has had will would can could should
    about into over under between which who whom what when where why how there
    than then if also such only more most some any all both each very"""
    .split()
)


def lexical_overlap(claim: str, evidence: str) -> float:
    """Fraction of the claim's distinct content tokens present in the evidence.

    Stopwords are removed from the claim side; falls back to all distinct
    claim tokens when the claim is stopwords-only, so overlap(c, c) == 1.0.
    """
    return overlap_with_tokens(claim, tokenize(evidence))


def overlap_with_tokens(claim: str, evidence_tokens: Iterable[str]) -> float:
    """`lexical_overlap` against evidence that is already tokenized."""
    claim_tokens = [t.lower() for t in tokenize(claim)]
    if not claim_tokens:
        raise ValueError("claim must be non-empty")
    content = {t for t in claim_tokens if t not in STOPWORDS}
    if not content:
        content = set(claim_tokens)
    evidence_set = {t.lower() for t in evidence_tokens}
    hit = sum(1 for t in content if t in evidence_set)
    return hit / len(content)


# --- named-entity counting -----------------------------------------------


class EntityCounter(Protocol):
    """Backend reporting named-entity spans as (start_token, end_token) pairs."""

    def entity_spans(self, text: str) -> list[tuple[int, int]]: ...


class HeuristicEntityCounter:
    """Capitalized-span heuristic: runs of capitalized tokens, skipping runs
    that start at a sentence-initial position.

    The only entity counter: the "heuristic" and "mock" NER specs both
    build it, and no external NER backend can be configured.
    """

    def entity_spans(self, text: str) -> list[tuple[int, int]]:
        raw_tokens = text.split()
        sentence_initial = set()
        prev_ends_sentence = True
        for i, raw in enumerate(raw_tokens):
            if prev_ends_sentence:
                sentence_initial.add(i)
            prev_ends_sentence = raw.rstrip('"\')').endswith((".", "!", "?"))
        capitalized = [_strip_punct(raw)[:1].isupper() for raw in raw_tokens]

        spans: list[tuple[int, int]] = []
        i = 0
        n = len(raw_tokens)
        while i < n:
            if capitalized[i]:
                j = i
                while j < n and capitalized[j]:
                    j += 1
                if i not in sentence_initial:
                    spans.append((i, j))
                i = j
            else:
                i += 1
        return spans


def entity_count(claim: str, ner: EntityCounter) -> int:
    """Count distinct named-entity spans the backend reports for the claim.

    Backend failures propagate; a record is never silently passed.
    """
    return len(set(ner.entity_spans(claim)))
