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
import os
import unicodedata
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator


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


# The mapping `ingest_claims` reads, from common native verdict schemes to
# the 2-way scheme; keys are lowercase and matched case-insensitively.
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
    """Malformed input file; names the file and carries the 1-based line number."""

    def __init__(self, path: str | Path, line_no: int, message: str):
        super().__init__(f"{path} line {line_no}: {message}")
        self.line_no = line_no


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(1-based line number, object) for each non-blank line of a JSONL file,
    read one line at a time. A line that is not UTF-8, not JSON or not a JSON
    object raises IngestError naming the file and that line."""
    # Undecodable bytes are kept as surrogates, so a bad byte is charged to
    # its own line, not to the line being read when the decoder met it.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():  # O(1), so ASCII lines skip the check
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise IngestError(path, line_no, f"not UTF-8: {exc}") from None
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestError(path, line_no, f"invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise IngestError(path, line_no, "line is not a JSON object")
            yield line_no, obj


def read_json(path: str | Path):
    """The JSON value a whole file holds; a file that is not UTF-8 or not
    JSON raises ValueError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise ValueError(f"{path}: {exc}") from None


def ingest_claims(*paths: str | Path) -> list[ClaimRecord]:
    """Read claims JSONL files, mapping native label strings to the 2-way
    scheme through DEFAULT_LABEL_MAP.

    Preserves file order. Unmapped non-null labels, an id read before from
    any of the files, and schema violations raise IngestError naming the
    file and the offending line.
    """
    records: list[ClaimRecord] = []
    seen_ids: set[str] = set()
    rows = ((path, line_no, obj) for path in paths for line_no, obj in read_jsonl(path))
    for path, line_no, obj in rows:
        for key in ("id", "claim", "evidence", "source"):
            if key not in obj:
                raise IngestError(path, line_no, f"missing field {key!r}")
        rid = obj["id"]
        if not isinstance(rid, str) or not rid:
            raise IngestError(path, line_no, "id must be a non-empty string")
        if rid in seen_ids:
            raise IngestError(path, line_no, f"duplicate id {rid!r}")
        seen_ids.add(rid)
        if not isinstance(obj["claim"], str) or not obj["claim"]:
            raise IngestError(path, line_no, "claim must be a non-empty string")
        if not isinstance(obj["source"], str):
            raise IngestError(path, line_no, "source must be a string")
        evidence = obj["evidence"]
        if not isinstance(evidence, list) or not all(isinstance(p, str) for p in evidence):
            raise IngestError(path, line_no, "evidence must be a list of strings")
        label = None
        raw_label = obj.get("label")
        if raw_label is not None:
            if not isinstance(raw_label, str):
                raise IngestError(path, line_no, "label must be a string or null")
            mapped = DEFAULT_LABEL_MAP.get(raw_label.lower())
            if mapped is None:
                raise IngestError(path, line_no, f"unknown label string {raw_label!r}")
            label = mapped
        silver = obj.get("silver_question_count")
        if silver is not None and (isinstance(silver, bool) or not isinstance(silver, int)
                                   or silver < 1):
            raise IngestError(path, line_no, "silver_question_count must be a positive integer")
        meta = obj.get("meta")
        if meta is not None and not isinstance(meta, dict):
            raise IngestError(path, line_no, "meta must be a JSON object or null")
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


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via temp file + rename so readers never see partial output. The
    file gets the mode `open(path, "w")` would give it: 0o666 less the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_claims(records: Iterable[ClaimRecord], path: str | Path) -> None:
    """Write records back to the claims JSONL schema (one object per line), atomically."""
    atomic_write_text(path, "".join(json.dumps(rec.to_json_obj(), ensure_ascii=False) + "\n"
                                    for rec in records))


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


def entity_spans(text: str) -> list[tuple[int, int]]:
    """Named-entity spans of `text` as (start_token, end_token) pairs over its
    whitespace tokens: runs of capitalized tokens, skipping runs that start
    at a sentence-initial position.

    The funnel's only entity counter: it calls no backend, and the config's
    `ner` spec may name it ("heuristic" or "mock") but selects nothing else.
    """
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


def entity_count(claim: str) -> int:
    """Count the distinct named-entity spans `entity_spans` finds in the claim."""
    return len(set(entity_spans(claim)))
