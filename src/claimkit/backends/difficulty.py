"""Difficulty verifier handle: label-aligned confidence for the curation band."""

from __future__ import annotations

from typing import Protocol, Sequence

from ..corpus import ClaimRecord, Label
from .cache import Cache, CacheRecordError, cache_key
from .transport import FixtureBackend, HttpBackend, ProtocolError, fetch_cached


class VerifierBackend(Protocol):
    backend_id: str

    def probability_supported(self, claim: str, evidence: list[str]) -> float: ...


class HttpVerifierBackend(HttpBackend):
    """POST {claim, evidence} -> {p_supported}."""

    def probability_supported(self, claim: str, evidence: list[str]) -> float:
        return self._post({"claim": claim, "evidence": evidence}, "p_supported")


class FixtureVerifierBackend(FixtureBackend):
    """Replays P(Supported) by claim digest from a JSONL of {digest, p_supported}."""

    FIELD = "p_supported"

    def probability_supported(self, claim: str, evidence: list[str]) -> float:
        return self._lookup(claim)


def _is_probability(p) -> bool:
    """A JSON number, not a bool, in [0, 1]."""
    return isinstance(p, (int, float)) and not isinstance(p, bool) and 0.0 <= p <= 1.0


def _checked_reply(p) -> dict:
    if not _is_probability(p):
        raise ProtocolError(f"verifier p_supported is {p!r}, not a number in [0, 1]")
    return {"p_supported": float(p)}


def difficulty_score(record: ClaimRecord, verifier: VerifierBackend, cache: Cache) -> float:
    """The one-record case of `difficulty_scores`."""
    return difficulty_scores([record], verifier, cache)[0]


def difficulty_scores(records: Sequence[ClaimRecord], verifier: VerifierBackend,
                      cache: Cache) -> list[float]:
    """Label-aligned confidence for each record, in order: the verifier's
    probability on the gold label. Every record is checked before one
    `fetch_cached` call, which asks about each distinct (claim, evidence) once.
    A reply that is not a number in [0, 1] raises ProtocolError and is not
    stored; a stored record without one raises CacheRecordError."""
    keys = []
    for record in records:
        if record.label is None:
            raise ValueError(f"record {record.id!r} has no gold label; difficulty needs one")
        keys.append(cache_key("difficulty", [record.claim, record.evidence],
                              verifier.backend_id))
    stored = fetch_cached(
        verifier, cache, zip(keys, records),
        lambda batch: [_checked_reply(verifier.probability_supported(r.claim, r.evidence))
                       for r in batch],
    )
    scores = []
    for record, row in zip(records, stored):
        p_supported = row.get("p_supported") if isinstance(row, dict) else None
        if not _is_probability(p_supported):
            raise CacheRecordError("difficulty", "has no 'p_supported' number in [0, 1]")
        scores.append(p_supported if record.label is Label.SUPPORTED else 1.0 - p_supported)
    return scores
