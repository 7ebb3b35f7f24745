"""Difficulty verifier handle: label-aligned confidence for the curation band."""

from __future__ import annotations

from typing import Protocol, Sequence

from ..corpus import ClaimRecord, Label
from .cache import Cache, MemoryCache, cache_key
from .transport import FixtureBackend, HttpBackend, fetch_cached


class VerifierBackend(Protocol):
    backend_id: str

    def probability_supported(self, claim: str, evidence: list[str]) -> float: ...


class HttpVerifierBackend(HttpBackend):
    """POST {claim, evidence} -> {p_supported}."""

    def probability_supported(self, claim: str, evidence: list[str]) -> float:
        return float(self._post({"claim": claim, "evidence": evidence}, "p_supported"))


class FixtureVerifierBackend(FixtureBackend):
    """Replays P(Supported) by claim digest from a JSONL of {digest, p_supported}."""

    FIELD = "p_supported"

    def probability_supported(self, claim: str, evidence: list[str]) -> float:
        return float(self._lookup(claim))


def difficulty_score(
    record: ClaimRecord,
    verifier: VerifierBackend,
    cache: Cache | None = None,
) -> float:
    """The one-record case of `difficulty_scores`."""
    return difficulty_scores([record], verifier, cache)[0]


def difficulty_scores(records: Sequence[ClaimRecord], verifier: VerifierBackend,
                      cache: Cache | None = None) -> list[float]:
    """Label-aligned confidence per record: the verifier's probability on the
    gold label. Every record is checked before one `fetch_cached` call, which
    asks about each distinct (claim, evidence) once; cache=None caches in memory."""
    keys = []
    for record in records:
        if record.label is None:
            raise ValueError(f"record {record.id!r} has no gold label; difficulty needs one")
        keys.append(cache_key("difficulty", record.claim + "\x00" + record.evidence_text(),
                              verifier.backend_id))
    stored = fetch_cached(
        verifier, MemoryCache() if cache is None else cache, zip(keys, records),
        lambda batch: [{"p_supported": verifier.probability_supported(r.claim, r.evidence)}
                       for r in batch],
    )
    scores = []
    for record, key in zip(records, keys):
        p_supported = stored[key]["p_supported"]
        if not 0.0 <= p_supported <= 1.0:
            raise ValueError(f"verifier probability out of range: {p_supported}")
        scores.append(p_supported if record.label is Label.SUPPORTED else 1.0 - p_supported)
    return scores
