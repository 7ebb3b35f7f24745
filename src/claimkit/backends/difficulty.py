"""Difficulty verifier handle: label-aligned confidence for the curation band."""

from __future__ import annotations

from typing import Protocol

from ..corpus import ClaimRecord, Label
from .cache import Cache, cache_key
from .transport import FixtureBackend, HttpBackend


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
    """Label-aligned confidence: the verifier's probability on the gold label."""
    if record.label is None:
        raise ValueError(f"record {record.id!r} has no gold label; difficulty needs one")
    p_supported: float
    key = None
    if cache is not None:
        key = cache_key("difficulty", record.claim + "\x00" + record.evidence_text(),
                        verifier.backend_id)
        hit = cache.get(key)
        if hit is not None:
            p_supported = hit["p_supported"]
        else:
            p_supported = verifier.probability_supported(record.claim, record.evidence)
            p_supported = cache.put(key, {"p_supported": p_supported})["p_supported"]
    else:
        p_supported = verifier.probability_supported(record.claim, record.evidence)
    if not 0.0 <= p_supported <= 1.0:
        raise ValueError(f"verifier probability out of range: {p_supported}")
    return p_supported if record.label is Label.SUPPORTED else 1.0 - p_supported
