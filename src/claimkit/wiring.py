"""Backend construction from config specs.

A spec is a string: "mock", "fixture:<path>", or a full "http://..." or
"https://..." URL. A non-empty CLAIMKIT_JUDGE_ENDPOINT,
CLAIMKIT_EMBEDDING_ENDPOINT or CLAIMKIT_VERIFIER_ENDPOINT replaces the
respective spec and is parsed as one, so deployments can retarget without
editing config files; a value that is not a spec fails when the backend is built.
"""

from __future__ import annotations

import os

from .backends import (
    EmbeddingBackend,
    FixtureEmbeddingBackend,
    FixtureJudgeBackend,
    FixtureVerifierBackend,
    HttpEmbeddingBackend,
    HttpJudgeBackend,
    HttpVerifierBackend,
    JudgeBackend,
    VerifierBackend,
)
from .mock import HashEmbeddingBackend, HashJudgeBackend, HashVerifierBackend

# kind -> (mock, fixture, http) backend classes
_BACKENDS = {
    "judge": (HashJudgeBackend, FixtureJudgeBackend, HttpJudgeBackend),
    "embedding": (HashEmbeddingBackend, FixtureEmbeddingBackend, HttpEmbeddingBackend),
    "verifier": (HashVerifierBackend, FixtureVerifierBackend, HttpVerifierBackend),
}


def _build(kind: str, spec: str):
    spec = os.environ.get(f"CLAIMKIT_{kind.upper()}_ENDPOINT") or spec
    mock, fixture, http = _BACKENDS[kind]
    if spec == "mock":
        return mock()
    if spec.startswith("fixture:"):
        return fixture(spec.split(":", 1)[1])
    if spec.startswith(("https:", "http:")):
        return http(spec)
    raise ValueError(f"unrecognized {kind} backend spec {spec!r}")


def build_judge_backend(spec: str) -> JudgeBackend:
    return _build("judge", spec)


def build_embedding_backend(spec: str) -> EmbeddingBackend:
    return _build("embedding", spec)


def build_verifier_backend(spec: str) -> VerifierBackend:
    return _build("verifier", spec)
