"""Backend construction from config specs.

A spec is a string: "mock", "heuristic" (entity counter), "fixture:<path>",
or a full "http://..." or "https://..." URL. Environment variables
CLAIMKIT_JUDGE_ENDPOINT, CLAIMKIT_EMBEDDING_ENDPOINT, and
CLAIMKIT_VERIFIER_ENDPOINT override the respective specs when set, so
deployments can retarget without editing config files.
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
from .corpus import EntityCounter, HeuristicEntityCounter
from .mock import HashEmbeddingBackend, HashJudgeBackend, HashVerifierBackend

ENV_OVERRIDES = {
    "judge": "CLAIMKIT_JUDGE_ENDPOINT",
    "embedding": "CLAIMKIT_EMBEDDING_ENDPOINT",
    "verifier": "CLAIMKIT_VERIFIER_ENDPOINT",
}


def _resolve(kind: str, spec: str) -> tuple[str, str]:
    env = ENV_OVERRIDES.get(kind)
    if env and os.environ.get(env):
        return "http", os.environ[env]
    if spec == "mock":
        return "mock", ""
    if spec == "heuristic":
        return "heuristic", ""
    for scheme in ("fixture", "https", "http"):
        if spec.startswith(scheme + ":"):
            if scheme == "fixture":
                return "fixture", spec.split(":", 1)[1]
            return "http", spec
    raise ValueError(f"unrecognized {kind} backend spec {spec!r}")


# kind -> (mock, fixture, http) backend classes
_BACKENDS = {
    "judge": (HashJudgeBackend, FixtureJudgeBackend, HttpJudgeBackend),
    "embedding": (HashEmbeddingBackend, FixtureEmbeddingBackend, HttpEmbeddingBackend),
    "verifier": (HashVerifierBackend, FixtureVerifierBackend, HttpVerifierBackend),
}


def _build(kind: str, spec: str):
    how, arg = _resolve(kind, spec)
    mock, fixture, http = _BACKENDS[kind]
    if how == "mock":
        return mock()
    if how == "fixture":
        return fixture(arg)
    if how == "http":
        return http(arg)
    raise ValueError(f"unsupported {kind} backend spec {spec!r}")


def build_judge_backend(spec: str) -> JudgeBackend:
    return _build("judge", spec)


def build_embedding_backend(spec: str) -> EmbeddingBackend:
    return _build("embedding", spec)


def build_verifier_backend(spec: str) -> VerifierBackend:
    return _build("verifier", spec)


def build_entity_counter(spec: str) -> EntityCounter:
    kind, _ = _resolve("ner", spec)
    if kind in ("heuristic", "mock"):
        return HeuristicEntityCounter()
    raise ValueError(f"unsupported entity-counter spec {spec!r}")
