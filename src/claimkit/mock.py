"""Deterministic offline backends for tests, demos, and dry pipelines.

Each backend derives its output from a hash of the input, so runs are
reproducible across processes and worker counts with zero network.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .backends.cache import DecodingParams


def _hash_int(text: str, salt: str = "") -> int:
    digest = hashlib.blake2b((salt + text).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashEmbeddingBackend:
    """Unit vectors drawn from a per-text seeded gaussian. Identical text,
    identical vector; near-identical text, unrelated vector (no semantics)."""

    def __init__(self, dim: int = 32, backend_id: str = "mock-embedding"):
        self.dim = dim
        self.backend_id = backend_id

    def embed_texts(self, texts: list[str]) -> list[list[float]]:
        out = []
        for text in texts:
            rng = np.random.default_rng(_hash_int(text, salt="embed"))
            vec = rng.standard_normal(self.dim)
            vec /= np.linalg.norm(vec)
            out.append(vec.tolist())
        return out


class HashJudgeBackend:
    """Prompt-hash-driven judge that emits well-formed replies for every
    template, recognized by distinctive marker strings in the prompt body."""

    backend_id = "mock-judge"

    def generate(self, prompt: str, params: DecodingParams) -> str:
        h = _hash_int(prompt, salt=f"judge:{params.seed}")
        if "Verdict Criteria" in prompt:
            verdict = ("Supported", "Refuted", "Not Enough Information")[h % 3]
            return f"Reasoning elided.\n<verdict>{verdict}</verdict>"
        if "atomicity criteria" in prompt:
            bits = [(h >> i) & 1 for i in range(5)]
            lines = "\n".join(
                f"{key}:{'YES' if bit else 'NO'}"
                for key, bit in zip(
                    ("is_question", "single_focus", "no_conjunctions", "verifiable", "grounded"),
                    bits,
                )
            )
            return f"Reasoning elided.\n<answer>\n{lines}\n</answer>"
        if "Answerability Criteria" in prompt or "Verification Rules" in prompt:
            return f"Reasoning elided.\n<answer>{h % 2}</answer>"
        if "minimal set of atomic questions" in prompt:
            n = 1 + h % 4
            lines = "\n".join(f"{i + 1}. Is sub-fact {i + 1} stated in the document?" for i in range(n))
            return lines
        # Trace generation or anything unrecognized: a minimal valid trace.
        verdict = "Supported" if h % 2 == 0 else "Refuted"
        return (
            "<think>mock analysis</think>\n"
            "<question>Is the first fact stated?</question>\n"
            "<answer>Yes, per the document.</answer>\n"
            "<question>Is the second fact stated?</question>\n"
            "<answer>Yes, per the document.</answer>\n"
            f"<verification>{verdict}</verification>"
        )


class HashVerifierBackend:
    """Uniform pseudo-probability of Supported derived from the claim text."""

    backend_id = "mock-verifier"

    def probability_supported(self, claim: str, evidence: list[str]) -> float:
        return (_hash_int(claim, salt="verifier") % 10_000) / 9_999.0

