"""External-evaluator handles: judges, embeddings, difficulty verifier, cache."""

from .cache import (
    Cache,
    CacheRecordError,
    DecodingParams,
    DiskCache,
    MemoryCache,
    cache_key,
    prompt_digest,
)
from .difficulty import (
    FixtureVerifierBackend,
    HttpVerifierBackend,
    VerifierBackend,
    difficulty_score,
    difficulty_scores,
)
from .embeddings import (
    EmbeddingBackend,
    FixtureEmbeddingBackend,
    HttpEmbeddingBackend,
    cosine,
    embed,
)
from .judges import (
    FixtureJudgeBackend,
    HttpJudgeBackend,
    JudgeBackend,
    JudgeParseError,
    judge_generate,
    judge_generate_many,
)
from .parsers import (
    ATOMICITY_KEYS,
    AtomicityChecklist,
    ThreeWayVerdict,
    parse_atomicity,
    parse_binary_answer,
    parse_question_list,
    parse_verdict,
)
from .templates import TemplateId, TEMPLATES, render_prompt, template_slots
from .transport import ProtocolError, TransportError

__all__ = [
    "ATOMICITY_KEYS",
    "AtomicityChecklist",
    "Cache",
    "CacheRecordError",
    "DecodingParams",
    "DiskCache",
    "EmbeddingBackend",
    "FixtureEmbeddingBackend",
    "FixtureJudgeBackend",
    "FixtureVerifierBackend",
    "HttpEmbeddingBackend",
    "HttpJudgeBackend",
    "HttpVerifierBackend",
    "JudgeBackend",
    "JudgeParseError",
    "MemoryCache",
    "ProtocolError",
    "TEMPLATES",
    "TemplateId",
    "ThreeWayVerdict",
    "TransportError",
    "VerifierBackend",
    "cache_key",
    "cosine",
    "difficulty_score",
    "difficulty_scores",
    "embed",
    "judge_generate",
    "judge_generate_many",
    "parse_atomicity",
    "parse_binary_answer",
    "parse_question_list",
    "parse_verdict",
    "prompt_digest",
    "render_prompt",
    "template_slots",
]
