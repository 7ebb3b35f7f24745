"""Multi-stage claim-curation funnel: filters, dedup, selection, augmentation."""

from .budget import SelectionBudget, allocate_budgets
from .dedup import (
    DECONTAM_COSINE_THRESHOLD,
    JACCARD_THRESHOLD,
    SEMANTIC_THRESHOLD,
    decontaminate,
    dedup_minhash,
    dedup_semantic,
)
from .run import (
    FunnelConfig,
    FunnelReport,
    StageReport,
    atomic_write_text,
    run_funnel,
    select_stratified,
    stage_seed,
)
from .select import alt_select, facility_location_value, lazy_greedy, naive_greedy
from .shingling import (
    MinHasher,
    estimate_jaccard,
    exact_jaccard,
    hash64,
    shingle_set,
)
from .stages import (
    RuleThresholds,
    StageError,
    difficulty_filter,
    long_evidence_augment,
    rule_filter,
    silver_stage,
)

__all__ = [
    "DECONTAM_COSINE_THRESHOLD",
    "FunnelConfig",
    "FunnelReport",
    "JACCARD_THRESHOLD",
    "MinHasher",
    "RuleThresholds",
    "SEMANTIC_THRESHOLD",
    "SelectionBudget",
    "StageError",
    "StageReport",
    "allocate_budgets",
    "alt_select",
    "atomic_write_text",
    "decontaminate",
    "dedup_minhash",
    "dedup_semantic",
    "difficulty_filter",
    "estimate_jaccard",
    "exact_jaccard",
    "facility_location_value",
    "hash64",
    "lazy_greedy",
    "long_evidence_augment",
    "naive_greedy",
    "rule_filter",
    "run_funnel",
    "select_stratified",
    "shingle_set",
    "silver_stage",
    "stage_seed",
]
