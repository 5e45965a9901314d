"""Tamper-resilient coding toolkit.

Desk-scale implementations of probabilistic lookup-table codes, a
Reed-Solomon-based linear error-correcting secret sharing layer,
seed-derived bit permutations, the concatenated scheme that combines them
against per-bit tampering, and two-source non-malleable extractor
experiments for split-state tampering, all with exhaustive or seeded
Monte-Carlo verification.
"""

__version__ = "0.1.0"

from .core import (
    BOTTOM,
    SAME,
    BitWord,
    FiniteDist,
    GuardExceeded,
    InfeasibleParams,
    NmcodeError,
    RngSeed,
    Symbol,
    Verdict,
    confidence_radius,
    push_copy,
    statistical_distance,
)
from .inner import (
    InnerCode,
    InnerParams,
    plan_inner_params,
    sample_inner_code,
    verify_bounded_independence,
    verify_cube_property,
    verify_error_detection,
)
from .lecss import LecssCode, LecssParams, build_lecss, verify_lecss
from .perm import PermSpec, Permutation, derive_permutation, test_lwise_dependence
from .tamper import (
    BitTamperFn,
    SplitStateTamperFn,
    canonical_adversaries,
    enumerate_bit_tampers,
    random_tamper,
)
from .concat import (
    ConcatCode,
    ConcatPlan,
    attack_experiment,
    build_concat,
    classify_adversary,
    plan_concat,
    toy_concat_plan,
)
from .nmext import (
    ExtractorTable,
    FlatSourcePair,
    check_extraction,
    check_relaxed_nm,
    check_strict_nm,
    sample_random_extractor,
    verify_reduction,
)
from .schemes import nm_error, optimal_nm_error, reference_dist, tampered_output_dist
