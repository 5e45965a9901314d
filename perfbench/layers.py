"""The layer map of the benchmark.

Each entry names one public nmcode function that the traced run wraps, how
the tracer records it, which end-to-end metric on which workload a change to
it should move, and on which workloads it is called at all.

`kind` is SPAN for stage boundaries (every call is kept as a span) and OP
for per-op functions, which run up to millions of times and are aggregated
per (function, parent) instead.

`active` lists the workloads on which the function is called; on every
other workload its call count is 0, and a change to it should leave that
workload's end-to-end metrics unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Tuple

SPAN = "span"
OP = "op"

ATTACK = "attack-fuzz"
EXHAUSTIVE = "exhaustive-verify"
NMEXT = "nmext-reduce"
WORKLOADS = (ATTACK, EXHAUSTIVE, NMEXT)


@dataclass(frozen=True)
class Layer:
    module: str  # nmcode submodule that defines the function
    qualname: str  # function or Class.method inside that module
    kind: str  # SPAN or OP
    moves: Tuple[str, ...]  # "<end-to-end metric>@<workload>" it should move
    active: Tuple[str, ...]  # workloads that call it

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


_BOTH = (ATTACK, EXHAUSTIVE)

LAYERS: Tuple[Layer, ...] = (
    # tamper
    Layer("tamper", "BitTamperFn.apply_int", OP,
          (f"verdicts_per_s@{ATTACK}", f"verdicts_per_s@{EXHAUSTIVE}"), _BOTH),
    Layer("tamper", "SplitStateTamperFn.apply_int", OP,
          (f"verdicts_per_s@{NMEXT}",), (NMEXT,)),
    Layer("tamper", "enumerate_bit_tampers", OP,
          (f"verdicts_per_s@{EXHAUSTIVE}",), (EXHAUSTIVE,)),
    # perm
    Layer("perm", "Permutation.apply_int", OP, (f"verdict_s.p50@{ATTACK}",), _BOTH),
    Layer("perm", "Permutation.invert_int", OP, (f"verdict_s.p50@{ATTACK}",), _BOTH),
    Layer("perm", "derive_permutation", OP, (f"verdict_s.p90@{EXHAUSTIVE}",), _BOTH),
    Layer("perm", "test_lwise_dependence", SPAN,
          (f"verdict_s.p90@{EXHAUSTIVE}",), (EXHAUSTIVE,)),
    # inner
    Layer("inner", "InnerCode.encode_int", OP, (f"verdicts_per_s@{ATTACK}",), (ATTACK,)),
    Layer("inner", "InnerCode.decode_int", OP, (f"verdicts_per_s@{ATTACK}",), _BOTH),
    Layer("inner", "verify_cube_property", SPAN,
          (f"verdicts_per_s@{EXHAUSTIVE}",), (EXHAUSTIVE,)),
    Layer("inner", "verify_bounded_independence", SPAN,
          (f"verdicts_per_s@{EXHAUSTIVE}",), (EXHAUSTIVE,)),
    Layer("inner", "verify_error_detection", SPAN,
          (f"verdicts_per_s@{EXHAUSTIVE}",), (EXHAUSTIVE,)),
    Layer("inner", "sample_inner_code", OP, (f"setup_s@{ATTACK}", f"setup_s@{EXHAUSTIVE}"), _BOTH),
    # gf and lecss
    Layer("gf", "GF2m.mul", OP, (f"verdicts_per_s@{ATTACK}",), _BOTH),
    Layer("lecss", "LecssCode.encode_with", OP, (f"verdicts_per_s@{ATTACK}",), _BOTH),
    Layer("lecss", "LecssCode.decode_int", OP, (f"verdicts_per_s@{ATTACK}",), _BOTH),
    # concat
    Layer("concat", "ConcatCode.encode_int", OP, (f"verdicts_per_s@{ATTACK}",), (ATTACK,)),
    Layer("concat", "ConcatCode.decode_int", OP, (f"verdicts_per_s@{ATTACK}",), _BOTH),
    Layer("concat", "ConcatCode.iter_encodings_int", OP,
          (f"verdicts_per_s@{EXHAUSTIVE}",), (EXHAUSTIVE,)),
    Layer("concat", "ConcatCode.exact_outcome_dist", SPAN,
          (f"verdicts_per_s@{EXHAUSTIVE}",), (EXHAUSTIVE,)),
    Layer("concat", "build_concat", OP, (f"setup_s@{ATTACK}", f"setup_s@{EXHAUSTIVE}"), _BOTH),
    Layer("concat", "attack_experiment", SPAN, (f"verdicts_per_s@{ATTACK}",), (ATTACK,)),
    # schemes and core
    Layer("schemes", "reference_dist", SPAN, (f"verdict_s.p50@{ATTACK}",), (ATTACK,)),
    Layer("schemes", "tampered_output_dist", OP,
          (f"verdict_s.p50@{ATTACK}", f"verdicts_per_s@{NMEXT}"), (ATTACK, NMEXT)),
    Layer("schemes", "nm_error", SPAN, (f"verdict_s.p50@{ATTACK}",), (ATTACK,)),
    Layer("schemes", "optimal_nm_error", OP, (f"verdicts_per_s@{NMEXT}",), (NMEXT,)),
    Layer("schemes", "roundtrip_exhaustive", SPAN,
          (f"verdicts_per_s@{EXHAUSTIVE}",), (EXHAUSTIVE,)),
    Layer("core", "FiniteDist.from_samples", OP, (f"verdict_s.p50@{ATTACK}",), (ATTACK,)),
    Layer("core", "push_copy", OP, (f"verdict_s.p50@{ATTACK}",), (ATTACK,)),
    Layer("core", "statistical_distance", OP, (f"verdict_s.p50@{ATTACK}",), (ATTACK,)),
    # nmext and lp
    Layer("nmext", "verify_reduction", SPAN, (f"verdicts_per_s@{NMEXT}",), (NMEXT,)),
    Layer("nmext", "check_strict_nm", OP, (f"verdicts_per_s@{NMEXT}",), (NMEXT,)),
    Layer("nmext", "check_extraction", OP, (f"verdicts_per_s@{NMEXT}",), (NMEXT,)),
    Layer("nmext", "joint_output_dist", OP, (f"verdicts_per_s@{NMEXT}",), (NMEXT,)),
    Layer("nmext", "relaxed_error_sweep", SPAN,
          (f"verdicts_per_s@{NMEXT}", f"verdict_s.p90@{NMEXT}"), (NMEXT,)),
    Layer("lp", "solve_lp", SPAN,
          (f"verdicts_per_s@{NMEXT}", f"verdict_s.p90@{NMEXT}"), (NMEXT,)),
    Layer("lp", "min_copy_distance_m1", OP, (f"verdicts_per_s@{NMEXT}",), (NMEXT,)),
    Layer("lp", "min_copy_distance", OP,
          (f"verdicts_per_s@{NMEXT}", f"verdict_s.p90@{NMEXT}"), (NMEXT,)),
)


def _tableau_cells(args) -> int:
    # solve_lp's phase-1 tableau: one row per constraint plus the objective;
    # columns for variables, slacks, artificials and the right-hand side.
    rows = len(args["a_ub"]) + len(args["a_eq"])
    cols = len(args["c"]) + len(args["a_ub"]) + rows + 1
    return (rows + 1) * cols


def _support_pairs(args) -> int:
    space = 1 << args["ext"].n
    supports = sum(comb(space, size) for size in range(args["min_support"], space + 1))
    return supports * supports


def _samples(args) -> int:
    return args["samples"] or 0


# Counters taken from call arguments: layer name -> (counter name, function
# of the bound arguments).
ARG_COUNTERS = {
    "lp.solve_lp": ("lp.solve_lp.tableau_cells", _tableau_cells),
    "nmext.relaxed_error_sweep": ("nmext.relaxed_error_sweep.support_pairs", _support_pairs),
    "schemes.reference_dist": ("schemes.samples", _samples),
    "schemes.tampered_output_dist": ("schemes.samples", _samples),
}
