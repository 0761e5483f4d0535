"""Verification library for partial-trace inequalities on positive
semidefinite block matrices.

The package centers on a registry of executable checks (`suite.REGISTRY`):
each entry generates structured random instances, builds the derived
objects an inequality talks about, and reports a numeric witness of how
comfortably the statement held.  Supporting modules provide exact block
operations, order oracles (PSD, majorization, singular-value dominance),
a reproducible counter-based random stream, and JSON serialization.
"""

from .blocks import (
    BlockMatrix,
    block_diag,
    from_blocks,
    j_block,
    partial_trace_1,
    partial_trace_2,
    partial_transpose,
    reshuffle,
)
from .generate import GenSpec, gen
from .linalg import hermitian_eigvals, kyfan_norm, matrix_abs, singular_values
from .maps import apply_map_blockwise
from .orders import is_ppt, is_psd, loewner_ge, majorizes, sv_dominates
from .rng import Stream, derive_seed
from .suite import (
    REGISTRY,
    RunConfig,
    SlackReport,
    TheoremCase,
    build_slack,
    case_ids,
    check_case,
    make_instance,
    open_question_scan,
    run_suite,
    total_failures,
)

__version__ = "0.1.0"

__all__ = [
    "BlockMatrix",
    "GenSpec",
    "REGISTRY",
    "RunConfig",
    "SlackReport",
    "Stream",
    "TheoremCase",
    "apply_map_blockwise",
    "block_diag",
    "build_slack",
    "case_ids",
    "check_case",
    "derive_seed",
    "from_blocks",
    "gen",
    "hermitian_eigvals",
    "is_ppt",
    "is_psd",
    "j_block",
    "kyfan_norm",
    "loewner_ge",
    "majorizes",
    "make_instance",
    "matrix_abs",
    "open_question_scan",
    "partial_trace_1",
    "partial_trace_2",
    "partial_transpose",
    "reshuffle",
    "run_suite",
    "singular_values",
    "sv_dominates",
    "total_failures",
]
