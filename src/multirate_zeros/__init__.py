"""Zero structure of blocked two-rate multirate linear systems.

Build blocked time-invariant representations of a system with fast and
slow output channels, measure ranks and zero multiplicities of the
resulting matrix pencils numerically, and cross-check every measurement
against the closed-form values that hold for generic parameters.
"""
from __future__ import annotations

from ._version import __version__
from .blocking import (BlockedSystem, MatrixPencil, block, fast_subsystem,
                       lift_relation_residual, system_pencil, transfer_eval)
from .errors import (CompressionFailure, ConvergenceFailure, MultirateError,
                     NotTallClass, ResolventSingular, SingularA, SingularD,
                     TauOutOfRange, UnsupportedDims, ZeroZ)
from .harness import (GridSpec, TrialRecord, VerificationReport, analyze,
                      emit_report, grid_spec_from_dict, run_fixture_suite,
                      run_grid, run_trial)
from .model import (Dimensions, MultirateSystem, SystemClass, TolerancePolicy,
                    classify, fixture, load_system, random_generic,
                    reverse_time, save_system, system_from_dict,
                    system_to_dict)
from .numerics import (NORMAL_RANK_RADIUS, eigenvalues, normal_rank,
                       numerical_rank, rank_at)
from .oracle import (TableRow, TheoryPrediction, dual_index, predict,
                     predict_controllability_rank, predict_mult_infinity,
                     predict_mult_zero, predict_normal_rank, predict_rank_D,
                     summary_table)
from .zeros import (ZeroReport, finite_zero_candidates, square_blocked_zeros,
                    verify_zero, zero_report, zero_report_to_dict)

__all__ = [
    "__version__",
    "BlockedSystem", "MatrixPencil", "block", "fast_subsystem", "lift_relation_residual", "system_pencil", "transfer_eval",
    "CompressionFailure", "ConvergenceFailure", "MultirateError",
    "NotTallClass", "ResolventSingular", "SingularA", "SingularD",
    "TauOutOfRange", "UnsupportedDims", "ZeroZ",
    "GridSpec", "TrialRecord", "VerificationReport", "analyze", "emit_report",
    "grid_spec_from_dict", "run_fixture_suite", "run_grid", "run_trial",
    "Dimensions", "MultirateSystem", "SystemClass",
    "TolerancePolicy", "classify", "fixture",
    "load_system", "random_generic", "reverse_time", "save_system",
    "system_from_dict", "system_to_dict",
    "NORMAL_RANK_RADIUS", "eigenvalues", "normal_rank", "numerical_rank",
    "rank_at",
    "TableRow", "TheoryPrediction", "dual_index", "predict",
    "predict_controllability_rank", "predict_mult_infinity",
    "predict_mult_zero", "predict_normal_rank", "predict_rank_D",
    "summary_table",
    "ZeroReport", "finite_zero_candidates", "square_blocked_zeros",
    "verify_zero", "zero_report", "zero_report_to_dict",
]
