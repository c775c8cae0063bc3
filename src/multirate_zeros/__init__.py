"""Zero structure of blocked two-rate multirate linear systems.

Build blocked time-invariant representations of a system with fast and
slow output channels, measure ranks and zero multiplicities of the
resulting matrix pencils numerically, and cross-check every measurement
against the closed-form values that hold for generic parameters.
"""
from __future__ import annotations

from ._version import __version__
from .blocking import (BlockedSystem, MatrixPencil, block, lift_relation_residual,
                       system_pencil, transfer_eval)
from .errors import ConvergenceFailure, MultirateError, ResolventSingular
from .harness import (GridSpec, TrialRecord, VerificationReport, analyze,
                      emit_report, grid_spec_from_dict, run_fixture_suite,
                      run_grid, run_trial)
from .model import (Dimensions, MultirateSystem, SystemClass, TolerancePolicy,
                    classify, fixture, load_system, random_generic,
                    save_system, system_from_dict, system_to_dict)
from .numerics import normal_rank, numerical_rank, rank_at
from .oracle import (TheoryPrediction, dual_index, predict,
                     predict_controllability_rank)
from .zeros import (ZeroReport, finite_zero_candidates, verify_zero,
                    zero_report, zero_report_to_dict)

__all__ = [
    "__version__",
    "BlockedSystem", "MatrixPencil", "block", "lift_relation_residual", "system_pencil", "transfer_eval",
    "ConvergenceFailure", "MultirateError", "ResolventSingular",
    "GridSpec", "TrialRecord", "VerificationReport", "analyze", "emit_report",
    "grid_spec_from_dict", "run_fixture_suite", "run_grid", "run_trial",
    "Dimensions", "MultirateSystem", "SystemClass",
    "TolerancePolicy", "classify", "fixture",
    "load_system", "random_generic", "save_system",
    "system_from_dict", "system_to_dict",
    "normal_rank", "numerical_rank", "rank_at",
    "TheoryPrediction", "dual_index", "predict", "predict_controllability_rank",
    "ZeroReport", "finite_zero_candidates", "verify_zero", "zero_report",
    "zero_report_to_dict",
]
