"""Seeded Monte Carlo sweeps comparing measured quantities against predictions.

A grid of dimension cells is enumerated deterministically, each cell gets a
block of consecutive seeds, and every trial measures rank and zero data on
a random system and compares it with the closed-form generic values. The
report is a pure function of the grid spec: rerunning it reproduces the
same payload byte for byte (timestamps live in a single top-level field).
Disagreements are recorded with enough context to replay the single trial,
not raised, since a tolerance misfire needs inspecting rather than a
traceback.
"""
from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np

from ._exact import exact_block, exact_normal_rank, exact_rank, exact_rank_at
from ._version import __version__
from .blocking import block, block_all, lift_relation_residual, system_pencil
from .errors import MultirateError
from .model import (Dimensions, MultirateSystem, TolerancePolicy, _is_int, classify,
                    fixture, policy_from_dict, random_generic)
from .numerics import _sample_angles, normal_rank, numerical_rank, rank_at
from .oracle import dual_index, predict, predict_controllability_rank
from .zeros import multiplicities, zero_report

LIFT_RESIDUAL_TOL = 1e-9
LIFT_SAMPLES = 3

AGREEMENT_KEYS = (
    "rank_D",
    "normal_rank",
    "mult_at_zero",
    "mult_at_infinity",
    "no_finite_nonzero",
    "duality",
    "tau_independent",
    "lift_residual",
)

CSV_COLUMNS = (
    "n", "m", "p1", "p2", "N", "tau", "seed", "class",
    "rank_D_meas", "rank_D_pred", "nrank_meas", "nrank_pred",
    "mz_meas", "mz_pred", "minf_meas", "minf_pred",
    "n_finite_nonzero", "agree_all",
)


@dataclass(frozen=True)
class GridSpec:
    """Deterministic enumeration of tall dimension cells to sweep.

    p2 is derived per cell as max(N*(m - p1), 0) + offset, which keeps
    every cell strictly tall for offsets >= 1. p1_values of None means
    1..m for each m. taus is "all" (1..N per cell) or an explicit list,
    silently truncated to taus <= N in cells where N is smaller; a list
    with no tau <= max N is refused, since it would run no trials.
    """

    n_values: tuple[int, ...]
    m_values: tuple[int, ...]
    N_values: tuple[int, ...]
    p1_values: tuple[int, ...] | None = None
    p2_offsets: tuple[int, ...] = (1,)
    taus: tuple[int, ...] | str = "all"
    trials_per_cell: int = 10
    base_seed: int = 0
    policy: TolerancePolicy = TolerancePolicy()

    def __post_init__(self):
        for name in ("n_values", "m_values", "N_values", "p1_values", "p2_offsets"):
            vals = getattr(self, name)
            if name == "p1_values" and vals is None:
                continue
            # p2_offsets >= 1 keeps every cell above the tallness threshold
            if not vals or any(not _is_int(v) or v < 1 for v in vals):
                raise ValueError(f"{name} must be a nonempty list of ints >= 1, got {vals!r}")
        if any(N < 2 for N in self.N_values):
            raise ValueError("N values must be >= 2")
        if isinstance(self.taus, str):
            if self.taus != "all":
                raise ValueError(f'taus must be "all" or a list, got {self.taus!r}')
        elif not all(_is_int(t) for t in self.taus):
            raise ValueError(f'taus must be "all" or a list of ints, got {self.taus!r}')
        elif any(t < 1 for t in self.taus):
            raise ValueError("tau values must be >= 1")
        for name in ("trials_per_cell", "base_seed"):
            v = getattr(self, name)
            if not _is_int(v):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.trials_per_cell < 1:
            raise ValueError("trials_per_cell must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")
        # a sweep of no trials would report vacuous agreement
        if next(cells(self), None) is None:
            raise ValueError(f"taus has no value <= max N = {max(self.N_values)}, "
                             f"so the sweep would run no trials")


def grid_spec_from_dict(data: dict) -> GridSpec:
    """Build a GridSpec from parsed JSON, naming any offending field."""
    if not isinstance(data, dict):
        raise ValueError("grid spec must be a JSON object")
    known = {"n", "m", "p1", "N", "p2_offsets", "taus",
             "trials_per_cell", "base_seed", "policy"}
    for key in data:
        if key not in known:
            raise ValueError(f"unknown grid spec field {key!r}")

    def int_list(key, required):
        vals = data.get(key)
        if vals is None:
            if required:
                raise ValueError(f"grid spec field {key!r} is required")
            return None
        if not isinstance(vals, list) or not all(_is_int(v) for v in vals):
            raise ValueError(f"grid spec field {key!r} must be a list of ints")
        return tuple(vals)

    taus = data.get("taus", "all")
    if taus != "all":
        if not isinstance(taus, list):
            raise ValueError('grid spec field "taus" must be "all" or a list')
        taus = tuple(taus)
    p2_offsets = int_list("p2_offsets", False)
    try:
        policy = policy_from_dict(data.get("policy", {}))
    except ValueError as exc:
        raise ValueError(f"grid spec field 'policy': {exc}") from exc
    return GridSpec(
        n_values=int_list("n", True),
        m_values=int_list("m", True),
        N_values=int_list("N", True),
        p1_values=int_list("p1", False),
        p2_offsets=(1,) if p2_offsets is None else p2_offsets,
        taus=taus,
        trials_per_cell=data.get("trials_per_cell", 10),
        base_seed=data.get("base_seed", 0),
        policy=policy,
    )


def grid_spec_to_dict(spec: GridSpec) -> dict:
    return {
        "n": list(spec.n_values),
        "m": list(spec.m_values),
        "N": list(spec.N_values),
        "p1": None if spec.p1_values is None else list(spec.p1_values),
        "p2_offsets": list(spec.p2_offsets),
        "taus": spec.taus if isinstance(spec.taus, str) else list(spec.taus),
        "trials_per_cell": spec.trials_per_cell,
        "base_seed": spec.base_seed,
        "policy": asdict(spec.policy),
    }


def cells(spec: GridSpec):
    """Yield (dims, tau) cells in the fixed enumeration order.

    The order (n, m, p1, p2 offset, N, tau) is part of the seed schedule
    contract: trial seeds are assigned sequentially along it.
    """
    for n in spec.n_values:
        for m in spec.m_values:
            p1s = spec.p1_values if spec.p1_values is not None else tuple(range(1, m + 1))
            for p1 in p1s:
                for off in spec.p2_offsets:
                    for N in spec.N_values:
                        p2 = max(N * (m - p1), 0) + off
                        dims = Dimensions(n=n, m=m, p1=p1, p2=p2, N=N)
                        taus = range(1, N + 1) if spec.taus == "all" else \
                            (t for t in spec.taus if t <= N)
                        for tau in taus:
                            yield dims, tau


@dataclass(frozen=True)
class TrialRecord:
    """One measured-vs-predicted comparison, with the extra structural checks.

    escalated lists the agreement keys that disagreed on the float readings
    (see run_trial); measured["screen"] keeps the float value of each field
    that the exact readings changed.
    """

    dims: Dimensions
    tau: int
    seed: int
    system_class: str
    measured: dict | None
    predicted: dict
    agreement: dict
    agree_all: bool
    error: str | None
    elapsed: float
    escalated: tuple = ()


def _predicted_dict(pred) -> dict:
    return {
        "rank_D": pred.rank_D,
        "normal_rank": pred.normal_rank,
        "mult_at_zero": pred.mult_at_zero,
        "mult_at_infinity": pred.mult_at_infinity,
        "case_labels": dict(pred.case_labels),
    }


def _headline_agreement(meas: dict, pred) -> dict:
    """Measured vs predicted for the four headline quantities and finite zeros."""
    return {
        "rank_D": meas["rank_D"] == pred.rank_D,
        "normal_rank": meas["normal_rank"] == pred.normal_rank,
        "mult_at_zero": meas["mult_at_zero"] == pred.mult_at_zero,
        "mult_at_infinity": meas["mult_at_infinity"] == pred.mult_at_infinity,
        "no_finite_nonzero": meas["n_finite_nonzero"] == 0,
    }


def _agreement_from(meas: dict, pred) -> dict:
    return {
        **_headline_agreement(meas, pred),
        "duality": (meas["mult_at_zero"] == meas["dual_mult_at_infinity"]
                    and meas["mult_at_infinity"] == meas["dual_mult_at_zero"]),
        "tau_independent": len(set(meas["normal_rank_by_tau"])) == 1,
        "lift_residual": meas["lift_residual_max"] < LIFT_RESIDUAL_TOL,
    }


def _rank_fields(rank: dict, dims: Dimensions, tau: int) -> dict:
    """Every rank field of a trial's measured dict, from its rank readings.

    rank maps (quantity, delay) to a reading: "normal_rank" at every delay,
    "rank_D" and "rank_at_zero" at tau and at its dual delay.
    """
    out = {"rank_D": rank["rank_D", tau], "normal_rank": rank["normal_rank", tau],
           "normal_rank_by_tau": [rank["normal_rank", t] for t in range(1, dims.N + 1)]}
    for t, prefix in ((tau, ""), (dual_index(tau, dims.N), "dual_")):
        out[prefix + "mult_at_zero"], out[prefix + "mult_at_infinity"] = multiplicities(
            rank["normal_rank", t], rank["rank_at_zero", t], rank["rank_D", t], dims.n)
    out["rank_at_zero"] = out["normal_rank"] - out["mult_at_zero"]
    out["rank_at_infinity"] = out["normal_rank"] - out["mult_at_infinity"]
    return out


def _escalate(sys: MultirateSystem, dims: Dimensions, tau: int,
              rank: dict, finite_zeros) -> tuple[dict, int]:
    """The rank readings, those below their generic value re-read exactly,
    and the number of finite zeros that survive exact arithmetic.

    A float reading at the generic value is already exact (see _exact).
    """
    generic = {}
    for t in {tau, dual_index(tau, dims.N)}:
        pred = predict(dims, t)
        generic["rank_D", t] = pred.rank_D
        generic["rank_at_zero", t] = pred.normal_rank - pred.mult_at_zero
    # the generic normal rank is the same at every delay
    generic.update((("normal_rank", t), pred.normal_rank) for t in range(1, dims.N + 1))
    blocks = exact_block(sys)

    @cache
    def pencil(t):
        return system_pencil(blocks[t - 1])

    read = {
        "normal_rank": lambda t: exact_normal_rank(pencil(t), generic["normal_rank", t]),
        "rank_D": lambda t: exact_rank(blocks[t - 1].D_tau),
        "rank_at_zero": lambda t: exact_rank_at(pencil(t), Fraction(0)),
    }
    rank = {(q, t): read[q](t) if value < generic[q, t] else value
            for (q, t), value in rank.items()}
    # the float location is itself an exact rational point; a genuine drop
    # there survives exact arithmetic, a tolerance artifact does not
    confirmed = sum(exact_rank_at(pencil(tau), Fraction(z.real), Fraction(z.imag))
                    < rank["normal_rank", tau] for z, _ in finite_zeros)
    return rank, confirmed


def run_trial(dims: Dimensions, tau: int, seed: int,
              policy: TolerancePolicy | None = None) -> TrialRecord:
    """Generate, block, measure and compare one random system.

    Beyond the four headline quantities, three structural checks run on the
    same instance: the origin/infinity multiplicity swap at the dual delay
    N - tau + 1, the delay independence of the measured normal rank, and
    the one-step lifting relation between every pair of consecutive
    delays, at LIFT_SAMPLES unit-circle points at the first angles of the
    normal-rank sample draw. The finite-zero search runs at tau only. Every
    rank field is derived by `_rank_fields` from rank readings: the normal
    rank at every delay, and the ranks of D_tau and at Z = 0 at tau and at
    the dual delay. Each normal-rank sweep stops at the predicted normal
    rank, which no instance exceeds, so a reading that meets it costs one
    sample point. Numerical failures (e.g. every compression attempt ill
    conditioned) are captured in the record, not raised.

    When a check other than the lifting residual (a float identity with no
    rank content) disagrees, the trial escalates: every reading below its
    generic value, and every finite zero, is re-read in exact rational
    arithmetic, and the record is derived again. The exact value either
    clears the flag (a tolerance collision) or stands as a disagreement.
    """
    policy = policy or TolerancePolicy()
    pred = predict(dims, tau)
    t0 = time.perf_counter()
    sys = random_generic(dims, seed)
    measured = None
    error = None
    escalated = ()
    agreement = dict.fromkeys(AGREEMENT_KEYS, False)
    try:
        # every check below reads the same N blocked systems, blocks[t - 1]
        # being the one at delay t
        blocks = block_all(sys)
        rep = zero_report(blocks[tau - 1], policy, seed, pred.normal_rank)
        dual = dual_index(tau, dims.N)
        rank = {("rank_D", tau): rep.rank_D, ("rank_at_zero", tau): rep.rank_at_zero}
        for t, b in enumerate(blocks, 1):
            if t == tau:
                rank["normal_rank", t] = rep.normal_rank
                continue
            pencil = system_pencil(b)
            rank["normal_rank", t] = normal_rank(pencil, policy, seed, pred.normal_rank)
            if t == dual:
                rank["rank_D", t] = numerical_rank(b.D_tau, policy)
                rank["rank_at_zero", t] = rank_at(pencil, 0.0, policy)

        points = [complex(np.cos(theta), np.sin(theta))
                  for theta in _sample_angles(seed, policy.normal_rank_samples)[:LIFT_SAMPLES]]
        worst = max(lift_relation_residual(blocks, Z, policy) for Z in points)

        measured = {
            **_rank_fields(rank, dims, tau),
            "n_finite_nonzero": len(rep.finite_nonzero_zeros),
            "n_boundary_candidates": len(rep.boundary_candidates),
            "candidates_examined": rep.candidates_examined,
            "lift_residual_max": worst,
        }
        agreement = _agreement_from(measured, pred)
        escalated = tuple(sorted(k for k in AGREEMENT_KEYS
                                 if k != "lift_residual" and not agreement[k]))
        if escalated:
            rank, confirmed = _escalate(sys, dims, tau, rank, rep.finite_nonzero_zeros)
            screen = measured
            measured = {**screen, **_rank_fields(rank, dims, tau),
                        "n_finite_nonzero": confirmed}
            measured["screen"] = {k: v for k, v in screen.items() if measured[k] != v}
            agreement = _agreement_from(measured, pred)
    except MultirateError as exc:
        error = f"{type(exc).__name__}: {exc}"
    return TrialRecord(
        dims=dims, tau=tau, seed=seed,
        system_class=classify(dims).value,
        measured=measured,
        predicted=_predicted_dict(pred),
        agreement=agreement,
        agree_all=all(agreement.values()),
        error=error,
        elapsed=time.perf_counter() - t0,
        escalated=escalated,
    )


def trial_row(rec: TrialRecord) -> dict:
    """Compact per-trial row matching the CSV column contract."""
    meas = rec.measured or {}
    return {
        "n": rec.dims.n, "m": rec.dims.m, "p1": rec.dims.p1,
        "p2": rec.dims.p2, "N": rec.dims.N,
        "tau": rec.tau, "seed": rec.seed, "class": rec.system_class,
        "rank_D_meas": meas.get("rank_D"),
        "rank_D_pred": rec.predicted["rank_D"],
        "nrank_meas": meas.get("normal_rank"),
        "nrank_pred": rec.predicted["normal_rank"],
        "mz_meas": meas.get("mult_at_zero"),
        "mz_pred": rec.predicted["mult_at_zero"],
        "minf_meas": meas.get("mult_at_infinity"),
        "minf_pred": rec.predicted["mult_at_infinity"],
        "n_finite_nonzero": meas.get("n_finite_nonzero"),
        "agree_all": rec.agree_all,
    }


def trial_detail(rec: TrialRecord, policy: TolerancePolicy) -> dict:
    """Full payload for a disagreeing trial: everything needed to replay it."""
    return {
        "n": rec.dims.n, "m": rec.dims.m, "p1": rec.dims.p1,
        "p2": rec.dims.p2, "N": rec.dims.N,
        "tau": rec.tau, "seed": rec.seed, "class": rec.system_class,
        "measured": rec.measured,
        "predicted": rec.predicted,
        "agreement": rec.agreement,
        "escalated": list(rec.escalated),
        "error": rec.error,
        "policy": asdict(policy),
    }


@dataclass(frozen=True)
class VerificationReport:
    """Aggregated sweep outcome; a pure function of the grid spec that produced it."""

    suite: str                      # "grid" or "fixtures"
    grid: dict
    policy: dict
    total_trials: int
    failed_trials: int
    escalated_trials: int
    agreement_counts: dict
    agreement_rates: dict
    all_agree: bool
    cells: tuple
    trials: tuple
    disagreements: tuple
    tool_version: str
    timestamp: str

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "grid": self.grid,
            "policy": self.policy,
            "total_trials": self.total_trials,
            "failed_trials": self.failed_trials,
            "escalated_trials": self.escalated_trials,
            "agreement_counts": dict(self.agreement_counts),
            "agreement_rates": dict(self.agreement_rates),
            "all_agree": self.all_agree,
            "cells": list(self.cells),
            "trials": list(self.trials),
            "disagreements": list(self.disagreements),
            "tool_version": self.tool_version,
            "timestamp": self.timestamp,
        }


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def run_grid(spec: GridSpec) -> VerificationReport:
    """Run the whole sweep: trials_per_cell seeded trials for every cell."""
    records: list[TrialRecord] = []
    cell_rows: list[dict] = []
    counter = 0
    for dims, tau in cells(spec):
        agree = 0
        for _ in range(spec.trials_per_cell):
            rec = run_trial(dims, tau, spec.base_seed + counter, spec.policy)
            counter += 1
            records.append(rec)
            agree += rec.agree_all
        cell_rows.append({
            "n": dims.n, "m": dims.m, "p1": dims.p1, "p2": dims.p2,
            "N": dims.N, "tau": tau,
            "trials": spec.trials_per_cell, "agree": agree,
        })

    counts = dict.fromkeys(AGREEMENT_KEYS, 0)
    for rec in records:
        for key in AGREEMENT_KEYS:
            counts[key] += bool(rec.agreement.get(key))
    total = len(records)
    rates = {k: (counts[k] / total if total else 1.0) for k in AGREEMENT_KEYS}
    return VerificationReport(
        suite="grid",
        grid=grid_spec_to_dict(spec),
        policy=asdict(spec.policy),
        total_trials=total,
        failed_trials=sum(1 for r in records if r.error is not None),
        escalated_trials=sum(1 for r in records if r.escalated),
        agreement_counts=counts,
        agreement_rates=rates,
        all_agree=all(r.agree_all for r in records),
        cells=tuple(cell_rows),
        trials=tuple(trial_row(r) for r in records),
        disagreements=tuple(
            trial_detail(r, spec.policy) for r in records if not r.agree_all),
        tool_version=__version__,
        timestamp=_utc_now(),
    )


def _fixture_rank_rows(policy: TolerancePolicy) -> list[dict]:
    rows = []
    for m in (2, 3):
        for p1 in range(1, m):
            w = m - p1
            for N in (2, 3):
                p2 = N * w + 1
                for tau in range(1, N + 1):
                    T = (N - tau) * w
                    # (fixture, n, closed-form rank of D_tau) for this delay
                    cases = [("shift_small_n", n, (N - 1) * p1 + m + n)
                             for n in range(w, T + 1)]
                    if tau <= N - 1:
                        cases += [("shift_large_n", T + q, (tau - 1) * p1 + (N - tau + 1) * m)
                                  for q in (1, 2)]
                    for name, n, expected in cases:
                        sys = fixture(name, Dimensions(n=n, m=m, p1=p1, p2=p2, N=N), tau, 0)
                        meas = numerical_rank(block(sys, tau).D_tau, policy)
                        rows.append({
                            "fixture": name,
                            "n": n, "m": m, "p1": p1, "p2": p2, "N": N,
                            "tau": tau, "expected": expected, "measured": meas,
                            "agree": meas == expected,
                        })
    return rows


def _controllability_rows(policy: TolerancePolicy) -> list[dict]:
    rows = []
    for n in range(1, 7):
        for m in range(1, 4):
            sys = fixture("shift_controllability", Dimensions(n=n, m=m, p1=1, p2=1, N=2), 1, 0)
            for nu in range(1, 5):
                ctrb = np.hstack([
                    np.linalg.matrix_power(sys.A, k) @ sys.B for k in range(nu)])
                meas = numerical_rank(ctrb, policy)
                expected = predict_controllability_rank(n, m, nu)
                rows.append({
                    "fixture": "shift_controllability",
                    "n": n, "m": m, "nu": nu,
                    "expected": expected, "measured": meas,
                    "agree": meas == expected,
                })
    return rows


def run_fixture_suite(policy: TolerancePolicy | None = None) -> VerificationReport:
    """Exact-rank checks on the structured 0/1 fixtures.

    The shift fixtures are swept over every admissible (n, m, p1, N, tau)
    with m <= 3, N <= 3 and p2 at the tallness threshold plus one; the
    controllability fixture over n <= 6, m <= 3, nu <= 4. All ranks must
    match the closed forms exactly, with no genericity caveat: these
    matrices attain the generic values by construction.
    """
    policy = policy or TolerancePolicy()
    rows = _fixture_rank_rows(policy) + _controllability_rows(policy)
    agree = sum(r["agree"] for r in rows)
    total = len(rows)
    return VerificationReport(
        suite="fixtures",
        grid={"shift_m": [2, 3], "shift_N": [2, 3],
              "controllability_n": [1, 2, 3, 4, 5, 6],
              "controllability_m": [1, 2, 3],
              "controllability_nu": [1, 2, 3, 4]},
        policy=asdict(policy),
        total_trials=total,
        failed_trials=0,
        escalated_trials=0,
        agreement_counts={"rank": agree},
        agreement_rates={"rank": agree / total if total else 1.0},
        all_agree=agree == total,
        cells=(),
        trials=tuple(rows),
        disagreements=tuple(r for r in rows if not r["agree"]),
        tool_version=__version__,
        timestamp=_utc_now(),
    )


def emit_report(report: VerificationReport, format: str, path: str | Path) -> None:
    """Write a report as nested JSON or as one CSV row per trial."""
    path = Path(path)
    if format == "json":
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    elif format == "csv":
        if report.suite != "grid":
            raise ValueError(f"csv output needs a grid report, got suite {report.suite!r}")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in report.trials:
            writer.writerow([
                "" if row[col] is None else
                ("true" if row[col] is True else "false" if row[col] is False else row[col])
                for col in CSV_COLUMNS])
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown report format {format!r}, expected json or csv")
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
