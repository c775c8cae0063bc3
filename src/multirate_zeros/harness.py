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
import math
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ._exact import settle
from ._version import __version__
from .blocking import (BlockedSystem, MatrixPencil, block, block_all, lift_relation_residual,
                       system_pencil)
from .errors import MultirateError
from .model import (Dimensions, MultirateSystem, SystemClass, TolerancePolicy, _check_fields,
                    _check_tau, _is_int, classify, fixture, policy_from_dict, random_generic)
# normal_rank is not called here (run_trial reads through normal_ranks), but
# perfbench's tracer reads and wraps harness.normal_rank, so it stays bound
from .numerics import (_evaluate, _ranks, _sample_points, _sample_uniforms,  # noqa: F401
                       normal_rank, normal_ranks, numerical_rank)
from .oracle import dual_index, predict, predict_controllability_rank
from .zeros import ZeroReport, multiplicities, zero_report, zero_report_to_dict

LIFT_RESIDUAL_TOL = 1e-9
LIFT_SAMPLES = 3
# seed of analyze's sample points
ANALYZE_SEED = 0

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

# the checks with no rank content, which exact arbitration leaves as read:
# the lifting residual is a float identity, and the finite nonzero zeros a
# float count
FLOAT_ONLY_KEYS = ("lift_residual", "no_finite_nonzero")

CSV_COLUMNS = (
    "n", "m", "p1", "p2", "N", "tau", "seed", "class",
    "rank_D_meas", "rank_D_pred", "nrank_meas", "nrank_pred",
    "mz_meas", "mz_pred", "minf_meas", "minf_pred",
    "n_finite_nonzero", "agree_all",
)


# the ranges the fixture suite sweeps, as its report lists them
FIXTURE_GRID = {"shift_m": (2, 3), "shift_N": (2, 3), "controllability_n": tuple(range(1, 7)),
                "controllability_m": (1, 2, 3), "controllability_nu": (1, 2, 3, 4)}

# the keys of a grid spec file and the GridSpec attributes that hold them
GRID_FIELDS = {
    "n": "n_values",
    "m": "m_values",
    "N": "N_values",
    "p1": "p1_values",
    "p2_offsets": "p2_offsets",
    "taus": "taus",
    "trials_per_cell": "trials_per_cell",
    "base_seed": "base_seed",
    "policy": "policy",
}


def _grid_field(attr: str) -> str:
    # a GridSpec attribute as its messages name it: by file key, and by
    # attribute where the two differ
    key = next(k for k, a in GRID_FIELDS.items() if a == attr)
    return f"grid field {key!r}" + ("" if key == attr else f" ({attr})")


@dataclass(frozen=True)
class GridSpec:
    """Deterministic enumeration of tall dimension cells to sweep.

    p2 is derived per cell as max(N*(m - p1), 0) + offset, which keeps
    every cell strictly tall for offsets >= 1. p1_values of None means
    1..m for each m. taus is "all" (1..N per cell) or an explicit list,
    silently truncated to taus <= N in cells where N is smaller; a list
    with no tau <= max N is refused, since it would run no trials.

    This is the one check of grid values, for a spec built in Python and
    for one read from a file alike: a bad value is refused with a
    ValueError naming its file key and its attribute (see GRID_FIELDS).
    Lists are kept as tuples. Trial seeds run from base_seed, one a trial,
    and a spec whose last trial seed would reach 2**64, past every seed
    `model._rng` takes, is refused. numpy integers are accepted and kept
    as Python ints.
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
        for name in ("n_values", "m_values", "N_values", "p1_values", "p2_offsets", "taus"):
            if isinstance(getattr(self, name), list):
                object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("n_values", "m_values", "N_values", "p1_values", "p2_offsets"):
            vals = getattr(self, name)
            if name == "p1_values" and vals is None:
                continue
            # p2_offsets >= 1 keeps every cell above the tallness threshold
            if not isinstance(vals, tuple) or not vals \
                    or any(not _is_int(v) or v < 1 for v in vals):
                raise ValueError(f"{_grid_field(name)} must be a nonempty list of ints >= 1, "
                                 f"got {vals!r}")
            object.__setattr__(self, name, tuple(map(int, vals)))
        if any(N < 2 for N in self.N_values):
            raise ValueError(f"{_grid_field('N_values')}: N values must be >= 2, "
                             f"got {self.N_values!r}")
        if self.taus != "all":
            if not isinstance(self.taus, tuple) or not all(_is_int(t) for t in self.taus):
                raise ValueError(f'{_grid_field("taus")} must be "all" or a list of ints, '
                                 f'got {self.taus!r}')
            if any(t < 1 for t in self.taus):
                raise ValueError(f"{_grid_field('taus')}: tau values must be >= 1, "
                                 f"got {self.taus!r}")
            object.__setattr__(self, "taus", tuple(map(int, self.taus)))
        for name, least in (("trials_per_cell", 1), ("base_seed", 0)):
            v = getattr(self, name)
            if not _is_int(v) or v < least:
                raise ValueError(f"{_grid_field(name)} must be an integer >= {least}, "
                                 f"got {v!r}")
            object.__setattr__(self, name, int(v))
        if not isinstance(self.policy, TolerancePolicy):
            raise ValueError(f"{_grid_field('policy')} must be a TolerancePolicy, "
                             f"got {self.policy!r}")
        n_cells = sum(1 for _ in cells(self))
        # a sweep of no trials would report vacuous agreement
        if n_cells == 0:
            raise ValueError(f"{_grid_field('taus')} has no value <= max N = "
                             f"{max(self.N_values)}, so the sweep would run no trials")
        last = self.base_seed + n_cells * self.trials_per_cell - 1
        if last.bit_length() > 64:
            raise ValueError(f"{_grid_field('base_seed')} {self.base_seed} puts the last "
                             f"trial seed at {last}, past the seeds below 2**64")


def grid_spec_from_dict(data: dict) -> GridSpec:
    """Build a GridSpec from parsed JSON, naming any offending field.

    The JSON checks are here; GridSpec checks the values.
    """
    _check_fields(data, "grid spec", GRID_FIELDS, ("n", "m", "N"))
    kwargs = {GRID_FIELDS[key]: v for key, v in data.items()}
    if "policy" in data:
        try:
            kwargs["policy"] = policy_from_dict(data["policy"])
        except ValueError as exc:
            raise ValueError(f"grid spec field 'policy': {exc}") from exc
    return GridSpec(**kwargs)


def grid_spec_to_dict(spec: GridSpec) -> dict:
    out = {}
    for key, attr in GRID_FIELDS.items():
        v = getattr(spec, attr)
        out[key] = list(v) if isinstance(v, tuple) else v
    out["policy"] = asdict(spec.policy)
    return out


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

    measured, agreement and escalated are derived by `_derive`:
    measured["screen"] keeps the float value of each field that the settled
    readings changed, by `_screened`, and escalated lists the agreement keys
    with rank content that disagree on the float readings. n_finite_nonzero
    and lift_residual_max are float readings, never re-read.
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


def _delay_fields(rank: dict, n: int, t: int) -> dict:
    """The rank fields at delay t of a system with n states, from its readings.

    rank maps (quantity, delay) to a reading and holds "normal_rank",
    "rank_D" and "rank_at_zero" at t. The multiplicities come from
    `multiplicities`; the ranks at 0 and at infinity are the normal rank
    less them.
    """
    rho, rank_D = rank["normal_rank", t], rank["rank_D", t]
    mult0, multinf = multiplicities(rho, rank["rank_at_zero", t], rank_D, n)
    return {"rank_D": rank_D, "normal_rank": rho,
            "mult_at_zero": mult0, "mult_at_infinity": multinf,
            "rank_at_zero": rho - mult0, "rank_at_infinity": rho - multinf}


def _screened(fields, rank: dict, settled: dict) -> dict:
    """fields(settled), with "screen" holding fields(rank)'s value of each field
    that settling changed, when any did: the one screen rule of trials and
    `analyze`. fields maps readings, as `_escalate` takes and returns them,
    to a dict of rank fields."""
    measured, read = fields(settled), fields(rank)
    screen = {k: v for k, v in read.items() if measured[k] != v}
    return {**measured, "screen": screen} if screen else measured


def _derive(dims: Dimensions, tau: int, pred, rank: dict, settled: dict,
            report: ZeroReport, worst: float) -> tuple[dict, dict, tuple]:
    """A trial's measured dict, agreement and escalated keys, from its readings alone.

    rank holds the float readings, and settled the same readings as
    `_escalate` returns them: "normal_rank" at every delay, "rank_D" and
    "rank_at_zero" at tau and at its dual delay. The rank fields come from
    `_delay_fields` at the two delays, by `_screened`; tau's zero report and
    the lift residual worst are float readings, never re-read. The screen
    holds the float value of each changed field, so laid over measured it
    gives the float measurement; escalated lists the checks with rank content
    (any but FLOAT_ONLY_KEYS) that disagree there. pred is tau's `predict`
    result. No matrix is read.
    """
    def fields(readings: dict) -> dict:
        dual = _delay_fields(readings, dims.n, dual_index(tau, dims.N))
        return {**_delay_fields(readings, dims.n, tau),
                "normal_rank_by_tau": [readings["normal_rank", t] for t in range(1, dims.N + 1)],
                "dual_mult_at_zero": dual["mult_at_zero"],
                "dual_mult_at_infinity": dual["mult_at_infinity"]}

    measured = {**_screened(fields, rank, settled),
                "n_finite_nonzero": len(report.finite_nonzero_zeros),
                "n_boundary_candidates": len(report.boundary_candidates),
                "candidates_examined": report.candidates_examined,
                "lift_residual_max": worst}
    floats = {**measured, **measured.get("screen", {})}
    escalated = tuple(sorted(k for k, agree in _agreement_from(floats, pred).items()
                             if not agree and k not in FLOAT_ONLY_KEYS))
    return measured, _agreement_from(measured, pred), escalated


def _escalate(sys: MultirateSystem, rank: dict, preds: dict) -> dict:
    """The rank readings, those not at their generic value re-read exactly.

    rank maps (quantity, delay) to a reading of "normal_rank", "rank_D" or
    "rank_at_zero", and preds each delay of a "rank_D" or "rank_at_zero"
    reading to its `predict` result; the generic normal rank is the same at
    every delay. This is the one settlement rule, of trials and `analyze`
    alike: `settle` re-reads every reading off its generic value (a mod-P
    screen, and Bareiss for what it leaves short), and returns the readings
    unchanged when none is off. The exact value either clears a
    disagreement (a tolerance collision) or stands as one. Finite zeros are
    not re-read: a genuine zero almost never sits exactly at a float value,
    so a rank read there settles nothing.
    """
    rho = next(iter(preds.values())).normal_rank
    generic = {("normal_rank", t): rho for q, t in rank if q == "normal_rank"}
    for t, pred in preds.items():
        generic["rank_D", t], generic["rank_at_zero", t] = pred.rank_D, rho - pred.mult_at_zero
    return settle(sys, rank, generic)


def _read(sys: MultirateSystem, taus, zeros_at, policy: TolerancePolicy, seed: int,
          preds: dict) -> tuple[BlockedSystem, dict, dict]:
    """The blocked systems of sys at every delay, their float rank readings, and the zero
    reports at the delays in zeros_at, which are among taus: checked delays, in 1..N.

    One `block_all` stack holds the N blocked systems, and its pencils are
    one stack sharing E: delay t has C_tau[t - 1], D_tau[t - 1] and F[t - 1].
    One stacked svd call reads the N pencils at the first normal-rank
    sample point together with the rank at Z = 0 at the delays t in taus,
    on F[t - 1]: the pencil at 0 is -F, whose singular values are F's.
    `normal_ranks`, stopped at the normal rank of the `predict` results in
    preds (unstopped when preds is empty), carries the normal-rank sweep on
    from the second point for the pencils it leaves open, so a generic trial
    reads every pencil once. rank(D_t) at those delays is one more stacked
    `numerical_rank` call: all real points in real arithmetic. rank maps
    (quantity, delay) to a reading, as `_delay_fields` and `_escalate` take
    it. reports maps each delay in zeros_at to its `zero_report`, given the
    normal rank of the sweep and, as norm(F, 2), the largest singular value
    of the rank-at-zero reading. A system whose blocked matrices overflow is
    refused with a ValueError, since every float reading of it would be
    meaningless; the overflow warns nothing on the way.
    """
    # in order, each delay once
    taus = list(dict.fromkeys(taus))
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = block_all(sys)
        pencils = system_pencil(blocks)
    if not np.isfinite(pencils.F).all():
        raise ValueError("the blocked matrices overflow: the pencils hold non-finite entries")
    E, F, N = pencils.E, pencils.F, len(pencils.F)
    at = [t - 1 for t in taus]
    Z = _sample_points(seed, policy.normal_rank_samples)[0]
    ranks, s = _ranks(np.concatenate([_evaluate(E, F, Z), F[at]]), policy)
    bound = next((pred.normal_rank for pred in preds.values()), None)
    rho = normal_ranks(pencils, policy, seed, bound, first=ranks[:N])
    rank = {("normal_rank", t): r for t, r in enumerate(rho, 1)}
    norm = {}
    for t, r_D, r_0, s_1 in zip(taus, numerical_rank(blocks.D_tau[at], policy),
                                ranks[N:].tolist(), s[N:, 0].tolist()):
        rank["rank_D", t], rank["rank_at_zero", t], norm[t] = r_D, r_0, s_1
    reports = {t: zero_report(MatrixPencil(E, F[t - 1]), t, policy, seed,
                              rank["normal_rank", t], norm[t]) for t in zeros_at}
    return blocks, rank, reports


def run_trial(dims: Dimensions, tau: int, seed: int,
              policy: TolerancePolicy = TolerancePolicy()) -> TrialRecord:
    """Generate, block, measure and compare one random system.

    Beyond the four headline quantities, three structural checks run on the
    same instance: the origin/infinity multiplicity swap at the dual delay
    N - tau + 1, the delay independence of the measured normal rank, and
    the one-step lifting relation between every pair of consecutive
    delays, at LIFT_SAMPLES random real points of either sign with |Z| in
    [2**-0.5, 2**0.5], drawn from the first uniforms behind the normal-rank
    sample points, all in one `lift_relation_residual` call. A trial
    predicts at tau and at the dual delay, reads both with `_read` (the zero
    report at tau only), checks the lift, settles the readings with
    `_escalate` and derives the record from them with `_derive`. Numerical
    failures (an SVD, solve or eigensolver that does not converge) are
    captured in the record, not raised. A numpy integer tau or seed is
    recorded as its Python int.
    """
    pred = predict(dims, tau)
    tau = pred.tau      # checked, and a Python int
    dual = dual_index(tau, dims.N)
    preds = {tau: pred, dual: predict(dims, dual)}
    t0 = time.perf_counter()
    sys = random_generic(dims, seed)
    measured, error, escalated = None, None, ()
    agreement = dict.fromkeys(AGREEMENT_KEYS, False)
    try:
        blocks, rank, reports = _read(sys, (tau, dual), (tau,), policy, seed, preds)
        # real points of either sign with |Z| in [2**-0.5, 2**0.5], from the
        # first uniforms behind the normal-rank points; a scalar 2.0 ** x,
        # since numpy's vectorized power can differ from it in the last bit
        points = [math.copysign(2.0 ** (abs(u) - 0.5), u)
                  for u in _sample_uniforms(seed, policy.normal_rank_samples)[:LIFT_SAMPLES]]
        worst = lift_relation_residual(blocks, points, policy)
        measured, agreement, escalated = _derive(dims, tau, pred, rank,
                                                 _escalate(sys, rank, preds), reports[tau], worst)
    except MultirateError as exc:
        error = f"{type(exc).__name__}: {exc}"
    return TrialRecord(
        dims=dims, tau=tau, seed=int(seed),
        system_class=classify(dims).value,
        measured=measured,
        predicted=_predicted_dict(pred),
        agreement=agreement,
        agree_all=all(agreement.values()),
        error=error,
        elapsed=time.perf_counter() - t0,
        escalated=escalated,
    )


def analyze(sys: MultirateSystem, tau: int | str = "all",
            policy: TolerancePolicy = TolerancePolicy()) -> dict:
    """Zero structure of one system at delay tau, or at every delay for "all".

    Returns the payload `analyze --out` writes, timestamp included. The
    readings and the zero report at each delay come from `_read`, as in a
    trial, with ANALYZE_SEED for the sample points, and every rank field at
    a delay from `_delay_fields`. For a tall system the readings at the
    requested delays are settled by `_escalate`, and `_screened` keeps the
    float value of each field that changed in measured["screen"], by the
    rule of `_derive`. A system that is not
    tall has no predictions: its float readings stand, and predicted and
    agreement are None. The finite nonzero zeros stay a float reading, as
    in trials: their list and multiplicities are those of the zero report,
    and no_finite_nonzero compares their float count.
    """
    dims = sys.dims
    taus = range(1, dims.N + 1) if tau == "all" else [_check_tau(tau, dims.N)]
    preds = ({t: predict(dims, t) for t in taus}
             if classify(dims) is not SystemClass.NOT_TALL else {})
    _, rank, reports = _read(sys, taus, taus, policy, ANALYZE_SEED, preds)
    readings = {(q, t): v for (q, t), v in rank.items() if t in taus}
    settled = _escalate(sys, readings, preds) if preds else readings
    results = []
    for t in taus:
        rep = reports[t]
        measured = {**zero_report_to_dict(rep),
                    **_screened(lambda r: _delay_fields(r, dims.n, t), readings, settled)}
        pred = preds.get(t)
        results.append({"tau": t, "measured": measured,
                        "predicted": pred and _predicted_dict(pred),
                        "agreement": pred and _headline_agreement(
                            dict(measured, n_finite_nonzero=len(rep.finite_nonzero_zeros)),
                            pred)})
    return {
        "system": {**asdict(dims), "class": classify(dims).value},
        "policy": asdict(policy),
        "results": results,
        "all_agree": all(r["agreement"] is None or all(r["agreement"].values())
                         for r in results),
        "tool_version": __version__,
        "timestamp": _utc_now(),
    }


def _trial_header(rec: TrialRecord) -> dict:
    return {**asdict(rec.dims), "tau": rec.tau, "seed": rec.seed, "class": rec.system_class}


def trial_row(rec: TrialRecord) -> dict:
    """Compact per-trial row matching the CSV column contract."""
    meas = rec.measured or {}
    return {
        **_trial_header(rec),
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
        **_trial_header(rec),
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
        # every field, shallow: asdict would deep-copy every trial row
        return dict(vars(self))


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
            **asdict(dims), "tau": tau,
            "trials": spec.trials_per_cell, "agree": agree,
        })

    counts = {k: sum(rec.agreement[k] for rec in records) for k in AGREEMENT_KEYS}
    total = len(records)
    rates = {k: counts[k] / total for k in AGREEMENT_KEYS}
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
    for m in FIXTURE_GRID["shift_m"]:
        for p1 in range(1, m):
            w = m - p1
            for N in FIXTURE_GRID["shift_N"]:
                p2 = N * w + 1
                for tau in range(1, N + 1):
                    T = (N - tau) * w
                    for n in range(w, T + 3 if tau < N else T + 1):
                        name = "shift_small_n" if n <= T else "shift_large_n"
                        dims = Dimensions(n=n, m=m, p1=p1, p2=p2, N=N)
                        expected = predict(dims, tau).rank_D
                        sys = fixture(name, dims, tau)
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
    for n in FIXTURE_GRID["controllability_n"]:
        for m in FIXTURE_GRID["controllability_m"]:
            sys = fixture("shift_controllability", Dimensions(n=n, m=m, p1=1, p2=1, N=2), 1)
            for nu in FIXTURE_GRID["controllability_nu"]:
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


def run_fixture_suite(policy: TolerancePolicy = TolerancePolicy()) -> VerificationReport:
    """Exact-rank checks on the structured 0/1 fixtures.

    The shift fixtures are swept over every admissible (n, m, p1, N, tau)
    with m and N in FIXTURE_GRID and p2 at the tallness threshold plus one;
    the controllability fixture over its n, m and nu there. All ranks must
    match the closed forms exactly, with no genericity caveat: these
    matrices attain the generic values by construction.
    """
    rows = _fixture_rank_rows(policy) + _controllability_rows(policy)
    agree = sum(r["agree"] for r in rows)
    total = len(rows)
    return VerificationReport(
        suite="fixtures",
        grid={k: list(v) for k, v in FIXTURE_GRID.items()},
        policy=asdict(policy),
        total_trials=total,
        failed_trials=0,
        escalated_trials=0,
        agreement_counts={"rank": agree},
        agreement_rates={"rank": agree / total},
        all_agree=agree == total,
        cells=(),
        trials=tuple(rows),
        disagreements=tuple(r for r in rows if not r["agree"]),
        tool_version=__version__,
        timestamp=_utc_now(),
    )


def emit_report(report: VerificationReport, format: str, path: str | Path) -> None:
    """Write a report as nested JSON or as one CSV row per trial."""
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
    _write(path, text)


def _write(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
