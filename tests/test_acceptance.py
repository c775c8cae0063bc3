"""Acceptance gate: ten criteria, one printed pass/fail line each.

Every sweep here is executed twice from scratch so the final criterion can
compare complete payloads for bytewise reproducibility. The second pass of
the 9000-trial grid runs in a fresh Python process, started before the
in-process pass so the two overlap, which also catches any state a process
keeps between passes (module caches, for instance). Tolerances are the
package defaults; the lifting-residual bound (1e-9) and the blocked-zero
matching bound (1e-8 relative) are pinned inside the checks.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from multirate_zeros.blocking import block, fast_subsystem, system_pencil
from multirate_zeros.harness import (LIFT_RESIDUAL_TOL, GridSpec, grid_spec_to_dict,
                                     run_fixture_suite, run_grid)
from multirate_zeros.model import Dimensions, TolerancePolicy, random_generic
from multirate_zeros.zeros import finite_zero_candidates

WORKED_SPEC = GridSpec(n_values=(1,), m_values=(3,), N_values=(2,),
                       p1_values=(1,), p2_offsets=(1,), taus=(1,),
                       trials_per_cell=20, base_seed=0)

EXTREME_SPEC = GridSpec(n_values=(5,), m_values=(5,), N_values=(8,),
                        p1_values=(3,), p2_offsets=(8,), taus="all",
                        trials_per_cell=5, base_seed=0)

GRID_SPEC = GridSpec(n_values=(1, 2, 3, 4, 5), m_values=(1, 2, 3, 4),
                     N_values=(2, 3, 4), p1_values=None, p2_offsets=(1, 2),
                     taus="all", trials_per_cell=10, base_seed=0)

POWER_TOL = 1e-8


SRC = Path(__file__).resolve().parents[1] / "src"

# one grid pass in a fresh process: prints the canonical payload of the spec
# given as JSON on the command line
GRID_PASS = """
import json, sys
from multirate_zeros.harness import grid_spec_from_dict, run_grid
payload = run_grid(grid_spec_from_dict(json.loads(sys.argv[1]))).to_dict()
payload.pop("timestamp")
sys.stdout.write(json.dumps(payload, sort_keys=True))
"""


def canon(report) -> str:
    d = report.to_dict()
    d.pop("timestamp")
    return json.dumps(d, sort_keys=True)


@pytest.fixture(scope="module")
def worked_reports():
    return run_grid(WORKED_SPEC), run_grid(WORKED_SPEC)


@pytest.fixture(scope="module")
def extreme_reports():
    return run_grid(EXTREME_SPEC), run_grid(EXTREME_SPEC)


@pytest.fixture(scope="module")
def grid_reports():
    """The grid report, and the canonical payload of a second pass in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    child = subprocess.Popen(
        [sys.executable, "-c", GRID_PASS, json.dumps(grid_spec_to_dict(GRID_SPEC))],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    try:
        report = run_grid(GRID_SPEC)
    finally:
        out, err = child.communicate()
    assert child.returncode == 0, err
    return report, out


@pytest.fixture(scope="module")
def fixture_reports():
    return run_fixture_suite(), run_fixture_suite()


def _power_rows() -> list[dict]:
    """Blocked zeros of square invertible-D fast systems vs N-th powers."""
    rows = []
    for n in (1, 2, 3):
        for m in (1, 2):
            for N in (2, 3):
                for seed in range(10):
                    dims = Dimensions(n=n, m=m, p1=m, p2=1, N=N)
                    sys = random_generic(dims, seed)
                    blocked = np.array(finite_zero_candidates(
                        system_pencil(fast_subsystem(block(sys, 1))), TolerancePolicy()))
                    unblocked = np.linalg.eigvals(
                        sys.A - sys.B @ np.linalg.solve(sys.Df, sys.Cf))
                    powers = unblocked ** N
                    remaining = list(blocked)
                    worst = 0.0
                    for w in powers:
                        j = min(range(len(remaining)),
                                key=lambda i: abs(remaining[i] - w))
                        err = abs(remaining.pop(j) - w) / max(1.0, abs(w))
                        worst = max(worst, err)
                    rows.append({
                        "n": n, "m": m, "N": N, "seed": seed,
                        "blocked_zeros": [
                            {"re": z.real, "im": z.imag}
                            for z in np.sort_complex(blocked)],
                        "unblocked_zero_powers": [
                            {"re": w.real, "im": w.imag}
                            for w in np.sort_complex(powers)],
                        "max_rel_err": worst,
                    })
    return rows


@pytest.fixture(scope="module")
def power_payloads():
    return _power_rows(), _power_rows()


def _criterion(capsys, label: str, desc: str, check) -> None:
    try:
        check()
    except BaseException:
        with capsys.disabled():
            print(f"{label}: FAIL - {desc}")
        raise
    with capsys.disabled():
        print(f"{label}: PASS - {desc}")


def test_ac1_worked_instance(worked_reports, capsys):
    def check():
        report = worked_reports[0]
        assert report.total_trials == 20
        assert report.escalated_trials == 0
        for row in report.trials:
            assert (row["n"], row["m"], row["p1"], row["p2"],
                    row["N"], row["tau"]) == (1, 3, 1, 5, 2, 1)
            assert row["rank_D_meas"] == 5
            assert row["nrank_meas"] == 6
            assert row["mz_meas"] == 1
            assert row["minf_meas"] == 0
            assert row["n_finite_nonzero"] == 0
            assert row["agree_all"] is True
        assert report.all_agree
    _criterion(capsys, "AC1",
               "20 seeds at (n,m,p1,p2,N)=(1,3,1,5,2), tau=1: rank D 5, "
               "normal rank 6, one zero at the origin, none at infinity, "
               "none elsewhere, integer exact under the default policy",
               check)


def test_ac2_extreme_delays(extreme_reports, capsys):
    expected_zero = {1: 5, 2: 3, 3: 1, 4: 0, 5: 0, 6: 0, 7: 0, 8: 0}
    expected_inf = {1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 1, 7: 3, 8: 5}

    def check():
        report = extreme_reports[0]
        assert report.total_trials == 8 * 5
        taus_seen = set()
        for row in report.trials:
            assert (row["n"], row["m"], row["p1"], row["p2"],
                    row["N"]) == (5, 5, 3, 24, 8)
            tau = row["tau"]
            taus_seen.add(tau)
            assert row["mz_meas"] == row["mz_pred"] == expected_zero[tau]
            assert row["minf_meas"] == row["minf_pred"] == expected_inf[tau]
            assert row["rank_D_meas"] == row["rank_D_pred"]
            assert row["nrank_meas"] == row["nrank_pred"]
            assert row["agree_all"] is True
        assert taus_seen == set(range(1, 9))
        assert report.all_agree
    _criterion(capsys, "AC2",
               "(n,m,p1,p2,N)=(5,5,3,24,8): all four quantities match the "
               "predictions at every tau 1..8, 5 seeds each, including the "
               "origin/infinity multiplicity staircases",
               check)


def test_ac3_grid_agreement(grid_reports, capsys):
    def check():
        report = grid_reports[0]
        assert report.total_trials == 9000
        assert report.failed_trials == 0
        for key in ("rank_D", "normal_rank", "mult_at_zero", "mult_at_infinity"):
            assert report.agreement_rates[key] == 1.0
        assert report.all_agree
    _criterion(capsys, "AC3",
               "9000-trial grid (n 1..5, m 1..4, p1 1..m, N 2..4, two "
               "tallness offsets, all tau, 10 seeds): 100% agreement on "
               "rank D, normal rank and both multiplicities",
               check)


def test_ac4_zero_freeness(grid_reports, capsys):
    def check():
        report = grid_reports[0]
        assert report.agreement_rates["no_finite_nonzero"] == 1.0
        assert all(row["n_finite_nonzero"] == 0 for row in report.trials)
    _criterion(capsys, "AC4",
               "no trial in the grid has a finite zero away from the origin",
               check)


def test_ac5_duality(grid_reports, capsys):
    def check():
        assert grid_reports[0].agreement_rates["duality"] == 1.0
    _criterion(capsys, "AC5",
               "origin and infinity multiplicities swap at the dual delay "
               "N-tau+1 in every grid trial",
               check)


def test_ac6_delay_independence(grid_reports, capsys):
    def check():
        assert grid_reports[0].agreement_rates["tau_independent"] == 1.0
    _criterion(capsys, "AC6",
               "the measured normal rank is independent of the delay in "
               "every grid trial",
               check)


def test_ac7_lift_residual(grid_reports, capsys):
    def check():
        assert LIFT_RESIDUAL_TOL == 1e-9
        assert grid_reports[0].agreement_rates["lift_residual"] == 1.0
    _criterion(capsys, "AC7",
               "the one-step lifting identity holds below 1e-9 at random "
               "real points in every grid trial",
               check)


def test_ac8_fixture_suite(fixture_reports, capsys):
    def check():
        report = fixture_reports[0]
        assert report.all_agree
        assert report.disagreements == ()
        assert all(row["agree"] for row in report.trials)
        ctrb = {(r["n"], r["m"], r["nu"]) for r in report.trials
                if r["fixture"] == "shift_controllability"}
        assert ctrb == {(n, m, nu) for n in range(1, 7)
                        for m in range(1, 4) for nu in range(1, 5)}
        assert any(r["fixture"] == "shift_small_n" for r in report.trials)
        assert any(r["fixture"] == "shift_large_n" for r in report.trials)
    _criterion(capsys, "AC8",
               "structured 0/1 fixtures: every rank matches its closed form "
               "exactly, including controllability over n 1..6, m 1..3, "
               "nu 1..4",
               check)


def test_ac9_blocked_zero_powers(power_payloads, capsys):
    def check():
        rows = power_payloads[0]
        assert len(rows) == 3 * 2 * 2 * 10
        for row in rows:
            assert len(row["blocked_zeros"]) == row["n"]
            assert row["max_rel_err"] <= POWER_TOL, row
    _criterion(capsys, "AC9",
               "square fast blocks with invertible D: the blocked zeros are "
               "the N-th powers of the unblocked zeros within 1e-8 relative "
               "(n 1..3, m=p1 in {1,2}, N in {2,3}, 10 seeds)",
               check)


def test_ac10_reproducibility(worked_reports, extreme_reports, grid_reports,
                              fixture_reports, power_payloads, capsys):
    def check():
        for a, b in (worked_reports, extreme_reports, fixture_reports):
            assert canon(a) == canon(b)
        # the grid's second pass ran in another process
        report, other_process = grid_reports
        assert canon(report) == other_process
        a, b = power_payloads
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    _criterion(capsys, "AC10",
               "rerunning every sweep above reproduces byte-identical JSON "
               "payloads apart from the timestamp, the grid in a fresh process",
               check)
