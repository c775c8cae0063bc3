"""Monte Carlo sweep machinery: trials, grids, fixture suite, report output."""
from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from multirate_zeros import harness, numerics, zeros
from multirate_zeros.blocking import block, lift_relation_residual, system_pencil
from multirate_zeros.errors import NotTallClass
from multirate_zeros.harness import (AGREEMENT_KEYS, CSV_COLUMNS, LIFT_SAMPLES, GridSpec,
                                     cells, emit_report, grid_spec_from_dict,
                                     grid_spec_to_dict, run_fixture_suite,
                                     run_grid, run_trial)
from multirate_zeros.model import Dimensions, TolerancePolicy, _rng, random_generic
from multirate_zeros.numerics import normal_rank, rank_at
from multirate_zeros.oracle import dual_index
from multirate_zeros.zeros import finite_zero_candidates, zero_report

from conftest import EXAMPLE1_DIMS, LONG_HORIZON_DIMS

SINGLE_CELL = GridSpec(n_values=(1,), m_values=(2,), N_values=(2,),
                       p1_values=(1,), taus=(1,), trials_per_cell=2)


@pytest.fixture(scope="module")
def fixture_report():
    return run_fixture_suite()


@pytest.fixture(scope="module")
def single_cell_report():
    return run_grid(SINGLE_CELL)


class TestRunTrial:
    def test_worked_instance_agrees(self):
        rec = run_trial(EXAMPLE1_DIMS, tau=1, seed=0)
        assert rec.system_class == "MixedTall"
        assert rec.error is None
        assert rec.escalated == ()
        assert rec.measured["rank_D"] == 5
        assert rec.measured["normal_rank"] == 6
        assert rec.measured["mult_at_zero"] == 1
        assert rec.measured["mult_at_infinity"] == 0
        assert rec.measured["n_finite_nonzero"] == 0
        assert rec.agree_all
        assert set(rec.agreement) == set(AGREEMENT_KEYS)
        assert all(rec.agreement.values())

    def test_zero_free_delay(self):
        rec = run_trial(LONG_HORIZON_DIMS, tau=4, seed=0)
        assert rec.measured["mult_at_zero"] == 0
        assert rec.measured["mult_at_infinity"] == 0
        assert rec.agree_all

    def test_duality_and_tau_independence_data(self):
        rec = run_trial(Dimensions(2, 2, 1, 4, 3), tau=2, seed=1)
        meas = rec.measured
        assert meas["dual_mult_at_zero"] == meas["mult_at_infinity"]
        assert meas["dual_mult_at_infinity"] == meas["mult_at_zero"]
        assert len(meas["normal_rank_by_tau"]) == 3
        assert len(set(meas["normal_rank_by_tau"])) == 1
        assert meas["lift_residual_max"] < 1e-9

    @pytest.mark.parametrize("tau", [1, 2, 3])
    def test_each_delays_normal_rank_is_measured_once(self, monkeypatch, tau):
        # N = 3: the zero report measures the pencil at tau, the sweep the rest
        calls = []

        def counting(pencil, *args):
            calls.append(pencil)
            return normal_rank(pencil, *args)

        monkeypatch.setattr(harness, "normal_rank", counting)
        monkeypatch.setattr(zeros, "normal_rank", counting)
        dims = Dimensions(2, 2, 1, 4, 3)
        rec = run_trial(dims, tau=tau, seed=1)
        assert len(calls) == dims.N
        sys = random_generic(dims, 1)
        assert rec.measured["normal_rank_by_tau"] == [
            normal_rank(system_pencil(block(sys, t)), TolerancePolicy(), 1)
            for t in range(1, 4)]

    @pytest.mark.parametrize("tau", [1, 8])
    def test_generic_trial_samples_one_point_per_delay(self, monkeypatch, tau):
        # 53x45 pencils of generic normal rank 36: each of the N sweeps stops
        # at its first point, where the sweep to min(rows, cols) took all 7
        calls = []
        monkeypatch.setattr(numerics, "rank_at", lambda *a: calls.append(a) or rank_at(*a))
        rec = run_trial(LONG_HORIZON_DIMS, tau=tau, seed=0)
        assert rec.agree_all and not rec.escalated
        assert len(calls) == LONG_HORIZON_DIMS.N

    @pytest.mark.parametrize("tau", [1, 2, 3])
    def test_finite_zero_search_runs_once(self, monkeypatch, tau):
        # N = 3: tau = 2 is its own dual, 1 and 3 are each other's
        calls = []

        def counting(*args):
            calls.append(args)
            return finite_zero_candidates(*args)

        monkeypatch.setattr(zeros, "finite_zero_candidates", counting)
        run_trial(Dimensions(2, 2, 1, 4, 3), tau=tau, seed=1)
        assert len(calls) == 1

    def test_lift_check_takes_every_delay_at_each_sample_point(self, monkeypatch):
        # the points are the first LIFT_SAMPLES draws of the trial's stream
        calls, residuals = [], []

        def counting(blocks, Z, policy):
            calls.append(([b.tau for b in blocks], Z))
            residuals.append(lift_relation_residual(blocks, Z, policy))
            return residuals[-1]

        monkeypatch.setattr(harness, "lift_relation_residual", counting)
        rec = run_trial(Dimensions(2, 2, 1, 4, 3), tau=2, seed=1)
        thetas = _rng(1).uniform(0.0, 2.0 * np.pi, LIFT_SAMPLES)
        assert calls == [([1, 2, 3], complex(np.cos(t), np.sin(t))) for t in thetas]
        assert rec.measured["lift_residual_max"] == max(residuals)

    def test_trial_builds_three_philox_generators(self, monkeypatch):
        # the system draw, the normal-rank angles (whose first LIFT_SAMPLES
        # the lift check reuses) and the compression
        numerics._sample_points.cache_clear()
        numerics._sample_angles.cache_clear()
        built = []
        philox = np.random.Philox
        monkeypatch.setattr(np.random, "Philox",
                            lambda *a, **k: built.append(k) or philox(*a, **k))
        rec = run_trial(Dimensions(2, 2, 1, 4, 3), tau=2, seed=1)
        assert rec.escalated == ()
        assert len(built) == 3

    @pytest.mark.parametrize("dims,tau", [
        (Dimensions(2, 2, 1, 4, 3), 1), (Dimensions(2, 2, 1, 4, 3), 2),
        (Dimensions(2, 2, 1, 4, 3), 3), (LONG_HORIZON_DIMS, 1), (LONG_HORIZON_DIMS, 8)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_dual_multiplicities_match_a_full_zero_report(self, dims, tau, seed):
        # a full zero report at the dual delay is the reference reading
        rec = run_trial(dims, tau=tau, seed=seed)
        assert rec.escalated == ()
        dual = dual_index(tau, dims.N)
        ref = zero_report(block(random_generic(dims, seed), dual), TolerancePolicy(), seed)
        assert rec.measured["dual_mult_at_zero"] == ref.mult_at_zero
        assert rec.measured["dual_mult_at_infinity"] == ref.mult_at_infinity

    def test_deterministic_except_elapsed(self):
        a = run_trial(Dimensions(2, 3, 1, 5, 2), tau=2, seed=7)
        b = run_trial(Dimensions(2, 3, 1, 5, 2), tau=2, seed=7)
        for field in dataclasses.fields(a):
            if field.name == "elapsed":
                continue
            assert getattr(a, field.name) == getattr(b, field.name), field.name

    def test_not_tall_dims_rejected(self):
        with pytest.raises(NotTallClass):
            run_trial(Dimensions(1, 2, 1, 2, 2), tau=1, seed=0)


class TestGridSpecValidation:
    def test_empty_axis(self):
        with pytest.raises(ValueError, match="n_values"):
            GridSpec(n_values=(), m_values=(1,), N_values=(2,))

    def test_small_N(self):
        with pytest.raises(ValueError, match="N values"):
            GridSpec(n_values=(1,), m_values=(1,), N_values=(1,))

    def test_zero_offset(self):
        with pytest.raises(ValueError, match="offsets"):
            GridSpec(n_values=(1,), m_values=(1,), N_values=(2,), p2_offsets=(0,))

    def test_bad_taus_string(self):
        with pytest.raises(ValueError, match="taus"):
            GridSpec(n_values=(1,), m_values=(1,), N_values=(2,), taus="some")

    def test_nonpositive_tau(self):
        with pytest.raises(ValueError, match="tau"):
            GridSpec(n_values=(1,), m_values=(1,), N_values=(2,), taus=(0,))

    def test_zero_trials(self):
        with pytest.raises(ValueError, match="trials_per_cell"):
            GridSpec(n_values=(1,), m_values=(1,), N_values=(2,), trials_per_cell=0)

    # a directly built spec is checked like one parsed from JSON
    def test_float_trials_per_cell(self):
        with pytest.raises(ValueError, match="trials_per_cell"):
            GridSpec(n_values=(1,), m_values=(2,), N_values=(2,), trials_per_cell=1.5)

    def test_float_base_seed(self):
        with pytest.raises(ValueError, match="base_seed"):
            GridSpec(n_values=(1,), m_values=(2,), N_values=(2,), base_seed=0.5)

    def test_float_tau(self):
        with pytest.raises(ValueError, match="taus"):
            GridSpec(n_values=(1,), m_values=(2,), N_values=(2,), taus=(1.5,))

    # a non-integer axis value would fail mid-sweep, in the cell that uses it
    def test_float_axis_value(self):
        with pytest.raises(ValueError, match="n_values"):
            GridSpec(n_values=(1, 1.5), m_values=(2,), N_values=(2,), trials_per_cell=1)

    def test_bool_axis_value(self):
        with pytest.raises(ValueError, match="m_values"):
            GridSpec(n_values=(1,), m_values=(2, True), N_values=(2,), trials_per_cell=1)

    def test_float_offset(self):
        with pytest.raises(ValueError, match="p2_offsets"):
            GridSpec(n_values=(1,), m_values=(2,), N_values=(2,), p2_offsets=(1, 2.0),
                     trials_per_cell=1)


class TestCells:
    def test_p2_derivation(self):
        spec = GridSpec(n_values=(1,), m_values=(3,), N_values=(3,),
                        p1_values=(1,), p2_offsets=(2,), taus=(1,))
        (dims, tau), = list(cells(spec))
        assert dims == Dimensions(n=1, m=3, p1=1, p2=3 * 2 + 2, N=3)
        assert tau == 1

    def test_fast_tall_offset_from_zero(self):
        # p1 > m makes N*(m - p1) negative; p2 is offset from zero instead
        spec = GridSpec(n_values=(1,), m_values=(1,), N_values=(2,),
                        p1_values=(3,), p2_offsets=(1,), taus=(1,))
        (dims, _), = list(cells(spec))
        assert dims.p2 == 1

    def test_tau_all_expands_per_cell(self):
        spec = GridSpec(n_values=(1,), m_values=(1,), N_values=(2, 3),
                        p1_values=(2,), taus="all")
        taus_by_N = {}
        for dims, tau in cells(spec):
            taus_by_N.setdefault(dims.N, []).append(tau)
        assert taus_by_N == {2: [1, 2], 3: [1, 2, 3]}

    def test_explicit_taus_truncated_to_N(self):
        spec = GridSpec(n_values=(1,), m_values=(1,), N_values=(2,),
                        p1_values=(2,), taus=(1, 5))
        assert [tau for _, tau in cells(spec)] == [1]

    def test_p1_defaults_to_one_through_m(self):
        spec = GridSpec(n_values=(1,), m_values=(3,), N_values=(2,), taus=(1,))
        assert [dims.p1 for dims, _ in cells(spec)] == [1, 2, 3]

    def test_enumeration_order(self):
        spec = GridSpec(n_values=(1, 2), m_values=(1,), N_values=(2,),
                        p1_values=(1, 2), taus=(1,))
        key = [(dims.n, dims.p1) for dims, _ in cells(spec)]
        assert key == [(1, 1), (1, 2), (2, 1), (2, 2)]


class TestRunGrid:
    def test_single_cell_report(self):
        report = run_grid(SINGLE_CELL)
        assert report.suite == "grid"
        assert report.total_trials == 2
        assert report.failed_trials == 0
        assert report.all_agree
        assert report.agreement_rates == {k: 1.0 for k in AGREEMENT_KEYS}
        assert report.agreement_counts == {k: 2 for k in AGREEMENT_KEYS}
        assert report.disagreements == ()
        assert len(report.cells) == 1
        assert report.cells[0]["agree"] == 2
        assert report.grid == grid_spec_to_dict(SINGLE_CELL)

    # a sweep of no trials would report all_agree over nothing, so a spec
    # that leaves no cell to run is refused when it is built
    def test_empty_tau_list_is_refused(self):
        with pytest.raises(ValueError, match="taus"):
            GridSpec(n_values=(1,), m_values=(1,), N_values=(2,),
                     p1_values=(2,), taus=())

    def test_taus_above_every_N_are_refused(self):
        with pytest.raises(ValueError, match="taus"):
            GridSpec(n_values=(1,), m_values=(1,), N_values=(2, 3),
                     p1_values=(2,), taus=(4, 5))

    def test_seed_schedule_is_sequential(self):
        spec = GridSpec(n_values=(1,), m_values=(2,), N_values=(2,),
                        p1_values=(1,), taus=(1, 2), trials_per_cell=3,
                        base_seed=10)
        report = run_grid(spec)
        assert [row["seed"] for row in report.trials] == [10, 11, 12, 13, 14, 15]

    def test_first_trial_independent_of_cell_budget(self):
        one = run_grid(dataclasses.replace(SINGLE_CELL, trials_per_cell=1))
        two = run_grid(SINGLE_CELL)
        assert one.trials[0] == two.trials[0]

    def test_trial_rows_carry_predictions(self):
        report = run_grid(SINGLE_CELL)
        row = report.trials[0]
        assert row["class"] == "MixedTall"
        assert row["rank_D_meas"] == row["rank_D_pred"]
        assert row["nrank_meas"] == row["nrank_pred"]
        assert row["agree_all"] is True


class TestGridSpecDict:
    def test_round_trip(self):
        for spec in (SINGLE_CELL,
                     GridSpec(n_values=(1, 2), m_values=(2,), N_values=(2, 3),
                              p2_offsets=(1, 2), trials_per_cell=4, base_seed=9)):
            assert grid_spec_from_dict(grid_spec_to_dict(spec)) == spec

    def test_missing_required_field(self):
        with pytest.raises(ValueError, match="'n'"):
            grid_spec_from_dict({"m": [1], "N": [2]})

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="n_values"):
            grid_spec_from_dict({"n": [1], "m": [1], "N": [2], "n_values": [1]})

    def test_non_list_axis(self):
        with pytest.raises(ValueError, match="'m'"):
            grid_spec_from_dict({"n": [1], "m": 3, "N": [2]})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ValueError, match="'n'"):
            grid_spec_from_dict({"n": [True], "m": [1], "N": [2]})

    def test_bad_taus(self):
        with pytest.raises(ValueError, match="taus"):
            grid_spec_from_dict({"n": [1], "m": [1], "N": [2], "taus": "odd"})

    def test_policy_override(self):
        spec = grid_spec_from_dict(
            {"n": [1], "m": [1], "N": [2], "policy": {"rel_rank_tol": 1e-7}})
        assert spec.policy.rel_rank_tol == 1e-7
        assert spec.policy.zero_radius == TolerancePolicy().zero_radius

    def test_not_a_dict(self):
        with pytest.raises(ValueError, match="JSON object"):
            grid_spec_from_dict([1, 2])


class TestFixtureSuite:
    def test_all_agree(self, fixture_report):
        report = fixture_report
        assert report.suite == "fixtures"
        assert report.all_agree
        assert report.disagreements == ()
        assert report.agreement_rates == {"rank": 1.0}

    def test_contains_both_shift_regimes(self, fixture_report):
        report = fixture_report
        small = [r for r in report.trials if r["fixture"] == "shift_small_n"]
        large = [r for r in report.trials if r["fixture"] == "shift_large_n"]
        assert small and large
        row = next(r for r in small
                   if (r["n"], r["m"], r["p1"], r["N"], r["tau"]) == (2, 3, 1, 2, 1))
        assert row["expected"] == row["measured"] == 6
        row = next(r for r in large
                   if (r["n"], r["m"], r["p1"], r["N"], r["tau"]) == (3, 3, 1, 2, 1))
        assert row["expected"] == row["measured"] == 6

    def test_controllability_rows(self, fixture_report):
        report = fixture_report
        ctrb = [r for r in report.trials if r["fixture"] == "shift_controllability"]
        assert len(ctrb) == 6 * 3 * 4
        row = next(r for r in ctrb if (r["n"], r["m"], r["nu"]) == (4, 2, 2))
        assert row["expected"] == row["measured"] == 4
        saturated = next(r for r in ctrb if (r["n"], r["m"], r["nu"]) == (2, 3, 4))
        assert saturated["measured"] == 2


class TestEmitReport:
    def test_json_round_trip(self, single_cell_report, tmp_path):
        report = single_cell_report
        path = tmp_path / "report.json"
        emit_report(report, "json", path)
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(report.to_dict(), sort_keys=True))

    def test_csv_shape_and_values(self, single_cell_report, tmp_path):
        report = single_cell_report
        path = tmp_path / "report.csv"
        emit_report(report, "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + report.total_trials
        first = lines[1].split(",")
        assert first[:7] == ["1", "2", "1", "3", "2", "1", "0"]
        assert first[CSV_COLUMNS.index("agree_all")] == "true"

    def test_csv_rejects_fixture_suite(self, tmp_path):
        with pytest.raises(ValueError, match="grid report"):
            emit_report(run_fixture_suite(), "csv", tmp_path / "x.csv")

    def test_unknown_format(self, single_cell_report, tmp_path):
        report = single_cell_report
        with pytest.raises(ValueError, match="format"):
            emit_report(report, "yaml", tmp_path / "x.yaml")

    def test_unwritable_path(self, single_cell_report, tmp_path):
        report = single_cell_report
        with pytest.raises(OSError, match="cannot write report"):
            emit_report(report, "json", tmp_path / "missing" / "x.json")

    def test_fixture_suite_json(self, tmp_path):
        path = tmp_path / "fixtures.json"
        emit_report(run_fixture_suite(), "json", path)
        payload = json.loads(path.read_text())
        assert payload["suite"] == "fixtures"
        assert payload["all_agree"] is True
