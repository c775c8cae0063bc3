"""Monte Carlo sweep machinery: trials, grids, fixture suite, report output."""
from __future__ import annotations

import dataclasses
import importlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multirate_zeros import harness, numerics, zeros
from multirate_zeros.blocking import block, lift_relation_residual, system_pencil
from multirate_zeros.cli import main
from multirate_zeros.errors import NotTallClass, TauOutOfRange
from multirate_zeros.harness import (AGREEMENT_KEYS, CSV_COLUMNS, LIFT_SAMPLES, GridSpec,
                                     cells, emit_report, grid_spec_from_dict,
                                     grid_spec_to_dict, run_fixture_suite,
                                     run_grid, run_trial)
from multirate_zeros.model import (Dimensions, MultirateSystem, TolerancePolicy,
                                   fixture, random_generic, save_system)
from multirate_zeros.numerics import normal_rank, normal_ranks, numerical_rank, rank_at
from multirate_zeros.oracle import dual_index, predict
from multirate_zeros.zeros import finite_zero_candidates, multiplicities, zero_report

from conftest import EXAMPLE1_DIMS, LONG_HORIZON_DIMS, at_delay, pencil_count

# the acceptance grid's staircase cells (p1 < m), the extreme cell, and the
# dims of the seven escalating grid trials perfbench replays
NORM_DIMS = list(dict.fromkeys(
    [Dimensions(n, m, p1, N * (m - p1) + off, N) for n in range(1, 6) for m in (2, 3, 4)
     for p1 in range(1, m) for off in (1, 2) for N in (2, 3, 4)]
    + [Dimensions(5, 5, 3, 24, 8)]
    + [Dimensions(*d) for d in ((1, 4, 4, 1, 4), (2, 4, 4, 1, 4), (2, 4, 4, 2, 4),
                                (3, 2, 2, 1, 4), (3, 2, 2, 2, 3), (3, 3, 3, 1, 4),
                                (3, 3, 3, 1, 4))]))


def shift_fixture_cases() -> list[tuple[str, Dimensions, int]]:
    """Every (name, dims, tau) of the fixture suite's shift fixtures."""
    return [(r["fixture"], Dimensions(r["n"], r["m"], r["p1"], r["p2"], r["N"]), r["tau"])
            for r in harness._fixture_rank_rows(TolerancePolicy())]


def svd_module():
    # the module whose svd numpy's norm and cond call: numpy.linalg._linalg
    # from numpy 2, numpy.linalg.linalg before
    try:
        return importlib.import_module("numpy.linalg._linalg")
    except ImportError:
        return importlib.import_module("numpy.linalg.linalg")


SINGLE_CELL = GridSpec(n_values=(1,), m_values=(2,), N_values=(2,),
                       p1_values=(1,), taus=(1,), trials_per_cell=2)


@pytest.fixture(scope="module")
def fixture_report():
    return run_fixture_suite()


@pytest.fixture(scope="module")
def single_cell_report():
    return run_grid(SINGLE_CELL)


class TestRunTrial:
    @pytest.mark.parametrize("tau", [2.0, True, 1.5])
    def test_non_integer_tau_refused(self, tau):
        # 2.0 escaped as a TypeError from indexing a list of delays
        with pytest.raises(TauOutOfRange, match="must be an integer"):
            run_trial(Dimensions(2, 2, 1, 4, 3), tau, 0)

    def test_numpy_integer_tau_reads_as_its_int(self):
        dims = Dimensions(2, 2, 1, 4, 3)
        rec, ref = run_trial(dims, np.int64(2), 1), run_trial(dims, 2, 1)
        assert (rec.measured, rec.agreement) == (ref.measured, ref.agreement)

    def test_numpy_integer_tau_and_seed_are_recorded_as_ints(self):
        # np.int64 in the record made json.dumps raise TypeError
        rec = run_trial(Dimensions(*map(np.int64, (2, 2, 1, 4, 3))), np.int64(2), np.int64(1))
        payload = dataclasses.asdict(rec)
        del payload["elapsed"]
        ref = dataclasses.asdict(run_trial(Dimensions(2, 2, 1, 4, 3), 2, 1))
        del ref["elapsed"]
        assert json.dumps(payload, sort_keys=True) == json.dumps(ref, sort_keys=True)
        assert (type(rec.tau), type(rec.seed)) == (int, int)

    # a float search read a shadow of the zero at infinity as a finite
    # nonzero zero in each of these held-out trials
    @pytest.mark.parametrize("dims,tau,seed", [((4, 3, 2, 5, 4), 3, 15433),
                                               ((5, 4, 3, 5, 4), 4, 55860),
                                               ((4, 4, 3, 6, 4), 4, 63815)])
    def test_held_out_shadows_of_infinity_agree(self, dims, tau, seed):
        rec = run_trial(Dimensions(*dims), tau, seed)
        assert rec.agree_all, rec.agreement
        assert rec.measured["n_finite_nonzero"] == 0

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
        # N = 3: one stacked sweep reads every delay, the zero report at tau none
        sweeps, singles = [], []

        def stacked(pencils, *args, **kwargs):
            sweeps.append(pencil_count(pencils))
            return normal_ranks(pencils, *args, **kwargs)

        monkeypatch.setattr(harness, "normal_ranks", stacked)
        monkeypatch.setattr(zeros, "normal_rank", lambda *a: singles.append(a) or normal_rank(*a))
        dims = Dimensions(2, 2, 1, 4, 3)
        rec = run_trial(dims, tau=tau, seed=1)
        assert sweeps == [dims.N]
        assert singles == []
        sys = random_generic(dims, 1)
        assert rec.measured["normal_rank_by_tau"] == [
            normal_rank(system_pencil(block(sys, t)), TolerancePolicy(), 1)
            for t in range(1, 4)]

    @pytest.mark.parametrize("tau", [1, 8])
    def test_generic_trial_samples_one_point_per_delay(self, monkeypatch, tau):
        # 53x45 pencils of generic normal rank 36: every delay's sweep stops
        # at the first point, which one svd call reads on a stack of N, with
        # the rank at 0 at tau and its dual; rank(D_tau) at both is one more
        stacks = []
        ranks = numerics._ranks
        for module in (numerics, harness):
            monkeypatch.setattr(module, "_ranks",
                                lambda M, policy: stacks.append(M.shape) or ranks(M, policy))
        rec = run_trial(LONG_HORIZON_DIMS, tau=tau, seed=0)
        assert rec.agree_all and not rec.escalated
        assert [shape for shape in stacks if len(shape) == 3] == [
            (LONG_HORIZON_DIMS.N + 2, 53, 45), (2, 48, 40)]

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

    @pytest.mark.parametrize("tau", [1, 2, 3])
    def test_zero_search_takes_its_pencil_from_the_readers_stack(self, monkeypatch, tau):
        # one system_pencil call a trial builds the stack; the search reads
        # its entry at tau rather than building the pencil again
        built, searched = [], []
        monkeypatch.setattr(harness, "system_pencil",
                            lambda blocks: built.append(len(blocks.tau)) or system_pencil(blocks))
        monkeypatch.setattr(harness, "zero_report", lambda pencil, t, *args: searched.append(
            (pencil, t)) or zeros.zero_report(pencil, t, *args))
        dims = Dimensions(2, 2, 1, 4, 3)
        run_trial(dims, tau=tau, seed=1)
        assert built == [dims.N]
        [(pencil, t)] = searched
        want = system_pencil(block(random_generic(dims, 1), tau))
        assert t == tau
        assert np.array_equal(pencil.E, want.E) and np.array_equal(pencil.F, want.F)

    def test_lift_check_takes_every_delay_at_each_sample_point(self, monkeypatch):
        # the points are real, from the first LIFT_SAMPLES uniforms behind the
        # normal-rank points, with |Z| in [2**-0.5, 2**0.5], all in one call.
        # At seed 6 numpy's vectorized 2.0 ** x differs from the scalar one in
        # the last bit of a point; at seed 1 the two agree
        calls, residuals = [], []

        def counting(blocks, Z, policy):
            calls.append((list(blocks.tau), Z))
            residuals.append(lift_relation_residual(blocks, Z, policy))
            return residuals[-1]

        monkeypatch.setattr(harness, "lift_relation_residual", counting)
        for seed in (1, 6):
            calls.clear()
            residuals.clear()
            rec = run_trial(Dimensions(2, 2, 1, 4, 3), tau=2, seed=seed)
            rng = np.random.Generator(np.random.Philox(key=seed + (1 << 64)))
            u = rng.uniform(-1.0, 1.0, LIFT_SAMPLES)
            assert calls == [([1, 2, 3],
                              [float(np.copysign(2.0 ** (abs(x) - 0.5), x)) for x in u])]
            (_, points), = calls
            assert all(type(Z) is float and 2**-0.5 <= abs(Z) <= 2**0.5 for Z in points)
            assert rec.measured["lift_residual_max"] == residuals[0]

    @pytest.mark.parametrize("dims", [EXAMPLE1_DIMS, Dimensions(3, 2, 1, 5, 4),
                                      Dimensions(2, 1, 3, 1, 4), LONG_HORIZON_DIMS])
    def test_lift_residual_is_small_at_the_real_points(self, dims):
        for seed in range(5):
            for tau in (1, dims.N):
                assert run_trial(dims, tau=tau, seed=seed).measured["lift_residual_max"] < 1e-9

    def test_trial_builds_two_philox_generators(self, monkeypatch):
        # the system draw (keyed by the seed) and the uniforms behind the
        # normal-rank and lift points (keyed by seed + 2**64); the finite-zero
        # reduction draws nothing
        numerics._sample_points.cache_clear()
        numerics._sample_uniforms.cache_clear()
        built = []
        philox = np.random.Philox
        monkeypatch.setattr(np.random, "Philox",
                            lambda *a, **k: built.append(k) or philox(*a, **k))
        rec = run_trial(Dimensions(2, 2, 1, 4, 3), tau=2, seed=1)
        assert rec.escalated == ()
        assert sorted(k["key"] for k in built) == [1, 1 + (1 << 64)]

    @pytest.mark.parametrize("dims,tau", [
        (Dimensions(2, 2, 1, 4, 3), 1), (Dimensions(2, 2, 1, 4, 3), 2),
        (Dimensions(2, 2, 1, 4, 3), 3), (LONG_HORIZON_DIMS, 1), (LONG_HORIZON_DIMS, 8)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_dual_multiplicities_match_a_full_zero_report(self, dims, tau, seed):
        # the reference reads the dual delay's pencil alone: its unbounded
        # one-pencil normal rank, rank(D_tau) and rank at 0
        rec = run_trial(dims, tau=tau, seed=seed)
        assert rec.escalated == ()
        policy = TolerancePolicy()
        blk = block(random_generic(dims, seed), dual_index(tau, dims.N))
        pencil = system_pencil(blk)
        ref = multiplicities(normal_rank(pencil, policy, seed), rank_at(pencil, 0.0, policy),
                             numerical_rank(blk.D_tau, policy), dims.n)
        assert (rec.measured["dual_mult_at_zero"], rec.measured["dual_mult_at_infinity"]) == ref

    @pytest.mark.parametrize("dims,tau,svds", [
        (Dimensions(3, 3, 1, 9, 4), 2, 7), (Dimensions(5, 5, 3, 24, 8), 3, 7),
        (Dimensions(2, 4, 4, 2, 4), 1, 5)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_svd_calls_per_generic_trial(self, monkeypatch, dims, tau, svds, seed):
        # one svd reads every pencil at the first sample point and the rank at
        # 0 at tau and its dual, one rank(D_tau) at both, and one sits inside
        # the lift check's cond; the rest are the reduction's: its row
        # compression of D and of C2 in each step, where the dual run has no
        # D to compress. No norm is taken: the reduction's threshold reuses
        # the rank-at-zero sigma_1
        svds_seen, norms = [], []
        linalg = svd_module()
        svd, norm = linalg.svd, linalg.norm
        for module in (linalg, np.linalg):
            monkeypatch.setattr(module, "svd", lambda *a, **k: svds_seen.append(1) or svd(*a, **k))
            monkeypatch.setattr(module, "norm",
                                lambda *a, **k: norms.append(1) or norm(*a, **k))
        rec = run_trial(dims, tau, seed)
        assert rec.agree_all and not rec.escalated
        assert len(svds_seen) == svds
        assert norms == []

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


def random_read_cases():
    # (system maker taking the seed, delays) for random systems
    return [pytest.param(lambda seed, d=dims: random_generic(d, seed), taus, id=name)
            for name, dims, taus in [
                ("own-dual", Dimensions(2, 2, 1, 4, 3), (2, 2)),  # tau = 2 is its own dual at N = 3
                ("dual-pair", Dimensions(2, 2, 1, 4, 3), (3, 1)),
                ("example1", EXAMPLE1_DIMS, (1, 2)),
                ("long-pair", LONG_HORIZON_DIMS, (1, 8)),
                ("long-all", LONG_HORIZON_DIMS, range(1, 9))]]  # analyze's --tau all


def shift_fixture_read_cases():
    # (system maker ignoring the seed, every delay) for the shift fixtures
    return [pytest.param(lambda seed, c=(name, dims, tau): fixture(*c, 0),
                         range(1, dims.N + 1), id=f"{name}-{dims.n}{dims.m}{dims.p1}{dims.p2}"
                         f"{dims.N}-tau{tau}")
            for name, dims, tau in shift_fixture_cases()]


class TestRead:
    """`_read`'s stacked readings are the one-matrix readings at each delay."""

    @pytest.mark.parametrize("make,taus", random_read_cases() + shift_fixture_read_cases())
    @pytest.mark.parametrize("policy", [TolerancePolicy(), TolerancePolicy(rel_rank_tol=0.1)],
                             ids=["default", "coarse"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_stack_per_kind_of_reading(self, monkeypatch, make, taus, policy, seed):
        # rank(D_t) is one stack; the N pencils at the first sample point and
        # the rank at 0, read on F, at the requested delays are one more
        stacks, first = [], []
        ranks = numerics._ranks
        monkeypatch.setattr(harness, "numerical_rank",
                            lambda M, pol: stacks.append(M.shape[0]) or numerical_rank(M, pol))
        monkeypatch.setattr(harness, "_ranks",
                            lambda M, pol: first.append(M.shape[0]) or ranks(M, pol))
        sys = make(seed)
        blocks, rank, reports = harness._read(sys, taus, taus, policy, seed, {})
        delays = list(dict.fromkeys(taus))
        assert stacks == [len(delays)]
        assert first == [sys.dims.N + len(delays)]
        assert {t for q, t in rank if q != "normal_rank"} == set(delays) == set(reports)
        for t in delays:
            pencil = system_pencil(at_delay(blocks, t - 1))
            assert rank["rank_D", t] == numerical_rank(blocks.D_tau[t - 1], policy)
            assert rank["rank_at_zero", t] == rank_at(pencil, 0.0, policy)
            assert rank["normal_rank", t] == normal_rank(pencil, policy, seed)
            assert reports[t] == zero_report(pencil, t, policy, seed)

    def test_reports_only_at_the_delays_asked_for(self):
        # a trial reads ranks at tau and its dual, and the zero report at tau
        sys = random_generic(Dimensions(2, 2, 1, 4, 3), 0)
        _, rank, reports = harness._read(sys, (1, 3), (1,), TolerancePolicy(), 0, {})
        assert {t for q, t in rank if q != "normal_rank"} == {1, 3}
        assert list(reports) == [1]

    @given(dims=st.sampled_from(NORM_DIMS), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_norm_is_the_two_norm_of_each_pencil(self, dims, seed):
        assert_norms_reused(random_generic(dims, seed), seed)

    @pytest.mark.parametrize("name,dims,tau", shift_fixture_cases())
    def test_norm_is_the_two_norm_of_each_shift_fixture_pencil(self, name, dims, tau):
        # F holds +0.0 entries here, where 0.0 * E - F would read a -0.0 and
        # sigma_1 could differ from norm(F, 2) in the last bit
        assert_norms_reused(fixture(name, dims, tau, 0), 0)


def assert_norms_reused(sys, seed):
    # sigma_1 of the rank-at-zero reading, which _read hands zero_report at
    # every delay, is norm(F, 2) bit for bit, and each report is the one the
    # reduction gives taking the norm itself
    policy, taus, calls = TolerancePolicy(), range(1, sys.dims.N + 1), []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "zero_report", lambda *a: calls.append(a) or zero_report(*a))
        blocks, _, reports = harness._read(sys, taus, taus, policy, seed, {})
    assert [a[1] for a in calls] == list(taus)
    for pencil, t, _, _, rho, norm in calls:
        assert np.array_equal(pencil.F, system_pencil(at_delay(blocks, t - 1)).F)
        assert isinstance(norm, float) and norm == np.linalg.norm(pencil.F, 2)
        assert reports[t] == zero_report(pencil, t, policy, seed, rho)


class TestAnalyze:
    def test_payload_is_what_the_cli_writes(self, example1_sys, tmp_path):
        sys_path, out = tmp_path / "example1.json", tmp_path / "report.json"
        save_system(example1_sys, sys_path)
        assert main(["analyze", "--system", str(sys_path), "--out", str(out)]) == 0
        written = json.loads(out.read_text())
        payload = harness.analyze(example1_sys)
        assert "timestamp" in payload
        del written["timestamp"], payload["timestamp"]
        assert payload == written

    @pytest.mark.parametrize("tau", ["1", 1.0, True, None])
    def test_tau_must_be_an_int_or_all(self, example1_sys, tau):
        with pytest.raises(ValueError, match="tau must be an integer"):
            harness.analyze(example1_sys, tau)

    def test_numpy_integer_tau_gives_the_payload_of_its_int(self, example1_sys):
        got, want = harness.analyze(example1_sys, np.int64(2)), harness.analyze(example1_sys, 2)
        del got["timestamp"], want["timestamp"]
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    @pytest.mark.parametrize("tau", [0, 3])
    def test_delay_out_of_range_on_a_not_tall_system(self, tau):
        # with no prediction to refuse it, the reader does
        sys_ = random_generic(Dimensions(1, 2, 1, 2, 2), seed=0)
        with pytest.raises(TauOutOfRange):
            harness.analyze(sys_, tau)

    # a system built in Python is checked as one read from a file, before
    # any numpy error inside the blocking
    @pytest.mark.parametrize("name,value,message", [
        ("A", np.eye(2), r"matrix 'A' has shape \(2, 2\), expected \(1, 1\)"),
        ("A", np.array([[np.nan]]), "matrix 'A' contains non-finite"),
        ("Ds", np.full((5, 3), np.inf), "matrix 'Ds' contains non-finite"),
    ])
    def test_bad_system_is_refused_naming_the_matrix(self, example1_sys, name, value,
                                                    message):
        mats = {k: getattr(example1_sys, k) for k in ("A", "B", "Cf", "Cs", "Df", "Ds")}
        with pytest.raises(ValueError, match=message):
            harness.analyze(MultirateSystem(dims=EXAMPLE1_DIMS, **{**mats, name: value}))

    # A**2 overflows, so every float reading would be 0 and the zero search
    # would never run; the exact ranks would then pass for zero-freeness
    @pytest.mark.parametrize("tau", ["all", 1, 2])
    def test_overflowing_blocked_matrices_are_refused(self, example1_sys, tau, recwarn):
        # the refusal is the only report: numpy's overflow warning does not escape
        sys_ = dataclasses.replace(example1_sys, A=np.array([[1e200]]))
        with pytest.raises(ValueError, match="blocked matrices overflow"):
            harness.analyze(sys_, tau)
        assert [w for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


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

    # a dict failed in the first trial, and None only once every trial had
    # run, when the report was serialized
    @pytest.mark.parametrize("policy", [{"rel_rank_tol": 1e-9}, None])
    def test_policy_must_be_a_tolerance_policy(self, policy):
        with pytest.raises(ValueError, match=re.escape("grid field 'policy'")):
            GridSpec(n_values=(1,), m_values=(2,), N_values=(2,), policy=policy)

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

    # trial seeds run base_seed, base_seed + 1, ...; each must be a 64-bit key
    def test_last_trial_seed_must_stay_below_2_to_the_64(self):
        # one cell (tau 1 and 2) of three trials: six seeds
        kw = dict(n_values=(1,), m_values=(2,), N_values=(2,), p1_values=(1,),
                  trials_per_cell=3)
        assert GridSpec(**kw, base_seed=2**64 - 6).base_seed == 2**64 - 6
        for base in (2**64 - 5, 2**64, 2**128 - 5):
            with pytest.raises(ValueError, match=f"'base_seed' {base} puts the last trial seed"):
                GridSpec(**kw, base_seed=base)

    @pytest.mark.parametrize("seed", [2**64, 2**128 - 5])
    def test_trial_seed_outside_64_bits_is_refused(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer in"):
            run_trial(Dimensions(1, 3, 1, 5, 2), 1, seed)

    # a spec built in Python is refused in the terms of the file
    @pytest.mark.parametrize("kwargs,named", [
        (dict(n_values=(0,)), "grid field 'n' (n_values)"),
        (dict(m_values=(2, True)), "grid field 'm' (m_values)"),
        (dict(N_values=(1,)), "grid field 'N' (N_values): N values"),
        (dict(p1_values=()), "grid field 'p1' (p1_values)"),
        (dict(p2_offsets=(0,)), "grid field 'p2_offsets' must"),
        (dict(taus=(0,)), "grid field 'taus': tau values"),
        (dict(trials_per_cell=0), "grid field 'trials_per_cell' must"),
        (dict(base_seed=-1), "grid field 'base_seed' must"),
    ])
    def test_messages_name_the_file_key(self, kwargs, named):
        spec = {**dict(n_values=(1,), m_values=(2,), N_values=(2,)), **kwargs}
        with pytest.raises(ValueError, match=re.escape(named)):
            GridSpec(**spec)

    def test_numpy_integers_run_and_emit_as_ints(self, tmp_path):
        spec = GridSpec(n_values=(np.int64(1),), m_values=[np.int32(2)],
                        N_values=(np.int64(2),), p1_values=(np.int64(1),),
                        p2_offsets=(np.uint8(1),), taus=(np.int64(1),),
                        trials_per_cell=np.int64(2), base_seed=np.int64(0))
        assert spec == SINGLE_CELL
        assert all(type(v) is int for v in (*spec.n_values, *spec.m_values, *spec.N_values,
                                            *spec.p1_values, *spec.p2_offsets, *spec.taus,
                                            spec.trials_per_cell, spec.base_seed))
        out = tmp_path / "r.json"
        emit_report(run_grid(spec), "json", out)
        assert json.loads(out.read_text())["total_trials"] == 2

    def test_lists_are_kept_as_tuples(self):
        spec = GridSpec(n_values=[1], m_values=[2], N_values=[2], p1_values=[1],
                        p2_offsets=[1, 2], taus=[1])
        assert spec == GridSpec(n_values=(1,), m_values=(2,), N_values=(2,), p1_values=(1,),
                                p2_offsets=(1, 2), taus=(1,))
        hash(spec)


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

    # the values are checked by GridSpec alone, which names the file key
    @pytest.mark.parametrize("data,named", [
        ({"p1": [0]}, "grid field 'p1' (p1_values)"),
        ({"N": [2.5]}, "grid field 'N' (N_values)"),
        ({"p2_offsets": "1"}, "grid field 'p2_offsets'"),
        ({"taus": [1, False]}, "grid field 'taus'"),
        ({"trials_per_cell": 2.0}, "grid field 'trials_per_cell'"),
        ({"base_seed": 2**64}, "grid field 'base_seed'"),
    ])
    def test_bad_value_names_the_file_key(self, data, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            grid_spec_from_dict({"n": [1], "m": [2], "N": [2], **data})

    def test_file_and_python_errors_are_the_same(self):
        with pytest.raises(ValueError) as from_file:
            grid_spec_from_dict({"n": [1], "m": [2], "N": [2], "p1": [0]})
        with pytest.raises(ValueError) as from_python:
            GridSpec(n_values=(1,), m_values=(2,), N_values=(2,), p1_values=(0,))
        assert str(from_file.value) == str(from_python.value)

    def test_file_keys_and_attributes_match_the_spec(self):
        assert sorted(harness.GRID_FIELDS.values()) == sorted(
            f.name for f in dataclasses.fields(GridSpec))
        assert set(grid_spec_to_dict(SINGLE_CELL)) == set(harness.GRID_FIELDS)


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

    def test_expected_ranks_are_the_oracles(self, monkeypatch, policy):
        # every row's expected value is the oracle's rank_D, and the rows
        # reach both of its cases
        labels = []

        def recording(dims, tau):
            labels.append(predict(dims, tau).case_labels["rank_D"])
            return predict(dims, tau)

        monkeypatch.setattr(harness, "predict", recording)
        rows = harness._fixture_rank_rows(policy)
        assert len(labels) == len(rows) == 31
        assert set(labels) == {"small-state", "large-state"}
        for row in rows:
            dims = Dimensions(row["n"], row["m"], row["p1"], row["p2"], row["N"])
            assert row["expected"] == predict(dims, row["tau"]).rank_D

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
