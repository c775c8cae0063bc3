"""Rational-arithmetic rank measurements used to settle borderline trials."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multirate_zeros import _exact, harness
from multirate_zeros._exact import (exact_block, exact_normal_rank,
                                    exact_rank, exact_rank_at,
                                    fraction_matrix)
from multirate_zeros.blocking import MatrixPencil, block, system_pencil
from multirate_zeros.harness import _fixture_rank_rows, run_trial
from multirate_zeros.model import (Dimensions, TolerancePolicy, fixture,
                                   random_generic)
from multirate_zeros.numerics import numerical_rank
from multirate_zeros.oracle import dual_index, predict

from conftest import EXAMPLE1_DIMS

SRC = Path(__file__).resolve().parents[1] / "src"

# the acceptance-grid trials (base seed 0, n <= 3) that escalate, with the
# agreement keys each escalates
ESCALATION_CASES = json.loads(
    (SRC.parent / "perfbench" / "escalation_cases.json").read_text())["trials"]

# small rationals with non-dyadic denominators, zero often enough to leave
# whole columns empty
RATIONALS = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-4, max_value=4, max_denominator=7))


def rational_matrix(data, rows: int, cols: int) -> np.ndarray:
    entries = data.draw(st.lists(RATIONALS, min_size=rows * cols, max_size=rows * cols))
    return np.array(entries, dtype=object).reshape(rows, cols)


def sympy_rank(M: np.ndarray) -> int:
    """The reference: rank over QQ by sympy's exact domain matrices."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    rows = [[QQ(x.numerator, x.denominator) for x in row] for row in M.tolist()]
    return DomainMatrix(rows, M.shape, QQ).rank()


class TestFractionMatrix:
    def test_entries_are_exact(self):
        M = np.array([[0.1, -2.5], [1.0 / 3.0, 7.0]])
        F = fraction_matrix(M)
        assert F.dtype == object
        for i in range(2):
            for j in range(2):
                assert isinstance(F[i, j], Fraction)
                assert float(F[i, j]) == M[i, j]  # dyadic round trip, no loss

    def test_dyadic_values_recognized(self):
        F = fraction_matrix(np.array([[0.5, 0.25], [-1.75, 3.0]]))
        assert F[0, 0] == Fraction(1, 2)
        assert F[0, 1] == Fraction(1, 4)
        assert F[1, 0] == Fraction(-7, 4)
        assert F[1, 1] == 3


class TestExactRank:
    def test_identity(self):
        assert exact_rank(fraction_matrix(np.eye(3))) == 3

    def test_zero(self):
        assert exact_rank(fraction_matrix(np.zeros((2, 4)))) == 0

    def test_dependent_rows(self):
        assert exact_rank(fraction_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))) == 1

    def test_tiny_but_nonzero_pivot(self):
        # far below any float threshold, still rank 2 over the rationals
        M = np.empty((2, 2), dtype=object)
        M[0, 0], M[0, 1] = Fraction(1), Fraction(1)
        M[1, 0], M[1, 1] = Fraction(1), Fraction(1) + Fraction(1, 10**40)
        assert exact_rank(M) == 2

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_float_rank_on_generic_data(self, seed):
        M = np.random.default_rng(seed).standard_normal((4, 6))
        assert exact_rank(fraction_matrix(M)) == np.linalg.matrix_rank(M)


class TestExactRankMatchesSympy:
    """Bareiss elimination in integers against sympy's rank over QQ."""

    @given(data=st.data(), rows=st.integers(0, 6), cols=st.integers(0, 6),
           inner=st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_products_of_rational_factors(self, data, rows, cols, inner):
        # rank at most inner, so every inner < min(rows, cols) is deficient
        M = rational_matrix(data, rows, inner) @ rational_matrix(data, inner, cols)
        assert exact_rank(M) == sympy_rank(M)

    @given(dims=st.builds(Dimensions, n=st.integers(1, 3), m=st.integers(1, 2),
                          p1=st.integers(1, 2), p2=st.integers(1, 3),
                          N=st.integers(2, 3)),
           seed=st.integers(0, 2**32 - 1), point=st.sampled_from(_exact._SAMPLE_POINTS))
    @settings(max_examples=15, deadline=None)
    def test_pencils_of_random_draws(self, dims, seed, point):
        # dyadic entries with wide exponents, the matrices escalation sees
        pencil = system_pencil(exact_block(random_generic(dims, seed))[0])
        M = point * pencil.E - pencil.F
        assert exact_rank(M) == sympy_rank(M)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_shapes(self, shape):
        M = np.empty(shape, dtype=object)
        assert exact_rank(M) == sympy_rank(M) == 0


class TestFloatRankNeverExceedsExact:
    """The escalation trigger's premise: a float rank can only under-report."""

    @given(data=st.data(), rows=st.integers(2, 6), cols=st.integers(2, 6))
    @settings(max_examples=40)
    def test_rank_deficient_integer_products(self, data, rows, cols):
        # small-integer factors multiply exactly in float64, so M is exactly
        # the rational matrix it stands for, of rank at most inner
        inner = data.draw(st.integers(1, min(rows, cols) - 1))
        ints = st.integers(-4, 4)
        X = data.draw(arrays(np.int64, (rows, inner), elements=ints))
        Y = data.draw(arrays(np.int64, (inner, cols), elements=ints))
        M = (X @ Y).astype(float)
        assert numerical_rank(M) <= exact_rank(fraction_matrix(M))

    @given(data=st.data(),
           dims=st.builds(Dimensions, n=st.integers(1, 3), m=st.integers(1, 3),
                          p1=st.integers(1, 3), p2=st.integers(1, 3),
                          N=st.integers(2, 3)),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_blocked_feedthrough_of_random_draws(self, data, dims, seed):
        tau = data.draw(st.integers(1, dims.N))
        sys = random_generic(dims, seed)
        assert numerical_rank(block(sys, tau).D_tau) <= \
            exact_rank(exact_block(sys)[tau - 1].D_tau)

    @given(row=st.sampled_from(_fixture_rank_rows(TolerancePolicy())))
    @settings(max_examples=20)
    def test_blocked_feedthrough_of_shift_fixtures(self, row):
        dims = Dimensions(row["n"], row["m"], row["p1"], row["p2"], row["N"])
        sys = fixture(row["fixture"], dims, row["tau"], 0)
        assert numerical_rank(block(sys, row["tau"]).D_tau) <= \
            exact_rank(exact_block(sys)[row["tau"] - 1].D_tau)


class TestExactRankAt:
    def test_real_point(self):
        p = MatrixPencil(E=fraction_matrix(np.eye(1)), F=fraction_matrix([[2.0]]))
        assert exact_rank_at(p, Fraction(2)) == 0
        assert exact_rank_at(p, Fraction(3)) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_complex_point_matches_float_svd(self, seed):
        sys = random_generic(Dimensions(2, 2, 1, 3, 2), seed=seed)
        blk = block(sys, 1)
        pencil = system_pencil(blk)
        exact_pencil = system_pencil(exact_block(sys)[0])
        re, im = Fraction(7, 5), Fraction(1, 3)
        Z = float(re) + 1j * float(im)
        float_rank = np.linalg.matrix_rank(Z * pencil.E - pencil.F)
        assert exact_rank_at(exact_pencil, re, im) == float_rank


class TestExactBlock:
    @pytest.mark.parametrize("tau", [1, 2, 3])
    def test_agrees_with_float_assembly(self, tau):
        sys = random_generic(Dimensions(2, 2, 1, 3, 3), seed=5)
        fl = block(sys, tau)
        ex = exact_block(sys)[tau - 1]
        assert ex.dims == fl.dims and ex.tau == fl.tau and ex.slow_rows == fl.slow_rows
        for name in ("A_tau", "B_tau", "C_tau", "D_tau"):
            exact = getattr(ex, name).astype(float)
            assert np.allclose(exact, getattr(fl, name), rtol=1e-12, atol=1e-15)

    def test_every_delay_from_one_assembly(self):
        sys = random_generic(Dimensions(2, 2, 1, 3, 3), seed=5)
        blocks = exact_block(sys)
        assert [b.tau for b in blocks] == [1, 2, 3]
        # the delay-independent matrices are built once and shared
        assert all(b.A_tau is blocks[0].A_tau and b.B_tau is blocks[0].B_tau
                   for b in blocks)

    def test_products_are_rounding_free(self):
        # the exact path reproduces A^N as true rational products
        sys = random_generic(Dimensions(3, 1, 1, 1, 4), seed=2)
        ex = exact_block(sys)[0]
        A = fraction_matrix(sys.A)
        expected = A
        for _ in range(3):
            expected = expected @ A
        assert np.array_equal(ex.A_tau, expected)


class TestExactNormalRank:
    def test_worked_instance(self, example1_sys):
        assert exact_normal_rank(system_pencil(exact_block(example1_sys)[0])) == 6

    def test_fast_tall_full_column(self):
        dims = Dimensions(2, 1, 2, 1, 3)
        sys = random_generic(dims, seed=1)
        got = exact_normal_rank(system_pencil(exact_block(sys)[0]))
        assert got == dims.n + dims.N * dims.m


class TestExactNormalRankEarlyExit:
    """Stopping at min(rows, cols) leaves the max over the points unchanged."""

    @given(data=st.data(), rows=st.integers(1, 5), cols=st.integers(1, 5),
           inner=st.integers(0, 5), planted=st.integers(0, 3),
           at=st.sampled_from(_exact._SAMPLE_POINTS))
    @settings(max_examples=60, deadline=None)
    def test_equals_max_over_every_point(self, data, rows, cols, inner, planted, at):
        # a shared inner-dimensional factorization makes every
        # inner < min(rows, cols) rank deficient; up to `planted` zeros sit
        # on the sample point `at`, where the rank falls short of the max
        U, V = rational_matrix(data, rows, inner), rational_matrix(data, inner, cols)
        E0 = rational_matrix(data, inner, inner)
        eig = rational_matrix(data, 1, inner)
        eig[0, :planted] = at
        pencil = MatrixPencil(E=U @ E0 @ V, F=U @ (E0 * eig) @ V)
        every = max(exact_rank_at(pencil, z) for z in _exact._SAMPLE_POINTS)
        assert exact_normal_rank(pencil) == every

    @given(data=st.data(), rows=st.integers(1, 5), cols=st.integers(1, 5),
           inner=st.integers(0, 5), planted=st.integers(0, 3),
           at=st.sampled_from(_exact._SAMPLE_POINTS), slack=st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_bound_at_or_above_the_value_leaves_it_unchanged(
            self, data, rows, cols, inner, planted, at, slack):
        U, V = rational_matrix(data, rows, inner), rational_matrix(data, inner, cols)
        E0 = rational_matrix(data, inner, inner)
        eig = rational_matrix(data, 1, inner)
        eig[0, :planted] = at
        pencil = MatrixPencil(E=U @ E0 @ V, F=U @ (E0 * eig) @ V)
        value = exact_normal_rank(pencil)
        bound = value + slack
        first = exact_rank_at(pencil, _exact._SAMPLE_POINTS[0])
        with mock.patch.object(_exact, "exact_rank_at", wraps=exact_rank_at) as spy:
            assert exact_normal_rank(pencil, bound) == value
        if first == min(bound, rows, cols):
            assert spy.call_count == 1

    def test_full_column_pencil_costs_one_rank(self, monkeypatch):
        sys = random_generic(Dimensions(2, 1, 2, 1, 3), seed=1)
        pencil = system_pencil(exact_block(sys)[0])
        calls = []
        monkeypatch.setattr(_exact, "exact_rank_at",
                            lambda *a: calls.append(1) or exact_rank_at(*a))
        assert exact_normal_rank(pencil) == min(pencil.shape)
        assert len(calls) == 1


class TestEscalation:
    """The float screen is settled in exact arithmetic when it disagrees."""

    def test_borderline_trial_settles_clean(self):
        # this seed's smallest true singular value sits inside float noise;
        # the rational re-measure confirms the generic values
        rec = run_trial(Dimensions(3, 2, 2, 1, 4), tau=1, seed=4016)
        assert rec.escalated != ()
        assert rec.agree_all
        assert rec.error is None
        assert "screen" in rec.measured
        for key in rec.measured["screen"]:
            assert key in rec.measured  # final value replaces the screen one
        assert rec.measured["mult_at_zero"] == rec.predicted["mult_at_zero"]

    def test_clean_trial_does_not_escalate(self):
        rec = run_trial(Dimensions(3, 2, 2, 1, 4), tau=1, seed=0)
        assert rec.escalated == ()
        assert "screen" not in rec.measured
        assert rec.agree_all

    def test_escalated_trial_is_deterministic(self):
        a = run_trial(Dimensions(3, 2, 2, 1, 4), tau=1, seed=4016)
        b = run_trial(Dimensions(3, 2, 2, 1, 4), tau=1, seed=4016)
        assert a.measured == b.measured
        assert a.escalated == b.escalated
        assert a.agreement == b.agreement

    def test_duality_is_settled_with_the_multiplicities(self):
        # the float normal rank reads 35 at all 8 delays against a generic
        # 36; each of the 8 readings is re-read exactly, so the dual
        # multiplicities and the delay sweep are exact along with tau's
        dims = Dimensions(5, 5, 3, 24, 8)
        rec = run_trial(dims, tau=7, seed=106065)
        assert rec.error is None
        assert rec.measured["screen"]["normal_rank_by_tau"] == [35] * 8
        assert rec.measured["normal_rank_by_tau"] == [36] * 8
        dual = predict(dims, dual_index(7, dims.N))
        assert rec.measured["dual_mult_at_zero"] == dual.mult_at_zero
        assert rec.measured["dual_mult_at_infinity"] == dual.mult_at_infinity
        assert "duality" not in rec.escalated
        assert rec.agree_all

    def test_each_exact_rank_is_computed_once(self, monkeypatch):
        # only the rank at Z = 0 at delay 1 reads below its generic value;
        # every other reading already meets it and is not re-read
        ranked, assembled = [], []

        def recording(M):
            ranked.append(np.atleast_2d(M).tolist())
            return exact_rank(M)

        def assembling(sys):
            assembled.append(sys)
            return exact_block(sys)

        monkeypatch.setattr(_exact, "exact_rank", recording)
        monkeypatch.setattr(harness, "exact_rank", recording)
        monkeypatch.setattr(harness, "exact_block", assembling)
        rec = run_trial(Dimensions(3, 2, 2, 1, 4), tau=1, seed=4016)
        assert rec.escalated == ("duality", "mult_at_zero")
        assert rec.measured["screen"] == {"mult_at_zero": 1, "rank_at_zero": 10}
        assert len(ranked) == 1
        assert len(assembled) == 1

    @pytest.mark.parametrize("case", ESCALATION_CASES, ids=lambda c: str(c["seed"]))
    def test_record_matches_a_full_exact_remeasure(self, case):
        # the reference reads every rank exactly, with no bound and no
        # float screen: the clearance must not change any derived field
        dims = Dimensions(case["n"], case["m"], case["p1"], case["p2"], case["N"])
        tau = case["tau"]
        rec = run_trial(dims, tau=tau, seed=case["seed"])
        assert list(rec.escalated) == case["escalated"]
        blocks = exact_block(random_generic(dims, case["seed"]))
        pencils = [system_pencil(b) for b in blocks]
        rank = {("normal_rank", t): max(exact_rank_at(p, z) for z in _exact._SAMPLE_POINTS)
                for t, p in enumerate(pencils, 1)}
        for t in (tau, dual_index(tau, dims.N)):
            rank["rank_D", t] = exact_rank(blocks[t - 1].D_tau)
            rank["rank_at_zero", t] = exact_rank_at(pencils[t - 1], Fraction(0))
        reference = harness._rank_fields(rank, dims, tau)
        assert {k: rec.measured[k] for k in reference} == reference
        assert rec.measured["n_finite_nonzero"] == 0
        assert rec.agree_all

    def test_escalated_trial_leaves_sympy_unimported(self):
        code = ("import sys\n"
                "from multirate_zeros import Dimensions, run_trial\n"
                "rec = run_trial(Dimensions(3, 2, 2, 1, 4), tau=1, seed=4016)\n"
                "assert rec.escalated and rec.agree_all\n"
                "print('sympy' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert out.stdout.strip() == "False"
