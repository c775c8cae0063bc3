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
from multirate_zeros._exact import (P, _matmul_mod, exact_block, exact_rank,
                                    fraction_matrix, modp_block, modp_rank,
                                    residue_matrix, settle)
from multirate_zeros.blocking import MatrixPencil, block, system_pencil
from multirate_zeros.harness import _fixture_rank_rows, run_trial
from multirate_zeros.model import (Dimensions, TolerancePolicy, fixture,
                                   random_generic)
from multirate_zeros.numerics import _max_rank, numerical_rank
from multirate_zeros.oracle import dual_index, predict

from conftest import EXAMPLE1_DIMS, at_delay, planted_zero_system

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
        pencil = system_pencil(at_delay(exact_block(random_generic(dims, seed)), 0))
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
            exact_rank(exact_block(sys).D_tau[tau - 1])

    @given(row=st.sampled_from(_fixture_rank_rows(TolerancePolicy())))
    @settings(max_examples=20)
    def test_blocked_feedthrough_of_shift_fixtures(self, row):
        dims = Dimensions(row["n"], row["m"], row["p1"], row["p2"], row["N"])
        sys = fixture(row["fixture"], dims, row["tau"], 0)
        assert numerical_rank(block(sys, row["tau"]).D_tau) <= \
            exact_rank(exact_block(sys).D_tau[row["tau"] - 1])


class TestExactRankAt:
    """The exact rank of a pencil at a rational point, as `settle` reads it."""

    def test_real_point(self):
        p = MatrixPencil(E=fraction_matrix(np.eye(1)), F=fraction_matrix([[2.0]]))
        assert exact_rank(p.at(Fraction(2))) == 0
        assert exact_rank(p.at(Fraction(3))) == 1


class TestExactBlock:
    @pytest.mark.parametrize("tau", [1, 2, 3])
    def test_agrees_with_float_assembly(self, tau):
        sys = random_generic(Dimensions(2, 2, 1, 3, 3), seed=5)
        fl = block(sys, tau)
        ex = at_delay(exact_block(sys), tau - 1)
        assert ex.dims == fl.dims and ex.tau == fl.tau and ex.slow_rows == fl.slow_rows
        for name in ("A_tau", "B_tau", "C_tau", "D_tau"):
            exact = getattr(ex, name).astype(float)
            assert np.allclose(exact, getattr(fl, name), rtol=1e-12, atol=1e-15)

    def test_every_delay_from_one_assembly(self):
        sys = random_generic(Dimensions(2, 2, 1, 3, 3), seed=5)
        blocks = exact_block(sys)
        assert blocks.tau == (1, 2, 3)
        # the delay-independent matrices are built once and held once
        assert blocks.A_tau.shape == (2, 2) and blocks.B_tau.shape == (2, 6)
        assert blocks.C_tau.shape == (3, 6, 2) and blocks.D_tau.shape == (3, 6, 6)

    def test_products_are_rounding_free(self):
        # the exact path reproduces A^N as true rational products
        sys = random_generic(Dimensions(3, 1, 1, 1, 4), seed=2)
        ex = exact_block(sys)
        A = fraction_matrix(sys.A)
        expected = A
        for _ in range(3):
            expected = expected @ A
        assert np.array_equal(ex.A_tau, expected)


def bareiss_normal_rank(monkeypatch, sys, generic):
    """settle's exact normal rank at delay 1 from a reading of 0, the screen
    falling short at every point so that Bareiss decides."""
    monkeypatch.setattr(_exact, "modp_rank", lambda M: 0)
    key = ("normal_rank", 1)
    return settle(sys, {key: 0}, {key: generic})[key]


def exact_ranks_at_sample_points(pencil, reads=None):
    """The lazy sequence of exact ranks at _SAMPLE_POINTS that settle's
    normal rank takes its max over; each point read is appended to reads."""
    for z in _exact._SAMPLE_POINTS:
        if reads is not None:
            reads.append(z)
        yield exact_rank(pencil.at(z))


class TestExactNormalRank:
    def test_worked_instance(self, example1_sys, monkeypatch):
        # a generic value of min(rows, cols) lets no point stop the sweep
        pencil = system_pencil(at_delay(exact_block(example1_sys), 0))
        assert bareiss_normal_rank(monkeypatch, example1_sys, min(pencil.shape)) == 6

    def test_fast_tall_full_column(self, monkeypatch):
        dims = Dimensions(2, 1, 2, 1, 3)
        sys = random_generic(dims, seed=1)
        full = dims.n + dims.N * dims.m
        assert bareiss_normal_rank(monkeypatch, sys, full) == full


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
        every = max(exact_rank(pencil.at(z)) for z in _exact._SAMPLE_POINTS)
        assert _max_rank(exact_ranks_at_sample_points(pencil), pencil.shape) == every

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
        value = _max_rank(exact_ranks_at_sample_points(pencil), pencil.shape)
        bound = value + slack
        first = exact_rank(pencil.at(_exact._SAMPLE_POINTS[0]))
        reads = []
        assert _max_rank(exact_ranks_at_sample_points(pencil, reads), pencil.shape, bound) \
            == value
        if first == min(bound, rows, cols):
            assert len(reads) == 1

    def test_full_column_pencil_costs_one_rank(self, monkeypatch):
        sys = random_generic(Dimensions(2, 1, 2, 1, 3), seed=1)
        pencil = system_pencil(at_delay(exact_block(sys), 0))
        calls = []
        monkeypatch.setattr(_exact, "exact_rank", lambda M: calls.append(1) or exact_rank(M))
        assert bareiss_normal_rank(monkeypatch, sys, min(pencil.shape)) == min(pencil.shape)
        assert len(calls) == 1


def residue(q) -> int:
    """The reference reduction of a rational mod P."""
    q = Fraction(q)
    return q.numerator * pow(q.denominator, -1, P) % P


class TestResidueMatrix:
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300)
    def test_each_float_maps_to_its_rational_mod_p(self, x):
        assert residue_matrix(np.array([[x]])).tolist() == [[residue(x)]]

    @pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                   np.finfo(float).max, -np.finfo(float).max, 2.0**-1022,
                                   2.0**1023, -1.5 * 2.0**-1074, 0.1, float(P), -float(P)])
    def test_edge_floats(self, x):
        assert residue_matrix(np.array([[x]])).tolist() == [[residue(x)]]

    @given(M=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4)),
                    elements=st.floats(allow_nan=False, allow_infinity=False)))
    @settings(max_examples=60)
    def test_whole_matrices(self, M):
        got = residue_matrix(M)
        assert got.dtype == np.int64
        assert got.tolist() == [[residue(x) for x in row] for row in M.tolist()]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            residue_matrix(np.array([[1.0, bad]]))


# integers that reduce to 0 or to small residues mod P
NEAR_MULTIPLES = st.one_of(st.integers(-4, 4), st.sampled_from([P, -P, 2 * P, P + 1, P - 1]))


class TestModpRank:
    """A mod-P rank is a lower bound on the exact rank, whatever the matrix."""

    @given(data=st.data(), rows=st.integers(0, 6), cols=st.integers(0, 6),
           inner=st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_never_exceeds_exact_rank_on_integer_products(self, data, rows, cols, inner):
        X = data.draw(arrays(np.int64, (rows, inner), elements=NEAR_MULTIPLES))
        Y = data.draw(arrays(np.int64, (inner, cols), elements=NEAR_MULTIPLES))
        M = X @ Y
        exact = exact_rank(np.vectorize(Fraction, otypes=[object])(M).reshape(M.shape))
        assert modp_rank(M) <= exact

    @given(M=arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                    elements=st.one_of(st.floats(-4, 4, width=16),
                                       st.sampled_from([float(P), 2.0**-60, 3.0 * 2.0**70]))))
    @settings(max_examples=100, deadline=None)
    def test_never_exceeds_exact_rank_on_dyadic_matrices(self, M):
        assert modp_rank(residue_matrix(M)) <= exact_rank(fraction_matrix(M))

    @pytest.mark.parametrize("M", [[[1, 0], [0, P]], [[2, 1], [1, (P + 1) // 2]],
                                   [[P, 2 * P], [1, 1]]], ids=["diagonal", "minor", "row"])
    def test_determinant_divisible_by_p_falls_short(self, M):
        # full rank over Q, rank 1 mod P: the screen falls short, never over
        M = np.array(M, dtype=np.int64)
        assert modp_rank(M) == 1
        assert exact_rank(fraction_matrix(M.astype(float))) == 2

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_shapes(self, shape):
        assert modp_rank(np.zeros(shape, dtype=np.int64)) == 0

    @given(dims=st.builds(Dimensions, n=st.integers(1, 3), m=st.integers(1, 2),
                          p1=st.integers(1, 2), p2=st.integers(1, 3),
                          N=st.integers(2, 3)),
           seed=st.integers(0, 2**32 - 1), z=st.floats(-2, 2, width=32))
    @settings(max_examples=25, deadline=None)
    def test_rank_at_a_point_never_exceeds_exact(self, dims, seed, z):
        sys = random_generic(dims, seed)
        modp, exact = (system_pencil(at_delay(b, 0)) for b in (modp_block(sys), exact_block(sys)))
        assert modp_rank(modp.at(residue(z))) <= exact_rank(exact.at(Fraction(z)))


class TestModpBlock:
    @pytest.mark.parametrize("dims,seed", [(Dimensions(2, 2, 1, 3, 3), 5),
                                           (Dimensions(3, 1, 1, 1, 4), 2),
                                           (Dimensions(1, 4, 4, 1, 4), 1707)])
    def test_every_delay_is_the_exact_assembly_mod_p(self, dims, seed):
        sys = random_generic(dims, seed)
        modp, exact = modp_block(sys), exact_block(sys)
        assert modp.tau == exact.tau == tuple(range(1, dims.N + 1))
        for mb, eb in ((at_delay(modp, i), at_delay(exact, i)) for i in range(dims.N)):
            assert (mb.dims, mb.tau, mb.slow_rows) == (eb.dims, eb.tau, eb.slow_rows)
            for name in ("A_tau", "B_tau", "C_tau", "D_tau"):
                reduced = [[residue(x) for x in row] for row in getattr(eb, name).tolist()]
                assert getattr(mb, name).dtype == np.int64
                assert getattr(mb, name).tolist() == reduced

    @pytest.mark.parametrize("taus", [[2], [3, 1], [1, 2, 3]])
    def test_chosen_delays_are_those_of_every_delay(self, taus):
        sys = random_generic(Dimensions(2, 2, 1, 3, 3), seed=5)
        for assemble in (modp_block, exact_block):
            every, chosen = assemble(sys), assemble(sys, taus)
            assert chosen.tau == tuple(taus)
            for i, t in enumerate(taus):
                b = at_delay(chosen, i)
                for name in ("A_tau", "B_tau", "C_tau", "D_tau"):
                    assert np.array_equal(getattr(b, name), getattr(at_delay(every, t - 1), name))

    def test_residues_of_all_six_matrices_in_one_pass(self, monkeypatch):
        sys = random_generic(Dimensions(2, 3, 1, 4, 3), seed=9)
        passes = []
        monkeypatch.setattr(_exact, "residue_matrix",
                            lambda M: passes.append(np.size(M)) or residue_matrix(M))
        modp_block(sys, [1])
        assert passes == [sum(M.size for M in (sys.A, sys.B, sys.Cf, sys.Cs, sys.Df, sys.Ds))]

    def test_inner_dimension_that_could_wrap_is_refused(self):
        # 8192 * (P - 1)**2 < 2**63 <= 8193 * (P - 1)**2
        top = np.full((1, 8192), P - 1, dtype=np.int64)
        assert _matmul_mod(top, top.T).tolist() == [[8192 * (P - 1) ** 2 % P]]
        for k in (8193, 2**14):
            with pytest.raises(ValueError, match="overflow"):
                _matmul_mod(np.ones((1, k), dtype=np.int64), np.ones((k, 1), dtype=np.int64))


class TestEscalation:
    """Rank readings off their generic value are settled in exact arithmetic."""

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

    @pytest.mark.parametrize("tau", [1, 2])
    def test_reading_above_its_generic_value_is_reread(self, monkeypatch, tau):
        # a float rank above the generic value breaks the under-report
        # premise; it is re-read like one below it, and the exact value stands.
        # The +1 goes on the stacked D_tau readings only, not on the rank at 0
        dims = EXAMPLE1_DIMS
        d_shape = (dims.N * dims.p1 + dims.p2, dims.N * dims.m)

        def inflated(M, policy):
            ranks = numerical_rank(M, policy)
            return [r + 1 for r in ranks] if M.shape[1:] == d_shape else ranks

        monkeypatch.setattr(harness, "numerical_rank", inflated)
        screened = []
        monkeypatch.setattr(_exact, "modp_rank",
                            lambda M: screened.append(M.shape) or modp_rank(M))
        rec = run_trial(dims, tau=tau, seed=0)
        generic = predict(dims, tau).rank_D
        assert "rank_D" in rec.escalated
        assert rec.measured["screen"]["rank_D"] == generic + 1
        assert rec.measured["rank_D"] == generic
        assert screened
        assert rec.agree_all

    def test_only_the_delays_to_re_read_are_assembled(self, monkeypatch):
        # delay 2 of 3 has the one reading off its generic value; the generic
        # values come from the caller's predictions, with no predict call
        dims = Dimensions(2, 2, 1, 4, 3)
        sys_ = random_generic(dims, 1)
        preds = {t: predict(dims, t) for t in (1, 2, 3)}
        rank = {}
        for t, pred in preds.items():
            rank["normal_rank", t] = pred.normal_rank
            rank["rank_D", t] = pred.rank_D
            rank["rank_at_zero", t] = pred.normal_rank - pred.mult_at_zero
        rank["rank_D", 2] -= 1
        assembled, predicted = [], []
        monkeypatch.setattr(_exact, "modp_block",
                            lambda s, taus: assembled.append(list(taus)) or modp_block(s, taus))
        monkeypatch.setattr(harness, "predict",
                            lambda *args: predicted.append(args) or predict(*args))
        settled = harness._escalate(sys_, rank, preds)
        assert assembled == [[2]]
        assert settled["rank_D", 2] == predict(dims, 2).rank_D
        assert predicted == []

    def test_hidden_reading_above_its_generic_value_is_reread(self, monkeypatch):
        # rank(D) at the dual delay reads one above its generic value, which
        # the max(0, .) of `multiplicities` hides: no check disagrees, yet
        # every trial settles its readings, so this one is re-read once
        dims, tau = EXAMPLE1_DIMS, 2
        assert dual_index(tau, dims.N) == 1

        def inflated(M, policy):
            ranks = numerical_rank(M, policy)
            # the D stack holds tau's D, then the dual delay's
            return [ranks[0], ranks[1] + 1] if np.ndim(M) == 3 else ranks

        monkeypatch.setattr(harness, "numerical_rank", inflated)
        screened, predicted = [], []
        monkeypatch.setattr(_exact, "modp_rank",
                            lambda M: screened.append(M.shape) or modp_rank(M))
        monkeypatch.setattr(harness, "predict",
                            lambda *args: predicted.append(args[1]) or predict(*args))
        rec = run_trial(dims, tau=tau, seed=0)
        assert screened == [(dims.N * dims.p1 + dims.p2, dims.N * dims.m)]
        assert predicted == [tau, 1]
        assert rec.escalated == ()
        assert "screen" not in rec.measured
        assert rec.agree_all

    def test_bareiss_assembles_only_the_delays_the_screen_leaves_short(self, monkeypatch):
        # rank(D) reads one short at delays 1 and 2; the screen settles
        # delay 1 but falls one short on delay 2's D, which Bareiss re-reads
        dims = Dimensions(2, 2, 1, 4, 3)
        sys_ = random_generic(dims, 1)
        generic = {("rank_D", t): predict(dims, t).rank_D for t in (1, 2, 3)}
        rank = {key: value - (key[1] < 3) for key, value in generic.items()}
        short_D = modp_block(sys_, [2]).D_tau[0].tolist()
        monkeypatch.setattr(_exact, "modp_rank",
                            lambda M: modp_rank(M) - (np.asarray(M).tolist() == short_D))
        modp_assembled, exact_assembled = [], []
        monkeypatch.setattr(_exact, "modp_block", lambda s, taus: modp_assembled.append(
            list(taus)) or modp_block(s, taus))
        monkeypatch.setattr(_exact, "exact_block", lambda s, taus: exact_assembled.append(
            list(taus)) or exact_block(s, taus))
        assert settle(sys_, rank, generic) == generic
        assert modp_assembled == [[1, 2]]
        assert exact_assembled == [[2]]

    @pytest.mark.parametrize("case", ESCALATION_CASES, ids=lambda c: str(c["seed"]))
    def test_analyze_settles_what_run_trial_settles(self, case):
        # each of these trials escalates; analyze reads the same system at its
        # own seed and settles the same rank fields to the same values
        dims = Dimensions(*(case[k] for k in ("n", "m", "p1", "p2", "N")))
        rec = run_trial(dims, case["tau"], case["seed"])
        assert rec.escalated
        (result,) = harness.analyze(random_generic(dims, case["seed"]), case["tau"])["results"]
        for key in ("rank_D", "normal_rank", "mult_at_zero", "mult_at_infinity"):
            assert result["measured"][key] == rec.measured[key], key

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
        # the float normal rank reads 35 against a generic 36 at 7 of the 8
        # delays (36 at delay 2); each short reading is re-read exactly, so
        # the dual multiplicities and the delay sweep are exact along with
        # tau's, and the flags the float readings raised are all cleared
        dims = Dimensions(5, 5, 3, 24, 8)
        rec = run_trial(dims, tau=7, seed=106065)
        assert rec.error is None
        assert rec.measured["screen"]["normal_rank_by_tau"] == [35, 36] + [35] * 6
        assert rec.measured["normal_rank_by_tau"] == [36] * 8
        dual = predict(dims, dual_index(7, dims.N))
        assert rec.measured["dual_mult_at_zero"] == dual.mult_at_zero
        assert rec.measured["dual_mult_at_infinity"] == dual.mult_at_infinity
        assert {"duality", "normal_rank", "tau_independent"} <= set(rec.escalated)
        assert rec.agree_all

    def test_each_exact_rank_is_computed_once(self, monkeypatch):
        # only the rank at Z = 0 at delay 1 reads below its generic value;
        # every other reading already meets it and is not re-read, and the
        # one that is re-read is settled by the mod-P screen alone
        screened, ranked, assembled = [], [], []

        def screening(M):
            screened.append(np.atleast_2d(M).tolist())
            return modp_rank(M)

        def recording(M):
            ranked.append(np.atleast_2d(M).tolist())
            return exact_rank(M)

        def assembling(sys):
            assembled.append(sys)
            return exact_block(sys)

        monkeypatch.setattr(_exact, "modp_rank", screening)
        monkeypatch.setattr(_exact, "exact_rank", recording)
        monkeypatch.setattr(_exact, "exact_block", assembling)
        rec = run_trial(Dimensions(3, 2, 2, 1, 4), tau=1, seed=4016)
        assert rec.escalated == ("duality", "mult_at_zero")
        assert rec.measured["screen"] == {"mult_at_zero": 1, "rank_at_zero": 10}
        assert len(screened) == 1
        assert len(ranked) == 0
        assert len(assembled) == 0

    def test_screen_settles_every_escalation_case(self, monkeypatch):
        # each reading the acceptance grid escalates meets its generic value
        # mod P, so no case reaches Bareiss or builds the Fraction assembly
        bareiss = []
        monkeypatch.setattr(_exact, "exact_rank", lambda M: bareiss.append("rank"))
        monkeypatch.setattr(_exact, "exact_block", lambda sys: bareiss.append("block"))
        for case in ESCALATION_CASES:
            dims = Dimensions(case["n"], case["m"], case["p1"], case["p2"], case["N"])
            rec = run_trial(dims, tau=case["tau"], seed=case["seed"])
            assert list(rec.escalated) == case["escalated"]
            assert rec.agree_all
        assert bareiss == []

    @pytest.mark.parametrize("tau", [1, 2])
    @pytest.mark.parametrize("Df", [6, 4], ids=["zero_at_1/9", "zero_at_1/16"])
    def test_planted_finite_zero_stands(self, monkeypatch, Df, tau):
        # a genuine zero is almost never exactly at its float location, and
        # 1/16 is not reached exactly either: a rank read there would refute
        # it. The float count stands, with nothing escalated or screened.
        sys = planted_zero_system(Df)
        monkeypatch.setattr(harness, "random_generic", lambda dims, seed: sys)
        rec = run_trial(sys.dims, tau, seed=0)
        assert rec.error is None
        assert [k for k, agree in rec.agreement.items() if not agree] == ["no_finite_nonzero"]
        assert rec.measured["n_finite_nonzero"] == 1
        assert rec.escalated == ()
        assert "screen" not in rec.measured

    def test_screen_that_falls_short_defers_to_bareiss(self, monkeypatch):
        # an unlucky prime only lowers a mod-P rank; every screened reading
        # made to fall one short must be re-read by Bareiss to the same record
        expected = {}
        for case in ESCALATION_CASES:
            dims = Dimensions(case["n"], case["m"], case["p1"], case["p2"], case["N"])
            expected[case["seed"]] = dims, case["tau"], run_trial(dims, case["tau"], case["seed"])
        short = lambda M: max(0, modp_rank(M) - 1)  # noqa: E731
        monkeypatch.setattr(_exact, "modp_rank", short)
        with mock.patch.object(_exact, "exact_block", wraps=exact_block) as assembled:
            for seed, (dims, tau, ref) in expected.items():
                rec = run_trial(dims, tau, seed)
                assert (rec.measured, rec.agreement, rec.escalated) == \
                    (ref.measured, ref.agreement, ref.escalated)
        assert assembled.call_count == len(ESCALATION_CASES)

    @pytest.mark.parametrize("case", ESCALATION_CASES, ids=lambda c: str(c["seed"]))
    def test_record_matches_a_full_exact_remeasure(self, case):
        # the reference reads every rank exactly, with no bound and no
        # float screen: the clearance must not change any derived field
        dims = Dimensions(case["n"], case["m"], case["p1"], case["p2"], case["N"])
        tau = case["tau"]
        rec = run_trial(dims, tau=tau, seed=case["seed"])
        assert list(rec.escalated) == case["escalated"]
        blocks = exact_block(random_generic(dims, case["seed"]))
        pencils = [system_pencil(at_delay(blocks, i)) for i in range(dims.N)]
        rank = {("normal_rank", t): max(exact_rank(p.at(z)) for z in _exact._SAMPLE_POINTS)
                for t, p in enumerate(pencils, 1)}
        for t in (tau, dual_index(tau, dims.N)):
            rank["rank_D", t] = exact_rank(blocks.D_tau[t - 1])
            rank["rank_at_zero", t] = exact_rank(pencils[t - 1].at(Fraction(0)))
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
