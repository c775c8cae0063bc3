"""Closed-form predictions: values, case labels, and integer identities."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multirate_zeros.errors import NotTallClass, TauOutOfRange
from multirate_zeros.model import Dimensions, SystemClass
from multirate_zeros.oracle import (dual_index, predict,
                                    predict_controllability_rank,
                                    predict_mult_infinity, predict_mult_zero,
                                    predict_normal_rank, predict_rank_D,
                                    summary_table)

from conftest import EXAMPLE1_DIMS, LONG_HORIZON_DIMS


@st.composite
def tall_dims(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 4))
    p1 = draw(st.integers(1, m + 2))
    N = draw(st.integers(2, 5))
    p2 = max(N * (m - p1), 0) + draw(st.integers(1, 3))
    return Dimensions(n=n, m=m, p1=p1, p2=p2, N=N)


@st.composite
def tall_dims_and_tau(draw):
    dims = draw(tall_dims())
    return dims, draw(st.integers(1, dims.N))


class TestRankD:
    def test_small_state_case(self):
        assert predict_rank_D(EXAMPLE1_DIMS, 1) == (5, "small-state")

    def test_large_state_case(self):
        assert predict_rank_D(EXAMPLE1_DIMS, 2) == (4, "large-state")

    def test_boundary_formulas_coincide(self):
        dims = Dimensions(2, 3, 1, 5, 2)  # n = (N - tau)(m - p1) exactly
        value, _ = predict_rank_D(dims, 1)
        n, m, p1, N, tau = dims.n, dims.m, dims.p1, dims.N, 1
        assert value == (N - 1) * p1 + m + n == (tau - 1) * p1 + (N - tau + 1) * m == 6

    def test_fast_tall_full_column(self):
        assert predict_rank_D(Dimensions(2, 1, 2, 1, 3), 2) == (3, "full-column")

    def test_not_tall_rejected(self):
        with pytest.raises(NotTallClass):
            predict_rank_D(Dimensions(1, 2, 1, 2, 2), 1)

    def test_tau_out_of_range(self):
        with pytest.raises(TauOutOfRange):
            predict_rank_D(EXAMPLE1_DIMS, 3)

    @given(dt=tall_dims_and_tau())
    def test_bounded_by_full_column(self, dt):
        dims, tau = dt
        value, _ = predict_rank_D(dims, tau)
        assert 0 <= value <= dims.N * dims.m


class TestNormalRank:
    def test_worked_instance_deficient(self):
        assert predict_normal_rank(EXAMPLE1_DIMS) == (6, "deficient")

    def test_large_state_full_column(self):
        assert predict_normal_rank(Dimensions(4, 2, 1, 3, 2)) == (8, "full-column")

    def test_square_rate_full_column(self):
        assert predict_normal_rank(Dimensions(3, 2, 2, 1, 2)) == (7, "full-column")

    @given(dims=tall_dims())
    def test_bounded_by_pencil_shape(self, dims):
        value, _ = predict_normal_rank(dims)
        rows = dims.n + dims.N * dims.p1 + dims.p2
        cols = dims.n + dims.N * dims.m
        assert 0 < value <= min(rows, cols)


class TestMultiplicities:
    def test_zero_free_delay(self):
        assert predict_mult_infinity(LONG_HORIZON_DIMS, 4) == (0, "none")
        assert predict_mult_zero(LONG_HORIZON_DIMS, 5) == (0, "none")

    def test_extreme_delays(self):
        assert predict_mult_infinity(LONG_HORIZON_DIMS, 8) == (5, "partial")
        assert predict_mult_zero(LONG_HORIZON_DIMS, 1) == (5, "partial")

    def test_wide_rate_full_sweep(self):
        # w = 2: multiplicity at infinity climbs only past tau = 5
        expected_inf = {1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 1, 7: 3, 8: 5}
        expected_zero = {1: 5, 2: 3, 3: 1, 4: 0, 5: 0, 6: 0, 7: 0, 8: 0}
        for tau in range(1, 9):
            assert predict_mult_infinity(LONG_HORIZON_DIMS, tau)[0] == expected_inf[tau]
            assert predict_mult_zero(LONG_HORIZON_DIMS, tau)[0] == expected_zero[tau]

    @pytest.mark.parametrize("tau", [1, 2])
    def test_square_rate_always_clear(self, tau):
        dims = Dimensions(3, 2, 2, 1, 2)
        assert predict_mult_infinity(dims, tau) == (0, "none")
        assert predict_mult_zero(dims, tau) == (0, "none")

    @given(dt=tall_dims_and_tau())
    def test_duality_identity(self, dt):
        dims, tau = dt
        mz, _ = predict_mult_zero(dims, tau)
        minf_dual, _ = predict_mult_infinity(dims, dual_index(tau, dims.N))
        assert mz == minf_dual

    @given(dt=tall_dims_and_tau())
    def test_generic_ranks_give_the_predicted_multiplicities(self, dt):
        # escalation clears a reading at its generic value: these identities
        # make generic readings derive the predicted multiplicities
        dims, tau = dt
        pred = predict(dims, tau)
        assert pred.mult_at_infinity == pred.normal_rank - dims.n - pred.rank_D
        assert pred.normal_rank - pred.mult_at_zero >= 0

    @given(dt=tall_dims_and_tau())
    def test_fast_tall_has_no_special_zeros(self, dt):
        dims, tau = dt
        if dims.p1 >= dims.m:
            assert predict_mult_zero(dims, tau)[0] == 0
            assert predict_mult_infinity(dims, tau)[0] == 0

    @given(dt=tall_dims_and_tau())
    def test_extreme_delay_sides_are_clear(self, dt):
        dims, tau = dt
        assert predict_mult_infinity(dims, 1)[0] == 0
        assert predict_mult_zero(dims, dims.N)[0] == 0

    @given(dims=tall_dims(), data=st.data())
    def test_constant_sum_in_saturated_regime(self, dims, data):
        w = dims.m - dims.p1
        if w <= 0 or dims.n <= (dims.N - 1) * w:
            return
        tau = data.draw(st.integers(1, dims.N))
        total = predict_mult_zero(dims, tau)[0] + predict_mult_infinity(dims, tau)[0]
        assert total == (dims.N - 1) * w

    @given(dims=tall_dims(), data=st.data())
    def test_case_boundary_continuity(self, dims, data):
        # the piecewise formulas agree where their conditions meet
        w = dims.m - dims.p1
        if w <= 0:
            return
        tau = data.draw(st.integers(1, dims.N))
        n_boundary = (dims.N - tau) * w
        if n_boundary >= 1:
            d = Dimensions(n_boundary, dims.m, dims.p1, dims.p2, dims.N)
            small = (d.N - 1) * d.p1 + d.m + d.n
            large = (tau - 1) * d.p1 + (d.N - tau + 1) * d.m
            assert predict_rank_D(d, tau)[0] == small == large
        n_sat = (dims.N - 1) * w
        if n_sat >= 1:
            d = Dimensions(n_sat, dims.m, dims.p1, dims.p2, dims.N)
            assert predict_mult_infinity(d, tau)[0] == \
                min(d.n - (d.N - tau) * w, (tau - 1) * w)
            assert predict_mult_zero(d, tau)[0] == \
                min(d.n - (tau - 1) * w, (d.N - tau) * w)


class TestControllability:
    def test_row_limited(self):
        assert predict_controllability_rank(4, 2, 2) == 4

    def test_column_limited(self):
        assert predict_controllability_rank(5, 2, 2) == 4

    def test_single_block(self):
        assert predict_controllability_rank(2, 3, 1) == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            predict_controllability_rank(0, 1, 1)


class TestDualIndex:
    def test_endpoints(self):
        assert dual_index(1, 8) == 8
        assert dual_index(4, 8) == 5

    @given(N=st.integers(2, 12), data=st.data())
    def test_involution(self, N, data):
        tau = data.draw(st.integers(1, N))
        assert dual_index(dual_index(tau, N), N) == tau

    def test_out_of_range(self):
        with pytest.raises(TauOutOfRange):
            dual_index(0, 4)


class TestPredictBundle:
    @pytest.mark.parametrize("tau", [1.5, True, 2.0, "1"])
    def test_non_integer_tau_refused(self, tau):
        # 1.5 was predicted as a delay with rank_D = 5, True as delay 1
        with pytest.raises(TauOutOfRange, match="must be an integer"):
            predict(EXAMPLE1_DIMS, tau)

    def test_numpy_integer_tau_accepted(self):
        assert predict(EXAMPLE1_DIMS, np.int64(2)) == predict(EXAMPLE1_DIMS, 2)

    def test_carries_case_labels(self):
        pred = predict(EXAMPLE1_DIMS, 1)
        assert pred.rank_D == 5
        assert pred.normal_rank == 6
        assert pred.mult_at_zero == 1
        assert pred.mult_at_infinity == 0
        assert set(pred.case_labels) == {
            "rank_D", "normal_rank", "mult_at_zero", "mult_at_infinity"}

    @given(dt=tall_dims_and_tau())
    @settings(max_examples=150)
    def test_consistent_with_parts(self, dt):
        dims, tau = dt
        pred = predict(dims, tau)
        assert pred.rank_D == predict_rank_D(dims, tau)[0]
        assert pred.normal_rank == predict_normal_rank(dims)[0]
        assert pred.mult_at_zero == predict_mult_zero(dims, tau)[0]
        assert pred.mult_at_infinity == predict_mult_infinity(dims, tau)[0]
        assert pred.mult_at_zero <= pred.normal_rank
        assert pred.mult_at_infinity <= pred.normal_rank


class TestSummaryTable:
    def test_fast_tall_row(self):
        row = summary_table(Dimensions(2, 1, 2, 1, 3), 1)
        assert (row.finite_nonzero, row.at_zero, row.at_infinity) == ("No", "No", "No")

    def test_origin_heavy_row(self):
        row = summary_table(LONG_HORIZON_DIMS, 1)
        assert (row.finite_nonzero, row.at_zero, row.at_infinity) == ("No", "Yes (5)", "No")

    def test_square_rate_row(self):
        row = summary_table(Dimensions(3, 2, 2, 1, 2), 1)
        assert (row.finite_nonzero, row.at_zero, row.at_infinity) == ("No", "No", "No")

    @given(dt=tall_dims_and_tau())
    @settings(max_examples=60)
    def test_finite_nonzero_never_predicted(self, dt):
        dims, tau = dt
        assert summary_table(dims, tau).finite_nonzero == "No"
