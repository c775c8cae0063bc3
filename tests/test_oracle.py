"""Closed-form predictions: values, case labels, and integer identities."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multirate_zeros import _exact
from multirate_zeros.blocking import _assemble, _check_tau, system_pencil
from multirate_zeros.harness import _delay_fields
from multirate_zeros.model import Dimensions, SystemClass, classify
from multirate_zeros.oracle import dual_index, predict, predict_controllability_rank

from conftest import EXAMPLE1_DIMS, LONG_HORIZON_DIMS


# The reference: each quantity's formula written out on its own, the origin's
# multiplicity mirrored from the infinity one by hand, as the oracle once
# stated them. `predict` must give their values, labels and refusals.

def ref_require_tall(dims: Dimensions) -> SystemClass:
    cls = classify(dims)
    if cls is SystemClass.NOT_TALL:
        raise ValueError(
            f"predictions require a tall system (N*p1 + p2 > N*m): dims {dims} give "
            f"N*p1+p2 = {dims.N * dims.p1 + dims.p2} <= N*m = {dims.N * dims.m}")
    return cls


def ref_rank_D(dims: Dimensions, tau: int) -> tuple[int, str]:
    cls = ref_require_tall(dims)
    tau = _check_tau(tau, dims.N)
    n, m, p1, N = dims.n, dims.m, dims.p1, dims.N
    if cls is SystemClass.FAST_TALL:
        return N * m, "full-column"
    if n <= (N - tau) * (m - p1):
        return (N - 1) * p1 + m + n, "small-state"
    return (tau - 1) * p1 + (N - tau + 1) * m, "large-state"


def ref_normal_rank(dims: Dimensions) -> tuple[int, str]:
    ref_require_tall(dims)
    n, m, p1, N = dims.n, dims.m, dims.p1, dims.N
    if p1 >= m:
        return n + N * m, "full-column"
    if n < (N - 1) * (m - p1):
        return (N - 1) * p1 + m + 2 * n, "deficient"
    return n + N * m, "full-column"


def ref_mult_infinity(dims: Dimensions, tau: int) -> tuple[int, str]:
    cls = ref_require_tall(dims)
    tau = _check_tau(tau, dims.N)
    n, m, p1, N = dims.n, dims.m, dims.p1, dims.N
    w = m - p1
    if cls is SystemClass.FAST_TALL or w == 0 or n <= (N - tau) * w:
        return 0, "none"
    if n <= (N - 1) * w:
        return n - (N - tau) * w, "partial"
    return (tau - 1) * w, "saturated"


def ref_mult_zero(dims: Dimensions, tau: int) -> tuple[int, str]:
    cls = ref_require_tall(dims)
    tau = _check_tau(tau, dims.N)
    n, m, p1, N = dims.n, dims.m, dims.p1, dims.N
    w = m - p1
    if cls is SystemClass.FAST_TALL or w == 0 or n <= (tau - 1) * w:
        return 0, "none"
    if n <= (N - 1) * w:
        return n - (tau - 1) * w, "partial"
    return (N - tau) * w, "saturated"


def reference(dims: Dimensions, tau: int) -> dict[str, tuple[int, str]]:
    return {"rank_D": ref_rank_D(dims, tau), "normal_rank": ref_normal_rank(dims),
            "mult_at_zero": ref_mult_zero(dims, tau),
            "mult_at_infinity": ref_mult_infinity(dims, tau)}


def part(dims: Dimensions, tau: int, key: str) -> tuple[int, str]:
    """One predicted quantity with its case label."""
    pred = predict(dims, tau)
    return getattr(pred, key), pred.case_labels[key]


def predicted(dims: Dimensions, tau: int) -> dict[str, tuple[int, str]]:
    """predict's quantities in the reference's form."""
    pred = predict(dims, tau)
    assert (pred.dims, pred.tau, pred.system_class) == (dims, tau, classify(dims))
    return {key: (getattr(pred, key), label) for key, label in pred.case_labels.items()}


def outcome(f, dims: Dimensions, tau: int):
    """f's value, or the type and message of its refusal."""
    try:
        return f(dims, tau)
    except ValueError as exc:
        return type(exc), str(exc)


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


class TestReference:
    def test_equals_the_reference_exhaustively(self):
        # every dims with n <= 12, m <= 4, p1 <= m + 2, N <= 7 and
        # p2 <= N*m + 2, tall or not, at its 95 064 delays in 1..N and at
        # 0 and N + 1
        in_range = 0
        for n, m, N in itertools.product(range(1, 13), range(1, 5), range(2, 8)):
            for p1, p2 in itertools.product(range(1, m + 3), range(1, N * m + 3)):
                dims = Dimensions(n, m, p1, p2, N)
                for tau in range(N + 2):
                    assert outcome(predicted, dims, tau) == outcome(reference, dims, tau)
                in_range += N
        assert in_range == 95064


class TestRankD:
    def test_small_state_case(self):
        assert part(EXAMPLE1_DIMS, 1, "rank_D") == (5, "small-state")

    def test_large_state_case(self):
        assert part(EXAMPLE1_DIMS, 2, "rank_D") == (4, "large-state")

    def test_boundary_formulas_coincide(self):
        dims = Dimensions(2, 3, 1, 5, 2)  # n = (N - tau)(m - p1) exactly
        value = predict(dims, 1).rank_D
        n, m, p1, N, tau = dims.n, dims.m, dims.p1, dims.N, 1
        assert value == (N - 1) * p1 + m + n == (tau - 1) * p1 + (N - tau + 1) * m == 6

    def test_fast_tall_full_column(self):
        assert part(Dimensions(2, 1, 2, 1, 3), 2, "rank_D") == (3, "full-column")

    def test_not_tall_rejected(self):
        with pytest.raises(ValueError,
                           match=r"predictions require a tall system \(N\*p1 \+ p2 > N\*m\)"):
            predict(Dimensions(1, 2, 1, 2, 2), 1)

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError,
                           match=r"blocking delay tau must be an integer in 1\.\.2, got 3"):
            predict(EXAMPLE1_DIMS, 3)

    @given(dt=tall_dims_and_tau())
    def test_bounded_by_full_column(self, dt):
        dims, tau = dt
        assert 0 <= predict(dims, tau).rank_D <= dims.N * dims.m


class TestNormalRank:
    def test_worked_instance_deficient(self):
        assert part(EXAMPLE1_DIMS, 1, "normal_rank") == (6, "deficient")

    def test_large_state_full_column(self):
        assert part(Dimensions(4, 2, 1, 3, 2), 1, "normal_rank") == (8, "full-column")

    def test_square_rate_full_column(self):
        assert part(Dimensions(3, 2, 2, 1, 2), 1, "normal_rank") == (7, "full-column")

    @given(dims=tall_dims())
    def test_bounded_by_pencil_shape(self, dims):
        values = {part(dims, tau, "normal_rank") for tau in range(1, dims.N + 1)}
        assert len(values) == 1
        (value, _), = values
        rows = dims.n + dims.N * dims.p1 + dims.p2
        cols = dims.n + dims.N * dims.m
        assert 0 < value <= min(rows, cols)


class TestMultiplicities:
    def test_zero_free_delay(self):
        assert part(LONG_HORIZON_DIMS, 4, "mult_at_infinity") == (0, "none")
        assert part(LONG_HORIZON_DIMS, 5, "mult_at_zero") == (0, "none")

    def test_extreme_delays(self):
        assert part(LONG_HORIZON_DIMS, 8, "mult_at_infinity") == (5, "partial")
        assert part(LONG_HORIZON_DIMS, 1, "mult_at_zero") == (5, "partial")

    def test_wide_rate_full_sweep(self):
        # w = 2: multiplicity at infinity climbs only past tau = 5
        expected_inf = {1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 1, 7: 3, 8: 5}
        expected_zero = {1: 5, 2: 3, 3: 1, 4: 0, 5: 0, 6: 0, 7: 0, 8: 0}
        for tau in range(1, 9):
            pred = predict(LONG_HORIZON_DIMS, tau)
            assert pred.mult_at_infinity == expected_inf[tau]
            assert pred.mult_at_zero == expected_zero[tau]

    @pytest.mark.parametrize("tau", [1, 2])
    def test_square_rate_always_clear(self, tau):
        dims = Dimensions(3, 2, 2, 1, 2)
        assert part(dims, tau, "mult_at_infinity") == (0, "none")
        assert part(dims, tau, "mult_at_zero") == (0, "none")

    @given(dt=tall_dims_and_tau())
    def test_duality_identity(self, dt):
        # predict reads the origin at the dual delay; the reference states
        # the origin's formula on its own
        dims, tau = dt
        assert ref_mult_zero(dims, tau) == ref_mult_infinity(dims, dual_index(tau, dims.N))
        assert part(dims, tau, "mult_at_zero") == ref_mult_zero(dims, tau)

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
            pred = predict(dims, tau)
            assert pred.mult_at_zero == 0
            assert pred.mult_at_infinity == 0

    @given(dt=tall_dims_and_tau())
    def test_extreme_delay_sides_are_clear(self, dt):
        dims, tau = dt
        assert predict(dims, 1).mult_at_infinity == 0
        assert predict(dims, dims.N).mult_at_zero == 0

    @given(dims=tall_dims(), data=st.data())
    def test_constant_sum_in_saturated_regime(self, dims, data):
        w = dims.m - dims.p1
        if w <= 0 or dims.n <= (dims.N - 1) * w:
            return
        tau = data.draw(st.integers(1, dims.N))
        pred = predict(dims, tau)
        assert pred.mult_at_zero + pred.mult_at_infinity == (dims.N - 1) * w

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
            assert predict(d, tau).rank_D == small == large
        n_sat = (dims.N - 1) * w
        if n_sat >= 1:
            d = Dimensions(n_sat, dims.m, dims.p1, dims.p2, dims.N)
            pred = predict(d, tau)
            assert pred.mult_at_infinity == min(d.n - (d.N - tau) * w, (tau - 1) * w)
            assert pred.mult_at_zero == min(d.n - (tau - 1) * w, (d.N - tau) * w)


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

    # (1.5, 2, 1) was predicted as rank 1.5 and (True, 1, 1) as rank True
    @pytest.mark.parametrize("args", [(1.5, 2, 1), (True, 1, 1), (2, 1, np.float64(2.0)),
                                      (2, "1", 1)])
    def test_rejects_non_integers(self, args):
        with pytest.raises(ValueError, match="must all be integers >= 1"):
            predict_controllability_rank(*args)

    def test_numpy_integers_give_an_int(self):
        value = predict_controllability_rank(np.int64(5), np.int32(2), np.int64(2))
        assert (value, type(value)) == (4, int)


class TestDualIndex:
    def test_endpoints(self):
        assert dual_index(1, 8) == 8
        assert dual_index(4, 8) == 5

    @given(N=st.integers(2, 12), data=st.data())
    def test_involution(self, N, data):
        tau = data.draw(st.integers(1, N))
        assert dual_index(dual_index(tau, N), N) == tau

    def test_out_of_range(self):
        with pytest.raises(ValueError,
                           match=r"blocking delay tau must be an integer in 1\.\.4, got 0"):
            dual_index(0, 4)


class TestPredictBundle:
    @pytest.mark.parametrize("tau", [1.5, True, 2.0, "1"])
    def test_non_integer_tau_refused(self, tau):
        # 1.5 was predicted as a delay with rank_D = 5, True as delay 1
        with pytest.raises(ValueError, match="must be an integer"):
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

    @given(n=st.integers(1, 60), m=st.integers(1, 8), data=st.data())
    @settings(max_examples=150)
    def test_equals_the_reference_past_the_exhaustive_range(self, n, m, data):
        p1 = data.draw(st.integers(1, m + 2))
        N = data.draw(st.integers(2, 16))
        p2 = max(N * (m - p1), 0) + data.draw(st.integers(1, 3))
        dims = Dimensions(n, m, p1, p2, N)
        tau = data.draw(st.integers(1, N))
        assert predicted(dims, tau) == reference(dims, tau)
        pred = predict(dims, tau)
        assert pred.mult_at_zero <= pred.normal_rank
        assert pred.mult_at_infinity <= pred.normal_rank


def range_cells():
    # n 1..5, m 1..4, p1 1..m+2 (FastTall included), two p2 offsets, N 2..4
    for n, m, N, off in itertools.product(range(1, 6), range(1, 5), range(2, 5), (1, 2)):
        for p1 in range(1, m + 3):
            yield Dimensions(n, m, p1, max(N * (m - p1), 0) + off, N)


def boundary_cells():
    # m 1..4, p1 1..m, two p2 offsets, N 2..5, and every n >= 1 at or next
    # to a branch boundary of oracle.py: (N-tau)w, (N-1)w or (tau-1)w, any tau
    for m, N, off in itertools.product(range(1, 5), range(2, 6), (1, 2)):
        for p1 in range(1, m + 1):
            w = m - p1
            edges = {b for t in range(1, N + 1) for b in ((N - t) * w, (N - 1) * w, (t - 1) * w)}
            for n in sorted({n for b in edges for n in (b - 1, b, b + 1) if n >= 1}):
                yield Dimensions(n, m, p1, N * w + off, N)


class TestGenericValuesOverFP:
    @pytest.mark.parametrize("cells,checked,combinations", [
        pytest.param(range_cells, 1620, 14, id="range"),
        pytest.param(boundary_cells, 1080, 10, id="boundary"),
    ])
    def test_random_systems_over_fp_attain_every_prediction(self, cells, checked,
                                                            combinations):
        """Random systems over F_P read predict's values at every delay.

        Each system's entries are drawn uniformly from F_P, P = _exact.P,
        and assembled and read in F_P, so no rank needs a tolerance. Every
        minor is a polynomial with integer coefficients in the entries (and
        in Z, for the pencil), so a rank over F_P is at most the generic
        rank over Q: a reading above a prediction refutes it. A reading
        below a generic rank r needs a draw on a root of an r-minor that is
        nonzero mod P, of probability at most deg/P by Schwartz (1980) and
        Zippel (1979), an r-minor having degree at most r(N+1), or a P that
        divides the content of every r-minor. The draws are seeded, so the
        test is deterministic.
        The range reaches FastTall (p1 > m), which the float grids never draw,
        and every case label of every quantity in each class it occurs in;
        the boundary sweep puts n on and either side of each branch's edge.
        """
        rng = np.random.default_rng(0)
        seen, read = set(), 0
        for dims in cells():
            n, m, p1, p2, N = dims.n, dims.m, dims.p1, dims.p2, dims.N
            shapes = [(n, n), (n, m), (p1, n), (p2, n), (p1, m), (p2, m)]
            mats = [rng.integers(0, _exact.P, size=s) for s in shapes]
            blk = _assemble(dims, *mats, matmul=_exact._matmul_mod)
            pencil = system_pencil(blk)
            at_z = pencil.at(int(rng.integers(1, _exact.P))) % _exact.P
            for t in range(1, N + 1):
                rank = {("normal_rank", t): _exact.modp_rank(at_z[t - 1]),
                        ("rank_D", t): _exact.modp_rank(blk.D_tau[t - 1]),
                        ("rank_at_zero", t): _exact.modp_rank(-pencil.F[t - 1] % _exact.P)}
                fields, pred = _delay_fields(rank, n, t), predict(dims, t)
                for q, label in pred.case_labels.items():
                    assert fields[q] == getattr(pred, q), (dims, t, q)
                    seen.add((q, label, pred.system_class))
                read += 1
        assert read == checked
        assert len(seen) == combinations
