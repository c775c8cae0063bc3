"""SVD rank, pencil rank at a point, sampled normal rank, rank at infinity."""
from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multirate_zeros import numerics
from multirate_zeros.blocking import MatrixPencil, block, block_all, system_pencil
from multirate_zeros.errors import ConvergenceFailure  # noqa: F401  (surfaced type)
from multirate_zeros.model import Dimensions, TolerancePolicy, _rng, random_generic
from multirate_zeros.numerics import (NORMAL_RANK_RADIUS, eigenvalues,
                                      normal_rank, numerical_rank, rank_at)
from multirate_zeros.oracle import predict
from multirate_zeros.zeros import multiplicities

from conftest import EXAMPLE1_DIMS, at_delay


def scalar_pencil(e, f):
    return MatrixPencil(E=np.array([[float(e)]]), F=np.array([[float(f)]]))


class TestNumericalRank:
    def test_identity(self, policy):
        assert numerical_rank(np.eye(3), policy) == 3

    def test_zero_matrix(self, policy):
        assert numerical_rank(np.zeros((4, 4)), policy) == 0

    def test_outer_product(self, policy):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(5)
        v = rng.standard_normal(5)
        assert numerical_rank(np.outer(u, v), policy) == 1

    def test_empty_matrix(self, policy):
        assert numerical_rank(np.zeros((0, 3)), policy) == 0

    def test_scale_invariant(self, policy):
        M = np.random.default_rng(1).standard_normal((4, 6))
        assert numerical_rank(M, policy) == numerical_rank(1e12 * M, policy)
        assert numerical_rank(M, policy) == numerical_rank(1e-12 * M, policy)

    @given(ranks=st.lists(st.integers(0, 4), min_size=1, max_size=5),
           draw=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_a_stack_gives_each_matrix_its_own_rank(self, ranks, draw):
        rng = np.random.default_rng(draw)
        stack = np.stack([rng.standard_normal((4, r)) @ rng.standard_normal((r, 5))
                          * 10.0 ** rng.integers(-6, 7) for r in ranks])
        got = numerical_rank(stack)
        assert got == [numerical_rank(M) for M in stack] == ranks
        assert all(type(r) is int for r in got)

    @pytest.mark.parametrize("seed", range(5))
    def test_invariant_under_well_conditioned_factor(self, seed, policy):
        # multiplying by a matrix with condition far below 1/rel_rank_tol
        # cannot move singular values across the threshold
        rng = np.random.default_rng(seed)
        r = rng.integers(1, 4)
        M = rng.standard_normal((5, r)) @ rng.standard_normal((r, 6))
        Q1, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        Q2, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        T = Q1 @ np.diag(rng.uniform(0.5, 2.0, 5)) @ Q2
        assert np.linalg.cond(T) < 1e4
        assert numerical_rank(T @ M, policy) == numerical_rank(M, policy) == r


class TestRankAt:
    def test_scalar_pencil_drops_at_two(self, policy):
        p = scalar_pencil(1, 2)
        assert rank_at(p, 2.0, policy) == 0
        assert rank_at(p, 3.0, policy) == 1

    def test_worked_instance_generic_point(self, example1_sys, policy):
        pencil = system_pencil(block(example1_sys, 1))
        rng = np.random.default_rng(7)
        for _ in range(5):
            Z = complex(*rng.standard_normal(2))
            assert rank_at(pencil, Z, policy) == 6

    def test_far_points_keep_their_rank(self, policy):
        # the evaluation is rescaled beyond the unit circle, so a distant
        # point reads the same rank instead of drowning in its own norm
        pencil = system_pencil(block(random_generic(Dimensions(2, 1, 2, 1, 3), seed=0), 1))
        rho = normal_rank(pencil, policy, seed=0)
        for Z in (1e4, 1e5 + 2e4j, -1e6):
            assert rank_at(pencil, Z, policy) == rho

    @given(seed=st.integers(0, 100))
    @settings(max_examples=20)
    def test_bounded_by_normal_rank(self, seed, policy):
        sys = random_generic(Dimensions(2, 2, 1, 3, 2), seed=seed)
        pencil = system_pencil(block(sys, 1))
        rho = normal_rank(pencil, policy, seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            Z = complex(*rng.standard_normal(2))
            assert rank_at(pencil, Z, policy) <= rho


class TestNormalRank:
    def test_worked_instance(self, example1_sys, policy):
        pencil = system_pencil(block(example1_sys, 1))
        assert normal_rank(pencil, policy, seed=0) == 6

    def test_fast_tall_attains_full_column(self, policy):
        dims = Dimensions(2, 1, 2, 1, 3)
        pencil = system_pencil(block(random_generic(dims, seed=3), 2))
        assert normal_rank(pencil, policy, seed=0) == dims.n + dims.N * dims.m

    def test_scaled_identity_pencil(self, policy):
        p = MatrixPencil(E=np.eye(2), F=np.zeros((2, 2)))
        assert normal_rank(p, policy, seed=0) == 2

    @pytest.mark.parametrize("seed_pair", [(0, 1), (2, 99), (5, 1234)])
    def test_seed_invariant(self, seed_pair, policy):
        pencil = system_pencil(block(random_generic(Dimensions(3, 2, 1, 3, 2), seed=8), 1))
        s1, s2 = seed_pair
        assert normal_rank(pencil, policy, s1) == normal_rank(pencil, policy, s2)

    @pytest.mark.parametrize("seed", range(4))
    def test_delay_independent(self, seed, policy):
        sys = random_generic(Dimensions(2, 3, 1, 7, 3), seed=seed)
        values = {normal_rank(system_pencil(block(sys, tau)), policy, seed=0)
                  for tau in (1, 2, 3)}
        assert len(values) == 1

    def test_sampling_radius_pinned(self):
        assert NORMAL_RANK_RADIUS == 1.372000091


def every_sample_point(policy, seed):
    # real points of either sign, |Z| in NORMAL_RANK_RADIUS * [1, 2], from
    # Philox key seed + 2**64, which no system draw uses
    rng = np.random.Generator(np.random.Philox(key=seed + (1 << 64)))
    u = rng.uniform(-1.0, 1.0, policy.normal_rank_samples)
    return [NORMAL_RANK_RADIUS * float(np.copysign(1.0 + abs(x), x)) for x in u]


def rank_at_every_sample(pencil, policy, seed):
    """The normal rank with no early exit: the max over all sample points."""
    return max(rank_at(pencil, Z, policy) for Z in every_sample_point(policy, seed))


def planted_stack(rows, cols, inner, plants, draw, seed, policy):
    """A stack of real pencils sharing E, of normal rank min(rows, cols, inner),
    with zeros on sample points.

    E and every F share an inner-dimensional factorization, so every
    inner < min(rows, cols) gives rank-deficient pencils. Pencil k has its
    own eigenvalues, plants[k] = (planted, at) of them on sample point
    `at`, where the rank read falls short of the max.
    """
    rng = np.random.default_rng(draw)
    U, V = rng.standard_normal((rows, inner)), rng.standard_normal((inner, cols))
    E0 = rng.standard_normal((inner, inner))
    F = []
    for planted, at in plants:
        eig = rng.standard_normal(inner)
        eig[:planted] = every_sample_point(policy, seed)[at]
        F.append(U @ (E0 * eig) @ V)
    return MatrixPencil(E=U @ E0 @ V, F=np.stack(F))


def planted_pencil(rows, cols, inner, planted, at, draw, seed, policy):
    """The one pencil of a `planted_stack` with `planted` zeros on sample point `at`."""
    stack = planted_stack(rows, cols, inner, [(planted, at)], draw, seed, policy)
    return MatrixPencil(E=stack.E, F=stack.F[0])


def counting(monkeypatch, module, name):
    calls = []
    func = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(1) or func(*a, **k))
    return calls


class TestNormalRankEarlyExit:
    """Stopping at min(bound, rows, cols) leaves the max over the samples unchanged."""

    @given(rows=st.integers(1, 7), cols=st.integers(1, 7), inner=st.integers(0, 7),
           planted=st.integers(0, 3), at=st.integers(0, 2),
           draw=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_equals_max_over_every_sample(self, rows, cols, inner, planted, at, draw, seed):
        policy = TolerancePolicy()
        pencil = planted_pencil(rows, cols, inner, planted, at, draw, seed, policy)
        assert normal_rank(pencil, policy, seed) == rank_at_every_sample(pencil, policy, seed)

    @given(rows=st.integers(1, 7), cols=st.integers(1, 7), inner=st.integers(0, 7),
           planted=st.integers(0, 3), at=st.integers(0, 2), slack=st.integers(0, 2),
           draw=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bound_at_or_above_the_value_leaves_it_unchanged(
            self, rows, cols, inner, planted, at, slack, draw, seed):
        policy = TolerancePolicy()
        pencil = planted_pencil(rows, cols, inner, planted, at, draw, seed, policy)
        value = normal_rank(pencil, policy, seed)
        bound = value + slack
        first = rank_at(pencil, every_sample_point(policy, seed)[0], policy)
        # one stacked rank reading per sample point
        with mock.patch.object(numerics, "_ranks", wraps=numerics._ranks) as spy:
            assert normal_rank(pencil, policy, seed, bound) == value
        if first == min(bound, rows, cols):
            assert spy.call_count == 1

    @given(data=st.data(), rows=st.integers(1, 7), cols=st.integers(1, 7),
           inner=st.integers(1, 7), planted=st.integers(0, 3), at=st.integers(0, 2),
           draw=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bound_below_the_value_reads_every_sample(
            self, data, rows, cols, inner, planted, at, draw, seed):
        # the sweep stops only on a reading equal to the bound, so a bound
        # set too low that no sample reads cannot hide the excess
        policy = TolerancePolicy()
        pencil = planted_pencil(rows, cols, inner, planted, at, draw, seed, policy)
        readings = [rank_at(pencil, Z, policy) for Z in every_sample_point(policy, seed)]
        below = [b for b in range(max(readings)) if b not in readings]
        assume(below)
        bound = data.draw(st.sampled_from(below))
        with mock.patch.object(numerics, "_ranks", wraps=numerics._ranks) as spy:
            assert normal_rank(pencil, policy, seed, bound) == max(readings)
        assert spy.call_count == policy.normal_rank_samples

    @given(dims=st.builds(Dimensions, n=st.integers(1, 4), m=st.integers(1, 3),
                          p1=st.integers(1, 4), p2=st.integers(1, 4),
                          N=st.integers(2, 4)),
           draw=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_equals_max_over_every_sample_on_blocked_pencils(self, dims, draw, seed):
        policy = TolerancePolicy()
        pencil = system_pencil(block(random_generic(dims, draw), 1))
        assert normal_rank(pencil, policy, seed) == rank_at_every_sample(pencil, policy, seed)

    def test_full_column_pencil_costs_one_rank(self, monkeypatch, policy):
        dims = Dimensions(2, 1, 2, 1, 3)
        pencil = system_pencil(block(random_generic(dims, seed=3), 2))
        calls = counting(monkeypatch, numerics, "_ranks")
        assert normal_rank(pencil, policy, seed=0) == min(pencil.shape)
        assert len(calls) == 1

    def test_deficient_pencil_takes_every_sample(self, monkeypatch, example1_sys, policy):
        pencil = system_pencil(block(example1_sys, 1))
        calls = counting(monkeypatch, numerics, "_ranks")
        assert normal_rank(pencil, policy, seed=0) < min(pencil.shape)
        assert len(calls) == policy.normal_rank_samples

    def test_angles_drawn_once_per_seed(self, monkeypatch, policy):
        pencil = system_pencil(block(random_generic(Dimensions(2, 2, 1, 3, 3), seed=5), 1))
        numerics._sample_points.cache_clear()
        numerics._sample_uniforms.cache_clear()
        draws = counting(monkeypatch, numerics, "_rng")
        for _ in range(3):
            normal_rank(pencil, policy, seed=12345)
        assert len(draws) == 1


class TestRealSampling:
    """Every float reading is taken at a real point, in real arithmetic."""

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**40 + 7])
    def test_sample_points_are_real_and_inside_the_band(self, seed, policy):
        points = numerics._sample_points(seed, policy.normal_rank_samples)
        assert len(points) == policy.normal_rank_samples
        for Z in points:
            assert type(Z) is float
            assert NORMAL_RANK_RADIUS <= abs(Z) <= 2 * NORMAL_RANK_RADIUS

    def test_sample_points_are_deterministic_per_seed(self, policy):
        first = numerics._sample_points(5, policy.normal_rank_samples)
        numerics._sample_points(6, policy.normal_rank_samples)
        numerics._sample_points.cache_clear()
        numerics._sample_uniforms.cache_clear()
        assert numerics._sample_points(5, policy.normal_rank_samples) == first
        assert first == tuple(every_sample_point(policy, 5))
        assert first != numerics._sample_points(6, policy.normal_rank_samples)

    def test_sample_points_take_both_signs(self, policy):
        points = [Z for seed in range(20)
                  for Z in numerics._sample_points(seed, policy.normal_rank_samples)]
        assert min(points) < 0 < max(points)
        # the sign and the modulus are not tied together
        assert {Z > 0 for Z in points if abs(Z) > 1.5 * NORMAL_RANK_RADIUS} == {True, False}

    def test_points_do_not_reuse_the_system_stream(self, policy):
        # the system is drawn from key seed; the points from key seed + 2**64
        seed = 3
        system_uniforms = _rng(seed).uniform(-1.0, 1.0, policy.normal_rank_samples)
        assert numerics._sample_uniforms(seed, policy.normal_rank_samples) != tuple(
            system_uniforms)

    @pytest.mark.parametrize("Z", [0.0, 0.5, -0.9, 1.7, -3.0, complex(2.5, 0.0)])
    def test_rank_at_a_real_point_reads_a_float_matrix(self, monkeypatch, example1_sys,
                                                       policy, Z):
        pencil = system_pencil(block(example1_sys, 1))
        seen = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda M, **k: seen.append(M.dtype) or svd(M, **k))
        rank_at(pencil, Z, policy)
        assert seen == [np.float64]

    def test_pencil_at_a_real_point_stays_real(self, example1_sys):
        pencil = system_pencil(block(example1_sys, 1))
        assert pencil.at(0.7).dtype == np.float64
        assert np.array_equal(pencil.at(0.0), -pencil.F)


class TestNormalRanks:
    """One stacked sweep over several pencils gives each one's own normal rank."""

    @given(rows=st.integers(1, 7), cols=st.integers(1, 7), inner=st.integers(0, 7),
           plants=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                           min_size=1, max_size=5),
           bound=st.one_of(st.none(), st.integers(0, 8)),
           draw=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_each_value_matches_a_point_by_point_sweep(self, rows, cols, inner, plants,
                                                       bound, draw, seed):
        # the reference reads one pencil at one point at a time, stopping as
        # _max_rank does; pencils with zeros on different points close their
        # sweeps at different points, and bounds below a pencil's value are
        # included, where its sweep reads every point
        policy = TolerancePolicy()
        stack = planted_stack(rows, cols, inner, plants, draw, seed, policy)
        pencils = [MatrixPencil(E=stack.E, F=F) for F in stack.F]
        assert numerics.normal_ranks(stack, policy, seed, bound) == [
            numerics._max_rank((rank_at(p, Z, policy) for Z in every_sample_point(policy, seed)),
                               p.shape, bound)
            for p in pencils]

    @pytest.mark.parametrize("dims", [EXAMPLE1_DIMS, Dimensions(3, 2, 1, 3, 4),
                                      Dimensions(5, 5, 3, 24, 8)])
    @pytest.mark.parametrize("bound", [None, 0, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_a_stack_sharing_E_reads_as_its_list(self, dims, bound, seed):
        blocks = block_all(random_generic(dims, seed))
        policy = TolerancePolicy()
        assert numerics.normal_ranks(system_pencil(blocks), policy, seed, bound) \
            == [normal_rank(system_pencil(at_delay(blocks, i)), policy, seed, bound)
                for i in range(dims.N)]

    @given(rows=st.integers(1, 7), cols=st.integers(1, 7), inner=st.integers(0, 7),
           plants=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                           min_size=1, max_size=4),
           bound=st.one_of(st.none(), st.integers(0, 7)),
           draw=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_first_point_read_by_the_caller_gives_the_same_values(
            self, rows, cols, inner, plants, bound, draw, seed):
        # the ranks at the first sample point, read outside, carry the sweep
        # on from the second point to the same values, with one svd call less
        policy = TolerancePolicy()
        stack = planted_stack(rows, cols, inner, plants, draw, seed, policy)
        Z = every_sample_point(policy, seed)[0]
        first = [rank_at(MatrixPencil(E=stack.E, F=F), Z, policy) for F in stack.F]
        with mock.patch.object(numerics, "_ranks", wraps=numerics._ranks) as spy:
            got = numerics.normal_ranks(stack, policy, seed, bound, first=first)
        after = spy.call_count
        with mock.patch.object(numerics, "_ranks", wraps=numerics._ranks) as spy:
            assert got == numerics.normal_ranks(stack, policy, seed, bound)
        assert after == spy.call_count - 1

    def test_one_svd_call_per_sample_point(self, monkeypatch, policy):
        # every delay of a generic system meets its bound at the first point
        dims = Dimensions(5, 5, 3, 24, 8)
        pencils = system_pencil(block_all(random_generic(dims, 0)))
        calls = counting(monkeypatch, numerics, "_ranks")
        assert numerics.normal_ranks(pencils, policy, 0, predict(dims, 1).normal_rank) \
            == [predict(dims, 1).normal_rank] * dims.N
        assert len(calls) == 1


class TestToleranceFloor:
    """At the smallest rel_rank_tol the policy accepts, no float rank over-reports."""

    def test_no_reading_exceeds_its_generic_value(self):
        # at 1e-17, below the floor, 8 of these 100 rank(D_tau) readings
        # exceed the generic value; at 1e-20 all 100 do
        policy = TolerancePolicy(rel_rank_tol=float(np.finfo(float).eps))
        for seed in range(50):
            blocks = block_all(random_generic(EXAMPLE1_DIMS, seed))
            for tau in range(1, EXAMPLE1_DIMS.N + 1):
                blk = at_delay(blocks, tau - 1)
                pred = predict(EXAMPLE1_DIMS, tau)
                pencil = system_pencil(blk)
                assert numerical_rank(blk.D_tau, policy) <= pred.rank_D
                assert normal_rank(pencil, policy, seed) <= pred.normal_rank
                assert rank_at(pencil, 0.0, policy) <= pred.normal_rank - pred.mult_at_zero


class TestMultiplicities:
    @staticmethod
    def rank_at_infinity(blk, policy):
        # n + rank(D_tau) as multiplicities reads it for the drop at infinity
        pencil = system_pencil(blk)
        rho = normal_rank(pencil, policy)
        rank_D = numerical_rank(blk.D_tau, policy)
        _, mult_inf = multiplicities(rho, rank_at(pencil, 0.0, policy), rank_D,
                                     blk.A_tau.shape[0])
        assert mult_inf == max(0, rho - blk.A_tau.shape[0] - rank_D)
        return blk.A_tau.shape[0] + rank_D

    def test_worked_instance(self, example1_sys, policy):
        blk = block(example1_sys, 1)
        assert self.rank_at_infinity(blk, policy) == 1 + 5

    def test_zero_feedthrough(self, policy):
        from multirate_zeros.blocking import BlockedSystem
        d = Dimensions(2, 1, 1, 1, 2)
        blk = BlockedSystem(dims=d, tau=1, A_tau=np.eye(2),
                            B_tau=np.ones((2, 2)), C_tau=np.ones((3, 2)),
                            D_tau=np.zeros((3, 2)), slow_rows=1)
        assert self.rank_at_infinity(blk, policy) == 2

    def test_fast_tall_full_column(self, policy):
        dims = Dimensions(2, 1, 2, 1, 3)
        blk = block(random_generic(dims, seed=12), 1)
        assert self.rank_at_infinity(blk, policy) == dims.n + dims.N * dims.m


class TestEigenvalues:
    def test_diagonal(self):
        got = sorted(eigenvalues(np.diag([1.0, 2.0, 3.0])).real)
        assert np.allclose(got, [1, 2, 3])

    def test_rotation(self):
        got = eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert np.allclose(sorted(got, key=lambda z: z.imag), [-1j, 1j])

    def test_companion(self):
        # companion matrix of z^2 - 3z + 2
        got = sorted(eigenvalues(np.array([[0.0, -2.0], [1.0, 3.0]])).real)
        assert np.allclose(got, [1, 2])

    def test_multiplicity_kept(self):
        got = eigenvalues(np.eye(3))
        assert len(got) == 3
        assert np.allclose(got, 1.0)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eigenvalues(np.zeros((2, 3)))

