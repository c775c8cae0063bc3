"""Blocked system assembly, the pencil, transfer evaluation, lifting recursion."""
from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multirate_zeros import blocking
from multirate_zeros._exact import exact_block, modp_block
from multirate_zeros.blocking import (_assemble, block, block_all, lift_relation_residual,
                                      system_pencil, transfer_eval)
from multirate_zeros.errors import ResolventSingular
from multirate_zeros.model import Dimensions, MultirateSystem, fixture, random_generic

from conftest import EXAMPLE1_DIMS, LONG_HORIZON_DIMS, at_delay, fast_subsystem

SCALAR_DIMS = Dimensions(1, 1, 1, 1, 2)


def reverse_time(sys: MultirateSystem) -> MultirateSystem:
    """The time-reversed system: the dynamics run backwards through A^-1."""
    Ainv = np.linalg.inv(sys.A)
    AinvB = Ainv @ sys.B
    return MultirateSystem(dims=sys.dims, A=Ainv, B=-AinvB, Cf=sys.Cf @ Ainv,
                           Cs=sys.Cs @ Ainv, Df=sys.Df - sys.Cf @ AinvB,
                           Ds=sys.Ds - sys.Cs @ AinvB)


def scalar_system(a, b, cf, cs, df, ds):
    return MultirateSystem(dims=SCALAR_DIMS, A=[[a]], B=[[b]], Cf=[[cf]],
                           Cs=[[cs]], Df=[[df]], Ds=[[ds]])


class TestBlock:
    @pytest.mark.parametrize("tau", [1, 2])
    def test_scalar_state_transition_is_a_power(self, tau):
        sys = scalar_system(a=2.0, b=1.0, cf=1.0, cs=1.0, df=1.0, ds=1.0)
        blk = block(sys, tau)
        assert blk.A_tau.shape == (1, 1)
        assert blk.A_tau[0, 0] == 4.0

    def test_scalar_feedthrough_layout_tau_2(self):
        sys = scalar_system(a=0.5, b=2.0, cf=3.0, cs=5.0, df=7.0, ds=11.0)
        blk = block(sys, 2)
        expected = np.array([
            [7.0, 0.0],        # Df, then nothing yet
            [3.0 * 2.0, 7.0],  # Cf B below the diagonal
            [11.0, 0.0],       # slow row: Ds in the leading block for tau = N
        ])
        assert np.allclose(blk.D_tau, expected)

    def test_input_map_stacks_powers(self):
        sys = random_generic(Dimensions(2, 2, 1, 3, 3), seed=1)
        blk = block(sys, 1)
        A, B = sys.A, sys.B
        expected = np.hstack([A @ A @ B, A @ B, B])
        assert np.allclose(blk.B_tau, expected)
        assert np.allclose(blk.A_tau, np.linalg.matrix_power(A, 3), rtol=1e-12)

    def test_output_map_stacks_powers(self):
        sys = random_generic(Dimensions(2, 2, 1, 3, 3), seed=1)
        for tau in (1, 2, 3):
            blk = block(sys, tau)
            A = sys.A
            rows = [sys.Cf, sys.Cf @ A, sys.Cf @ A @ A,
                    sys.Cs @ np.linalg.matrix_power(A, 3 - tau)]
            assert np.allclose(blk.C_tau, np.vstack(rows))

    def test_slow_row_at_maximal_delay(self):
        # tau = N puts Ds first and zeros after it
        sys = random_generic(Dimensions(2, 2, 1, 3, 3), seed=4)
        blk = block(sys, 3)
        slow = blk.D_tau[3:, :]
        assert np.allclose(slow[:, :2], sys.Ds)
        assert np.all(slow[:, 2:] == 0.0)

    @pytest.mark.parametrize("tau", [0, 3, -1])
    def test_tau_out_of_range(self, tau):
        sys = scalar_system(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=r"blocking delay tau must be an integer in 1\.\.2"):
            block(sys, tau)

    @pytest.mark.parametrize("tau", [True, 1.5, 2.0, "1", None, np.float64(1.0)])
    def test_non_integer_tau_refused(self, tau):
        # True passed as delay 1, and 1.5 met numpy's TypeError inside the assembly
        sys = scalar_system(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="must be an integer"):
            block(sys, tau)

    @pytest.mark.parametrize("tau", [np.int64(2), np.uint8(1)])
    def test_numpy_integer_tau_accepted(self, tau):
        sys = random_generic(Dimensions(2, 2, 1, 3, 2), seed=1)
        blk = block(sys, tau)
        assert blk.tau == tau and type(blk.tau) is int
        assert blk.D_tau.tobytes() == block(sys, int(tau)).D_tau.tobytes()


def formula_block(sys: MultirateSystem, tau: int) -> dict:
    """The blocked matrices written out from the block docstring, block by block."""
    d = sys.dims
    N, m, p1, p2 = d.N, d.m, d.p1, d.p2
    Ak = [np.eye(d.n)]
    for _ in range(N):
        Ak.append(Ak[-1] @ sys.A)
    fast = [[sys.Df if j == i else (sys.Cf @ Ak[i - j - 1]) @ sys.B if j < i
             else np.zeros((p1, m)) for j in range(N)] for i in range(N)]
    slow = ([(sys.Cs @ Ak[N - tau - 1 - j]) @ sys.B for j in range(N - tau)]
            + [sys.Ds] + [np.zeros((p2, m))] * (tau - 1))
    return {
        "A_tau": Ak[N],
        "B_tau": np.hstack([Ak[N - 1 - j] @ sys.B for j in range(N)]),
        "C_tau": np.vstack([sys.Cf @ Ak[i] for i in range(N)] + [sys.Cs @ Ak[N - tau]]),
        "D_tau": np.block(fast + [slow]),
    }


class TestBlockAll:
    @pytest.mark.parametrize("dims,seed", [
        (Dimensions(2, 2, 1, 3, 3), 1),
        (Dimensions(3, 2, 2, 1, 4), 7),     # p1 = m
        (Dimensions(2, 1, 2, 1, 3), 3),     # fast tall
        (Dimensions(5, 5, 3, 24, 8), 0),    # the extreme-delay cell
        (Dimensions(1, 3, 1, 5, 2), 11),
    ])
    def test_every_delay_is_bitwise_the_formula(self, dims, seed):
        sys = random_generic(dims, seed)
        blocks = block_all(sys)
        assert blocks.tau == tuple(range(1, dims.N + 1))
        assert blocks.dims == dims
        for t in range(1, dims.N + 1):
            blk, single = at_delay(blocks, t - 1), block(sys, t)
            assert single.tau == t and single.dims == dims
            for name, want in formula_block(sys, t).items():
                for got in (getattr(blk, name), getattr(single, name)):
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (t, name)

    @pytest.mark.parametrize("dims,seed", [(Dimensions(3, 2, 1, 3, 4), 12),
                                           (Dimensions(2, 1, 2, 1, 3), 3)])
    @pytest.mark.parametrize("taus", [(3,), (2, 1), (3, 2, 3), (1, 2, 3),
                                      (np.int64(3), 1), ()])
    def test_any_delays_are_those_of_one_delay(self, dims, seed, taus):
        # one stack at any delays, in any order, repeats included: in float
        # each entry is bitwise block's; mod P and in Fractions it equals
        # the assembly at that delay alone
        sys = random_generic(dims, seed)
        mats = (sys.A, sys.B, sys.Cf, sys.Cs, sys.Df, sys.Ds)
        stack = _assemble(dims, taus, *mats)
        assert stack.tau == taus
        assert stack.C_tau.shape[0] == stack.D_tau.shape[0] == len(taus)
        for i, t in enumerate(taus):
            one, want = at_delay(stack, i), block(sys, t)
            assert one.tau == want.tau
            for name in ("A_tau", "B_tau", "C_tau", "D_tau"):
                got, ref = getattr(one, name), getattr(want, name)
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes(), (t, name)
        for assemble in (modp_block, exact_block):
            chosen = assemble(sys, taus)
            assert chosen.tau == taus
            for i, t in enumerate(taus):
                alone = assemble(sys, [t])
                for name in ("A_tau", "B_tau"):
                    assert np.array_equal(getattr(chosen, name), getattr(alone, name))
                for name in ("C_tau", "D_tau"):
                    assert np.array_equal(getattr(chosen, name)[i], getattr(alone, name)[0])


class TestWorkedInstance:
    """The 8x7 system matrix of the (1,3,1,5,2) instance, entry by entry."""

    def test_full_display(self, example1_sys):
        sys = example1_sys
        a = sys.A[0, 0]
        b = sys.B[0]
        cf = sys.Cf[0, 0]
        cs = sys.Cs[:, 0]
        df = sys.Df[0]
        ds = sys.Ds
        Z = 1.0
        P = system_pencil(block(sys, 1)).at(Z)
        assert P.shape == (8, 7)
        expected = np.zeros((8, 7), dtype=complex)
        expected[0] = [Z - a * a, -a * b[0], -a * b[1], -a * b[2],
                       -b[0], -b[1], -b[2]]
        expected[1] = [cf, df[0], df[1], df[2], 0, 0, 0]
        expected[2] = [cf * a, cf * b[0], cf * b[1], cf * b[2],
                       df[0], df[1], df[2]]
        for i in range(5):
            expected[3 + i] = [cs[i] * a, cs[i] * b[0], cs[i] * b[1],
                               cs[i] * b[2], ds[i, 0], ds[i, 1], ds[i, 2]]
        assert np.allclose(P, expected)

    def test_first_slow_row_couples_state(self, example1_sys):
        P = system_pencil(block(example1_sys, 1)).at(0.3)
        cs1 = example1_sys.Cs[0, 0]
        a = example1_sys.A[0, 0]
        assert np.isclose(P[3, 0], cs1 * a)

    def test_fast_row_is_delay_independent(self, example1_sys):
        P = system_pencil(block(example1_sys, 1)).at(2.0)
        row = np.concatenate([example1_sys.Cf[0], example1_sys.Df[0], np.zeros(3)])
        assert np.allclose(P[1], row)


class TestTimeReversal:
    @pytest.mark.parametrize("dims,seed", [
        (Dimensions(1, 3, 1, 5, 2), 7),
        (Dimensions(2, 2, 1, 4, 3), 8),
        (Dimensions(3, 2, 2, 1, 4), 9),
        (Dimensions(4, 3, 2, 4, 3), 10),
    ])
    def test_dual_delay_mirrors_the_transfer_function(self, dims, seed):
        # the reverse-time system blocked at the dual delay N - tau + 1 has,
        # at Z, the forward blocked transfer function at 1/Z with the fast
        # output blocks and the input blocks taken in reverse order
        n, m, p1, p2, N = dims.n, dims.m, dims.p1, dims.p2, dims.N
        sys = random_generic(dims, seed)
        rev = reverse_time(sys)
        row = [k for i in range(N) for k in range((N - 1 - i) * p1, (N - i) * p1)]
        row += list(range(N * p1, N * p1 + p2))
        col = [k for j in range(N) for k in range((N - 1 - j) * m, (N - j) * m)]
        Z = 0.3 + 0.8j
        for tau in range(1, N + 1):
            fwd = transfer_eval(block(sys, tau), 1 / Z)[np.ix_(row, col)]
            back = transfer_eval(block(rev, N - tau + 1), Z)
            assert np.linalg.norm(fwd - back) < 1e-9 * np.linalg.norm(back)


class TestSystemPencil:
    def test_E_is_a_state_projector(self):
        sys = scalar_system(2.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        pencil = system_pencil(block(sys, 1))
        expected = np.zeros((4, 3))
        expected[0, 0] = 1.0
        assert np.array_equal(pencil.E, expected)

    def test_value_at_zero_is_minus_F(self):
        sys = random_generic(Dimensions(2, 2, 1, 3, 2), seed=11)
        pencil = system_pencil(block(sys, 1))
        assert np.allclose(pencil.at(0.0), -pencil.F)

    def test_shape_mismatch_rejected(self):
        from multirate_zeros.blocking import MatrixPencil
        with pytest.raises(ValueError):
            MatrixPencil(E=np.eye(2), F=np.eye(3))
        with pytest.raises(ValueError):
            MatrixPencil(E=np.eye(2), F=np.zeros((2, 3, 3)))
        with pytest.raises(ValueError):
            MatrixPencil(E=np.eye(2), F=np.zeros((1, 2, 2, 2)))

    @pytest.mark.parametrize("dims", [EXAMPLE1_DIMS, Dimensions(3, 2, 1, 3, 4),
                                      LONG_HORIZON_DIMS])
    def test_list_of_systems_is_a_stack_sharing_E(self, dims):
        sys = random_generic(dims, seed=5)
        blocks = block_all(sys)
        stack = system_pencil(blocks)
        assert stack.F.shape == (dims.N, *stack.shape)
        for i in range(dims.N):
            for one in (system_pencil(at_delay(blocks, i)), system_pencil(block(sys, i + 1))):
                assert np.array_equal(stack.E, one.E)
                assert np.array_equal(stack.F[i], one.F)
                assert np.array_equal(stack.at(-1.5)[i], one.at(-1.5))

    @given(z1=st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
           z2=st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False))
    @settings(max_examples=40)
    def test_affine_in_Z(self, z1, z2):
        # P(Z) = Z*E - F, so evaluations superpose up to one extra -F
        sys = random_generic(Dimensions(2, 1, 1, 2, 2), seed=13)
        pencil = system_pencil(block(sys, 2))
        lhs = pencil.at(z1) + pencil.at(z2)
        rhs = pencil.at(z1 + z2) - pencil.F
        assert np.allclose(lhs, rhs)


class TestTransferEval:
    def test_far_point_approaches_feedthrough(self):
        blk = block(random_generic(Dimensions(3, 2, 2, 3, 2), seed=3), 1)
        V = transfer_eval(blk, 1e8)
        rel = np.linalg.norm(V - blk.D_tau) / np.linalg.norm(blk.D_tau)
        assert rel < 1e-6

    def test_pole_refused(self):
        sys = scalar_system(a=2.0, b=1.0, cf=1.0, cs=1.0, df=1.0, ds=1.0)
        blk = block(sys, 1)
        with pytest.raises(ResolventSingular):
            transfer_eval(blk, 4.0)  # A_tau = a^N = 4 exactly

    def test_matches_direct_formula(self):
        blk = block(random_generic(Dimensions(2, 2, 1, 3, 3), seed=6), 2)
        Z = 0.4 - 1.1j
        V = transfer_eval(blk, Z)
        direct = blk.C_tau @ np.linalg.inv(Z * np.eye(2) - blk.A_tau) @ blk.B_tau + blk.D_tau
        assert np.allclose(V, direct)

    @pytest.mark.parametrize("Z", [0.4 - 1.1j, -1.3])
    def test_stack_is_the_stack_of_its_delays(self, Z):
        blocks = block_all(random_generic(Dimensions(2, 2, 1, 3, 3), seed=6))
        V = transfer_eval(blocks, Z)
        assert V.shape == blocks.D_tau.shape
        for i in range(3):
            assert np.array_equal(V[i], transfer_eval(at_delay(blocks, i), Z))


def explicit_lift_residuals(blocks, Z):
    """Per-pair residuals of V_tau+1 = L V_tau R with L(Z) and R(Z) written out as matrices."""
    d = blocks.dims
    N, m, p1, p2 = d.N, d.m, d.p1, d.p2
    L = np.zeros((N * p1 + p2, N * p1 + p2), dtype=complex)
    L[: (N - 1) * p1, p1: N * p1] = np.eye((N - 1) * p1)
    L[(N - 1) * p1: N * p1, :p1] = Z * np.eye(p1)
    L[N * p1:, N * p1:] = np.eye(p2)
    R = np.zeros((N * m, N * m), dtype=complex)
    R[:m, (N - 1) * m:] = np.eye(m) / Z
    R[m:, : (N - 1) * m] = np.eye((N - 1) * m)
    V = [transfer_eval(at_delay(blocks, i), Z) for i in range(N)]
    return [np.linalg.norm(hi - L @ lo @ R) / np.linalg.norm(hi) for lo, hi in zip(V, V[1:])]


LIFT_DIMS = Dimensions(2, 2, 1, 5, 4)


class TestLiftRelation:
    @given(dims=st.sampled_from([Dimensions(2, 1, 3, 1, 4),      # FastTall
                                 Dimensions(3, 2, 2, 1, 4),      # p1 = m
                                 Dimensions(5, 5, 3, 24, 8)]),   # the extreme-delay cell
           seed=st.integers(0, 10**6),
           theta=st.floats(0.0, 2 * np.pi),
           scales=st.lists(st.sampled_from([0.0, 1e-6, 1e-2, 1.0]), min_size=8, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_rotations_match_explicit_L_and_R(self, dims, seed, theta, scales):
        # scaled noise on each delay's D_tau makes every pair's residual
        # differ, so each pair in turn can be the largest
        blocks = block_all(random_generic(dims, seed))
        noise = np.random.default_rng(seed)
        s = np.array(scales[:dims.N])[:, None, None]
        blocks = replace(blocks, D_tau=blocks.D_tau + s * noise.standard_normal(blocks.D_tau.shape))
        Z = complex(np.cos(theta), np.sin(theta))
        want = max(explicit_lift_residuals(blocks, Z))
        assert abs(lift_relation_residual(blocks, Z) - want) <= 1e-14 * max(want, 1.0)

    def test_fault_at_a_later_delay_is_seen(self):
        # the first pair (delays 1 and 2) is untouched; pairs 2 and 3 are not
        blocks = block_all(random_generic(LIFT_DIMS, seed=21))
        D = blocks.D_tau.copy()
        D[2, LIFT_DIMS.N * LIFT_DIMS.p1:] += 1.0
        blocks = replace(blocks, D_tau=D)
        assert lift_relation_residual(blocks, 0.7 + 0.2j) >= 1e-3

    def test_zero_point_refused(self):
        with pytest.raises(ValueError, match="undefined at Z=0"):
            lift_relation_residual(block_all(random_generic(LIFT_DIMS, seed=21)), 0.0)

    def test_singular_resolvent_refused(self):
        # A_tau = a^N = 1, so Z*I - A_tau vanishes at Z = 1
        sys = scalar_system(a=1.0, b=1.0, cf=1.0, cs=1.0, df=1.0, ds=1.0)
        with pytest.raises(ResolventSingular):
            lift_relation_residual(block_all(sys), 1.0)

    def test_one_resolvent_solve_per_point(self, monkeypatch):
        # one solve serves all N = 4 delays, where a solve per pair made 3
        blocks = block_all(random_generic(LIFT_DIMS, seed=21))
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
        assert lift_relation_residual(blocks, 0.7 + 0.2j) < 1e-10
        assert len(solves) == 1

    @pytest.mark.parametrize("dims", [LIFT_DIMS, LONG_HORIZON_DIMS])
    @pytest.mark.parametrize("points", [[0.9, -1.3, 0.75], (-0.8, 1.2, -1.4),
                                        [0.7 + 0.2j, -0.4 + 1.1j, 1.2 - 0.5j]],
                             ids=["real", "real-tuple", "complex"])
    @pytest.mark.parametrize("seed", range(3))
    def test_sequence_is_the_max_of_its_points(self, dims, points, seed):
        # exactly: the same resolvents, solved as one stack, and the same
        # residual arithmetic at each point; a fault on the last delay makes
        # the points' residuals differ
        blocks = block_all(random_generic(dims, seed))
        D = blocks.D_tau.copy()
        D[-1] *= 1 + 1e-9
        faulted = replace(blocks, D_tau=D)
        for bs in (blocks, faulted):
            assert lift_relation_residual(bs, points) == max(
                lift_relation_residual(bs, Z) for Z in points)

    @pytest.mark.parametrize("dims", [LIFT_DIMS, LONG_HORIZON_DIMS])
    @pytest.mark.parametrize("fit,chunks", [(1, [1] * 5), (2, [2, 2, 1]), (5, [5]), (9, [5])])
    @pytest.mark.parametrize("seed", range(2))
    def test_points_stacked_to_the_byte_budget_read_as_one_by_one(self, monkeypatch, dims,
                                                                   fit, chunks, seed):
        # a budget that fits `fit` points' N transfer functions stacks that
        # many at a time, and the residual is the max of the one-point values
        # bit for bit; a fault on the last delay makes the points differ
        blocks = block_all(random_generic(dims, seed))
        D = blocks.D_tau.copy()
        D[-1] *= 1 + 1e-9
        faulted = replace(blocks, D_tau=D)
        points = [0.9, -1.3, 0.75, 1.1, -0.8]
        stacked = []
        squared_norms = blocking._squared_norms
        monkeypatch.setattr(blocking, "_squared_norms",
                            lambda V: stacked.append(len(V)) or squared_norms(V))
        monkeypatch.setattr(blocking, "LIFT_STACK_BYTES", fit * blocks.D_tau.nbytes)
        for bs in (blocks, faulted):
            one_by_one = [lift_relation_residual(bs, Z) for Z in points]
            stacked.clear()
            assert lift_relation_residual(bs, points) == max(one_by_one)
            assert stacked[::2] == chunks     # two norms a chunk

    def test_budget_fits_a_small_trials_three_points_and_one_large_point(self):
        # the largest staircase cell's three lift points share one stack; one
        # point of a 53x45 extreme pencil already outgrows the budget
        def fits(dims):
            return blocking.LIFT_STACK_BYTES // block_all(random_generic(dims, 0)).D_tau.nbytes
        assert fits(Dimensions(5, 4, 1, 14, 4)) >= 3
        assert fits(LONG_HORIZON_DIMS) == 0

    def test_one_cond_and_one_solve_for_every_point(self, monkeypatch):
        blocks = block_all(random_generic(LIFT_DIMS, seed=21))
        calls = []
        for name in ("cond", "solve"):
            f = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, _f=f, _n=name: calls.append(_n) or _f(*a))
        assert lift_relation_residual(blocks, [0.9, -1.3, 0.75, 1.1]) < 1e-10
        assert calls == ["cond", "solve"]

    def test_first_singular_point_is_named(self):
        # A_tau = a^N = 1: of the three points only the second, Z = 1, is singular
        sys = scalar_system(a=1.0, b=1.0, cf=1.0, cs=1.0, df=1.0, ds=1.0)
        with pytest.raises(ResolventSingular, match=r"at Z=1\.0 has condition"):
            lift_relation_residual(block_all(sys), [0.5, 1.0, 2.0])
        # A_tau = diag(1, 4): the second and third points are singular, the second named
        sys = MultirateSystem(dims=Dimensions(2, 1, 1, 1, 2), A=np.diag([1.0, 2.0]),
                              B=[[1.0], [1.0]], Cf=[[1.0, 1.0]], Cs=[[1.0, 0.0]],
                              Df=[[1.0]], Ds=[[1.0]])
        with pytest.raises(ResolventSingular, match=r"at Z=4\.0 has condition"):
            lift_relation_residual(block_all(sys), [0.5, 4.0, 1.0])

    @pytest.mark.parametrize("points", [[0.5, 0.0, 2.0], [0j]])
    def test_zero_anywhere_in_a_sequence_refused(self, points):
        with pytest.raises(ValueError, match="undefined at Z=0"):
            lift_relation_residual(block_all(random_generic(LIFT_DIMS, seed=21)), points)

    def test_empty_sequence_refused(self):
        with pytest.raises(ValueError, match="empty"):
            lift_relation_residual(block_all(random_generic(LIFT_DIMS, seed=21)), [])

    @pytest.mark.parametrize("points", [[0.9, -1.1], [-1.1, 0.9]])
    def test_zero_transfer_function_reads_zero(self, points):
        # this fixture has all-zero outputs, so every V_tau and every
        # residual is zero: 0 in either point order, with no 0/0 warning
        blocks = block_all(fixture("shift_controllability", Dimensions(2, 1, 1, 1, 2), 1))
        assert not blocks.C_tau.any() and not blocks.D_tau.any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lift_relation_residual(blocks, points) == 0.0

    def test_zero_reference_with_a_residual_reads_inf(self):
        # V_2 is zero but L V_1 R is not
        blocks = block_all(fixture("shift_controllability", Dimensions(2, 1, 1, 1, 2), 1))
        D = blocks.D_tau.copy()
        D[0] += 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lift_relation_residual(replace(blocks, D_tau=D), [0.9, -1.1]) == np.inf

    def test_systems_must_match(self):
        # a system blocked at one delay is refused; a stack holds one
        # system's A_tau and B_tau, and rows of another system at delays 3
        # and 4 break the relation
        one, other = (block_all(random_generic(LIFT_DIMS, seed=s)) for s in (21, 22))
        with pytest.raises(ValueError, match="one system"):
            lift_relation_residual(at_delay(one, 0), 1.0)
        mixed = replace(one, C_tau=np.concatenate([one.C_tau[:2], other.C_tau[2:]]),
                        D_tau=np.concatenate([one.D_tau[:2], other.D_tau[2:]]))
        assert lift_relation_residual(mixed, 0.7 + 0.2j) >= 1e-3

    def test_delays_must_be_consecutive(self):
        sys = random_generic(LIFT_DIMS, seed=21)
        mats = (sys.A, sys.B, sys.Cf, sys.Cs, sys.Df, sys.Ds)
        # missing, duplicate, none, out of order
        for taus in ((1, 3, 4), (1, 2, 2, 4), (), (4, 3, 2, 1)):
            with pytest.raises(ValueError, match="every delay"):
                lift_relation_residual(_assemble(LIFT_DIMS, taus, *mats), 1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_residual_on_unit_circle(self, seed):
        # a stack of separately blocked delays reads as block_all's
        sys = random_generic(Dimensions(3, 2, 1, 3, 4), seed=seed)
        blocks = block_all(sys)
        separate = replace(blocks, C_tau=np.stack([block(sys, t).C_tau for t in range(1, 5)]),
                           D_tau=np.stack([block(sys, t).D_tau for t in range(1, 5)]))
        for theta in np.random.default_rng(seed).uniform(0, 2 * np.pi, 3):
            Z = complex(np.cos(theta), np.sin(theta))
            assert lift_relation_residual(separate, Z) == lift_relation_residual(blocks, Z) < 1e-9


    @given(dims=st.sampled_from([Dimensions(1, 3, 1, 5, 2), Dimensions(3, 2, 1, 3, 4),
                                 Dimensions(2, 1, 3, 1, 4), Dimensions(5, 5, 3, 24, 8)]),
           seed=st.integers(0, 10**6),
           u=st.lists(st.floats(-1.0, 1.0).filter(bool), min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_residual_at_real_points(self, dims, seed, u):
        # the harness's points: real, either sign, |Z| in [2**-0.5, 2**0.5];
        # the whole computation stays real there
        blocks = block_all(random_generic(dims, seed))
        for x in u:
            Z = float(np.copysign(2.0 ** (abs(x) - 0.5), x))
            assert transfer_eval(blocks, Z).dtype == np.float64
            assert lift_relation_residual(blocks, Z) < 1e-9

class TestFastSubsystem:
    def test_row_count(self):
        blk = block(random_generic(Dimensions(2, 2, 1, 3, 3), seed=2), 1)
        fast = fast_subsystem(blk)
        assert fast.C_tau.shape == (3, 2)
        assert fast.D_tau.shape == (3, 6)

    def test_idempotent(self):
        blk = block(random_generic(Dimensions(2, 2, 1, 3, 3), seed=2), 1)
        fast = fast_subsystem(blk)
        assert fast_subsystem(fast) is fast

    def test_delay_independent(self):
        sys = random_generic(Dimensions(2, 2, 1, 3, 3), seed=5)
        parts = [fast_subsystem(block(sys, tau)) for tau in (1, 2, 3)]
        for other in parts[1:]:
            assert np.array_equal(parts[0].A_tau, other.A_tau)
            assert np.array_equal(parts[0].B_tau, other.B_tau)
            assert np.array_equal(parts[0].C_tau, other.C_tau)
            assert np.array_equal(parts[0].D_tau, other.D_tau)

    def test_stack_is_the_stack_of_its_delays(self):
        sys = random_generic(Dimensions(2, 2, 1, 3, 3), seed=5)
        fast = fast_subsystem(block_all(sys))
        assert fast.tau == (1, 2, 3)
        for i in range(3):
            one = fast_subsystem(block(sys, i + 1))
            assert np.array_equal(fast.A_tau, one.A_tau) and np.array_equal(fast.B_tau, one.B_tau)
            assert np.array_equal(fast.C_tau[i], one.C_tau)
            assert np.array_equal(fast.D_tau[i], one.D_tau)

    def test_worked_instance_shape(self, example1_sys):
        fast = fast_subsystem(block(example1_sys, 1))
        pencil = system_pencil(fast)
        assert pencil.shape == (3, 7)
