"""Finite-zero search, candidate verification, zero reports, multiplicities."""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multirate_zeros import harness, zeros
from multirate_zeros.blocking import (MatrixPencil, block, fast_subsystem,
                                      system_pencil)
from multirate_zeros.errors import SingularD
from multirate_zeros.model import (Dimensions, MultirateSystem,
                                   TolerancePolicy, _rng, random_generic)
from multirate_zeros.numerics import eigenvalues, normal_rank, numerical_rank, rank_at
from multirate_zeros.zeros import (ZeroReport, finite_zero_candidates,
                                   multiplicities, square_blocked_zeros,
                                   verify_zero, zero_report,
                                   zero_report_to_dict)

from conftest import LONG_HORIZON_DIMS


def delay_fields(sys, tau, policy, seed=0):
    # the rank fields at tau as trials and analyze derive them, unbounded
    _, _, rank = harness._read(sys, (tau,), policy, seed, None)
    return harness._delay_fields(rank, sys.dims.n, tau)


def report(sys, tau, policy, seed):
    # zero_report on the pencil of sys blocked at tau
    return zero_report(system_pencil(block(sys, tau)), tau, policy, seed=seed)


def scalar_pencil(e, f):
    return MatrixPencil(E=np.array([[float(e)]]), F=np.array([[float(f)]]))


class TestFiniteZeroCandidates:
    def test_scalar_eigenvalue_found(self, policy):
        cands = finite_zero_candidates(scalar_pencil(1, 2), policy, seed=0, normal_rank=1)
        assert any(abs(z - 2.0) < policy.cluster_tol for z in cands)

    def test_no_finite_drop_means_empty(self, policy):
        p = MatrixPencil(E=np.zeros((2, 2)), F=np.eye(2))
        assert finite_zero_candidates(p, policy, seed=0, normal_rank=2) == []

    def test_zero_normal_rank_short_circuits(self, policy):
        p = MatrixPencil(E=np.zeros((2, 2)), F=np.zeros((2, 2)))
        assert finite_zero_candidates(p, policy, seed=0, normal_rank=0) == []

    @pytest.mark.parametrize("seed", range(5))
    def test_square_system_eigenvalues_covered(self, seed, policy):
        # for a square fast-only blocked system with invertible feedthrough
        # the finite zeros are known in closed form; the candidate search
        # must cover all of them
        sys = random_generic(Dimensions(2, 1, 1, 1, 2), seed=seed)
        blk = fast_subsystem(block(sys, 1))
        zeros = eigenvalues(blk.A_tau - blk.B_tau @ np.linalg.solve(blk.D_tau, blk.C_tau))
        pencil = system_pencil(blk)
        rho = normal_rank(pencil, policy, seed=seed)
        cands = finite_zero_candidates(pencil, policy, seed=seed, normal_rank=rho)
        for z in zeros:
            assert any(abs(z - c) < 1e-6 for c in cands), (z, cands)

    def test_deterministic(self, policy, example1_sys):
        pencil = system_pencil(block(example1_sys, 1))
        a = finite_zero_candidates(pencil, policy, seed=5, normal_rank=6)
        b = finite_zero_candidates(pencil, policy, seed=5, normal_rank=6)
        assert a == b


def full_size_candidates(pencil, policy, seed, rho):
    """The rho x rho candidate search: eigenvalues of M = solve(G, U E V), same draws, same floor.

    E's zero columns give M rho - |J| structural zero eigenvalues. They can
    chain with the zeros at infinity into Jordan blocks at 0 longer than 2,
    which rounding lifts above the floor. M W2 = 0 for W2 spanning the null
    space of V[J, :], so the orthogonal similarity [W1 W2] deflates them
    exactly, leaving the eigenvalues of W1^T M W1.
    """
    rows, cols = pencil.shape
    J = np.flatnonzero(pencil.E.any(axis=0))
    rng = _rng(seed)
    for _ in range(policy.resample_limit):
        U, V = rng.standard_normal((rho, rows)), rng.standard_normal((cols, rho))
        s = complex(*rng.standard_normal(2))
        G = U @ (pencil.F - s * pencil.E) @ V
        if np.linalg.cond(G) <= zeros._COMPRESSION_COND_CAP:
            break
    M = np.linalg.solve(G, U @ pencil.E @ V)
    W1 = np.linalg.svd(V[J].T)[0][:, :len(J)]
    lam = np.linalg.eigvals(W1.T @ M @ W1)
    floor = max(policy.cluster_tol,
                zeros._EIG_NOISE_SAFETY * np.sqrt(np.finfo(float).eps * np.linalg.norm(M, 2)))
    return zeros._cluster(s + 1.0 / lam[np.abs(lam) > floor], policy.cluster_tol)


def chordal(a, b):
    # distance on the Riemann sphere, so copies of the point at infinity compare too
    return abs(a - b) / (np.sqrt(1 + abs(a) ** 2) * np.sqrt(1 + abs(b) ** 2))


def same_points(a, b, tol=1e-6):
    return len(a) == len(b) and all(min(chordal(x, y) for y in b) < tol for x in a) \
        and all(min(chordal(x, y) for x in a) < tol for y in b)


class TestReducedEigenproblem:
    """The |J| x |J| eigenproblem gives the candidates of the rho x rho one."""

    @given(dims=st.sampled_from([Dimensions(1, 3, 1, 5, 2), Dimensions(2, 2, 1, 3, 3),
                                 Dimensions(3, 2, 2, 1, 4), Dimensions(2, 1, 3, 1, 4),
                                 Dimensions(5, 5, 3, 24, 8)]),
           seed=st.integers(0, 10**6), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_system_pencils(self, dims, seed, data, policy):
        self.check(dims, seed, data.draw(st.integers(1, dims.N)), policy)

    @pytest.mark.parametrize("dims,seed,tau", [(Dimensions(2, 2, 1, 3, 3), 5022, 2),
                                               (Dimensions(5, 5, 3, 24, 8), 756908, 3)])
    def test_system_pencils_the_plain_reference_misread(self, dims, seed, tau, policy):
        # 5022: undeflated, M's chain at 0 read as a pair near +-(27741 - 35745j);
        # 756908: the first compression is past the condition cap, and is redrawn
        self.check(dims, seed, tau, policy)

    @staticmethod
    def check(dims, seed, tau, policy):
        pencil = system_pencil(block(random_generic(dims, seed), tau))
        rho = normal_rank(pencil, policy, seed)
        assert same_points(finite_zero_candidates(pencil, policy, seed, rho),
                           full_size_candidates(pencil, policy, seed, rho))

    def test_eigenproblem_is_n_by_n_on_a_system_pencil(self, monkeypatch, policy):
        dims = Dimensions(5, 5, 3, 24, 8)
        pencil = system_pencil(block(random_generic(dims, 0), 3))
        shapes = []
        monkeypatch.setattr(zeros, "eigenvalues",
                            lambda M: shapes.append(M.shape) or eigenvalues(M))
        finite_zero_candidates(pencil, policy, 0, normal_rank(pencil, policy, 0))
        assert shapes == [(dims.n, dims.n)]

    @pytest.mark.parametrize("seed", range(4))
    def test_noise_floor_reads_the_norm_of_the_full_product(self, monkeypatch, seed, policy):
        # the floor's norm(G^-1 H, 2) comes from the thin factors, and equals
        # the norm of the rho x rho product
        pencil = system_pencil(block(random_generic(Dimensions(3, 2, 1, 4, 3), seed), 2))
        rho = normal_rank(pencil, policy, seed)
        norms = []
        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda M, *a, **k: norms.append(
            (a, k, norm(M, *a, **k))) or norms[-1][2])
        finite_zero_candidates(pencil, policy, seed, rho)
        monkeypatch.undo()
        rng = _rng(seed)
        rows, cols = pencil.shape
        U, V = rng.standard_normal((rho, rows)), rng.standard_normal((cols, rho))
        s = complex(*rng.standard_normal(2))
        full = np.linalg.solve(U @ (pencil.F - s * pencil.E) @ V, U @ pencil.E @ V)
        [got] = [value for a, k, value in norms if a == (2,)]
        assert got == pytest.approx(np.linalg.norm(full, 2), rel=1e-10)

    @pytest.mark.parametrize("draw", range(12))
    def test_planted_pencil_with_a_full_E(self, draw, policy):
        # E and F share an inner factorization, so the pencil loses rank
        # exactly at the planted nonzero points; E has no zero column
        rng = np.random.default_rng(draw)
        rows, cols = rng.integers(3, 8, 2)
        inner = int(rng.integers(2, min(rows, cols) + 1))
        U, V = rng.standard_normal((rows, inner)), rng.standard_normal((inner, cols))
        E0 = rng.standard_normal((inner, inner))
        planted = rng.uniform(0.5, 3.0, inner) * rng.choice([-1.0, 1.0], inner)
        pencil = MatrixPencil(E=U @ E0 @ V, F=U @ (E0 * planted) @ V)
        assert np.all(np.any(pencil.E != 0, axis=0))
        rho = normal_rank(pencil, policy, draw)
        assert rho == inner
        cands = finite_zero_candidates(pencil, policy, draw, rho)
        assert same_points(cands, full_size_candidates(pencil, policy, draw, rho))
        for z in planted:
            assert min(abs(z - c) for c in cands) < 1e-6


class TestVerifyZero:
    def test_scalar_zero_confirmed(self, policy):
        assert verify_zero(scalar_pencil(1, 2), 2.0, policy, normal_rank=1) == 1

    def test_scalar_nonzero_rejected(self, policy):
        assert verify_zero(scalar_pencil(1, 2), 3.0, policy, normal_rank=1) == 0

    def test_worked_instance_origin(self, example1_sys, policy):
        pencil = system_pencil(block(example1_sys, 1))
        assert verify_zero(pencil, 0.0, policy, normal_rank=6) == 1

    def test_no_drop_reads_no_reference(self, policy, monkeypatch):
        points = []
        monkeypatch.setattr(zeros, "rank_at", lambda p, Z, pol: points.append(Z)
                            or rank_at(p, Z, pol))
        assert verify_zero(scalar_pencil(1, 2), 3.0, policy, normal_rank=1) == 0
        assert points == [3.0]

    @pytest.mark.parametrize("dims,seed", [(Dimensions(2, 1, 1, 1, 2), 0),
                                           (Dimensions(3, 2, 1, 3, 3), 1),
                                           (Dimensions(5, 5, 3, 24, 8), 2)])
    def test_equals_the_drop_against_both_references(self, dims, seed, policy):
        # the reference reads the rank at both reference points for every
        # candidate; the early return must not change any multiplicity
        def every_reference(pencil, Z0, rho):
            r0 = rank_at(pencil, Z0, policy)
            if Z0 == 0:
                return max(0, rho - r0)
            return max(0, min(rho - r0, *(min(rho, rank_at(pencil, c * Z0, policy)) - r0
                                          for c in zeros._REFERENCE_MULTIPLIERS)))

        sys = random_generic(dims, seed=seed)
        for tau in (1, dims.N):
            pencil = system_pencil(block(sys, tau))
            rho = normal_rank(pencil, policy, seed=seed)
            cands = finite_zero_candidates(pencil, policy, seed=seed, normal_rank=rho)
            for z in cands + [0j]:
                assert verify_zero(pencil, z, policy, rho) == every_reference(pencil, z, rho)


class TestZeroReport:
    # the multiplicities at 0 and infinity come from the rank readings, the
    # finite nonzero zeros from zero_report, both at seed 0

    def test_wide_rate_instance_zero_free_delay(self, policy):
        sys = random_generic(LONG_HORIZON_DIMS, seed=0)
        fields = delay_fields(sys, 4, policy)
        assert fields["mult_at_zero"] == 0
        assert fields["mult_at_infinity"] == 0
        assert report(sys, 4, policy, 0).finite_nonzero_zeros == ()

    def test_wide_rate_instance_origin_heavy_delay(self, policy):
        sys = random_generic(LONG_HORIZON_DIMS, seed=0)
        fields = delay_fields(sys, 1, policy)
        assert fields["mult_at_zero"] == 5
        assert fields["mult_at_infinity"] == 0
        assert report(sys, 1, policy, 0).finite_nonzero_zeros == ()

    @pytest.mark.parametrize("tau", [1, 2, 3])
    def test_fast_tall_all_clear(self, tau, policy):
        sys = random_generic(Dimensions(2, 1, 2, 1, 3), seed=2)
        fields = delay_fields(sys, tau, policy)
        assert fields["mult_at_zero"] == 0
        assert fields["mult_at_infinity"] == 0
        assert report(sys, tau, policy, 0).finite_nonzero_zeros == ()

    @pytest.mark.parametrize("tau", [1, 2])
    def test_square_fast_rate_all_clear(self, tau, policy):
        # p1 = m keeps the blocked system zero-free at both special points
        sys = random_generic(Dimensions(3, 2, 2, 1, 2), seed=6)
        fields = delay_fields(sys, tau, policy)
        assert fields["mult_at_zero"] == 0
        assert fields["mult_at_infinity"] == 0
        assert report(sys, tau, policy, 0).finite_nonzero_zeros == ()

    def test_multiplicity_identities(self, example1_sys, policy):
        blk = block(example1_sys, 1)
        fields = delay_fields(example1_sys, 1, policy)
        pencil = system_pencil(blk)
        assert fields["mult_at_zero"] == fields["normal_rank"] - rank_at(pencil, 0.0, policy)
        rank_at_infinity = blk.A_tau.shape[0] + numerical_rank(blk.D_tau, policy)
        assert fields["mult_at_infinity"] == max(0, fields["normal_rank"] - rank_at_infinity)

    def test_deterministic(self, example1_sys, policy):
        assert report(example1_sys, 1, policy, 3) == report(example1_sys, 1, policy, 3)

    def test_report_carries_inputs(self, example1_sys, policy):
        rep = report(example1_sys, 2, policy, 9)
        assert rep.tau == 2
        assert rep.seed == 9
        assert isinstance(rep, ZeroReport)


class TestMultiplicities:
    @given(dims=st.builds(Dimensions, n=st.integers(1, 4), m=st.integers(1, 3),
                          p1=st.integers(1, 3), p2=st.integers(1, 4),
                          N=st.integers(2, 4)),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_zero_report_reads_them_at_every_delay(self, dims, seed):
        # one reading per system serves every delay: the stacked normal rank
        # is the one-pencil reading zero_report falls back on, and the
        # multiplicities follow from the readings by `multiplicities`
        policy = TolerancePolicy()
        sys = random_generic(dims, seed)
        taus = range(1, dims.N + 1)
        blocks, _, rank = harness._read(sys, taus, policy, seed, None)
        for tau in taus:
            blk = blocks[tau - 1]
            fields = harness._delay_fields(rank, dims.n, tau)
            got = multiplicities(rank["normal_rank", tau], rank["rank_at_zero", tau],
                                 rank["rank_D", tau], dims.n)
            assert got == (fields["mult_at_zero"], fields["mult_at_infinity"])
            assert rank["normal_rank", tau] == normal_rank(system_pencil(blk), policy, seed)
            assert rank["rank_D", tau] == numerical_rank(blk.D_tau, policy)
            assert rank["rank_at_zero", tau] == rank_at(system_pencil(blk), 0.0, policy)


class TestSquareBlockedZeros:
    def test_scalar_square_of_unblocked_zero(self):
        a, b, c, d = 0.7, 1.3, -0.4, 2.0
        sys = MultirateSystem(dims=Dimensions(1, 1, 1, 1, 2), A=[[a]], B=[[b]],
                              Cf=[[c]], Cs=[[0.0]], Df=[[d]], Ds=[[0.0]])
        blk = fast_subsystem(block(sys, 1))
        got = square_blocked_zeros(blk)
        unblocked = a - b * c / d
        assert np.allclose(sorted(got.real), [unblocked ** 2])

    def test_singular_feedthrough_refused(self):
        sys = MultirateSystem(dims=Dimensions(1, 1, 1, 1, 2), A=[[1.0]], B=[[1.0]],
                              Cf=[[1.0]], Cs=[[0.0]], Df=[[0.0]], Ds=[[0.0]])
        blk = fast_subsystem(block(sys, 1))
        with pytest.raises(SingularD):
            square_blocked_zeros(blk)

    def test_nonsquare_feedthrough_refused(self, example1_sys):
        with pytest.raises(SingularD):
            square_blocked_zeros(block(example1_sys, 1))

    @pytest.mark.parametrize("seed", range(5))
    def test_blocked_zeros_are_powers(self, seed):
        sys = random_generic(Dimensions(2, 1, 1, 1, 2), seed=seed)
        blk = fast_subsystem(block(sys, 1))
        got = sorted(square_blocked_zeros(blk), key=lambda z: (z.real, z.imag))
        unblocked = eigenvalues(sys.A - sys.B @ np.linalg.solve(sys.Df, sys.Cf))
        want = sorted(unblocked ** 2, key=lambda z: (z.real, z.imag))
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-8 * max(1.0, abs(w))


class TestSerialization:
    def test_complex_numbers_as_re_im(self, example1_sys, policy):
        rep = report(example1_sys, 1, policy, 0)
        data = zero_report_to_dict(rep)
        text = json.dumps(data)  # must be JSON-serializable as-is
        back = json.loads(text)
        assert back["tau"] == 1
        assert back["finite_nonzero_zeros"] == []
        assert set(back) == {"tau", "finite_nonzero_zeros", "boundary_candidates",
                             "candidates_examined", "seed"}
        # the rank fields analyze sets beside these keys
        fields = delay_fields(example1_sys, 1, policy)
        assert (fields["normal_rank"], fields["mult_at_zero"], fields["mult_at_infinity"]) \
            == (6, 1, 0)
        for entry in back["finite_nonzero_zeros"] + back["boundary_candidates"]:
            assert set(entry["location"]) == {"re", "im"}

    def test_populated_zero_list_round_trips(self, policy):
        rep = ZeroReport(tau=1, finite_nonzero_zeros=((1.5 + 0.5j, 2),),
                         boundary_candidates=((1e-7 + 0j, 1),),
                         candidates_examined=4, seed=0)
        data = zero_report_to_dict(rep)
        assert data["finite_nonzero_zeros"] == [
            {"location": {"re": 1.5, "im": 0.5}, "multiplicity": 2}]
        assert data["boundary_candidates"][0]["location"]["re"] == 1e-7
