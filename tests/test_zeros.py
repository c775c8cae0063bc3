"""Finite zeros by structural reduction, candidate verification, zero reports, multiplicities."""
from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multirate_zeros import harness, model, zeros
from multirate_zeros.blocking import (MatrixPencil, block, block_all, fast_subsystem,
                                      system_pencil)
from multirate_zeros.errors import ConvergenceFailure
from multirate_zeros.model import (Dimensions, MultirateSystem,
                                   TolerancePolicy, random_generic)
from multirate_zeros.numerics import eigenvalues, normal_rank, numerical_rank, rank_at
from multirate_zeros.zeros import (ZeroReport, finite_zero_candidates,
                                   multiplicities, verify_zero, zero_report,
                                   zero_report_to_dict)

from conftest import LONG_HORIZON_DIMS, at_delay, planted_zero_system


def delay_fields(sys, tau, policy, seed=0):
    # the rank fields at tau as trials and analyze derive them, unbounded
    _, rank, _ = harness._read(sys, (tau,), (), policy, seed, {})
    return harness._delay_fields(rank, sys.dims.n, tau)


def report(sys, tau, policy, seed):
    # zero_report on the pencil of sys blocked at tau
    return zero_report(system_pencil(block(sys, tau)), tau, policy, seed=seed)


def scalar_pencil(e, f):
    return MatrixPencil(E=np.array([[float(e)]]), F=np.array([[float(f)]]))


def matched_rel_err(got, want) -> float:
    """Largest relative error |g - w| / max(1, |w|) when each w takes its nearest unused g."""
    assert len(got) == len(want), (got, want)
    remaining, worst = list(got), 0.0
    for w in want:
        j = min(range(len(remaining)), key=lambda i: abs(remaining[i] - w))
        worst = max(worst, abs(remaining.pop(j) - w) / max(1.0, abs(w)))
    return worst


def powers_of_unblocked_zeros(sys) -> np.ndarray:
    # a square fast-only system with invertible Df: the zeros of its blocked
    # system are the N-th powers of the eigenvalues of A - B Df^-1 Cf
    return eigenvalues(sys.A - sys.B @ np.linalg.solve(sys.Df, sys.Cf)) ** sys.dims.N


def fast_block_zeros(sys, policy):
    # the reduction on the fast-only system blocked at delay 1
    return finite_zero_candidates(system_pencil(fast_subsystem(block(sys, 1))), policy)


class TestFiniteZeroCandidates:
    def test_scalar_eigenvalue_found(self, policy):
        cands = finite_zero_candidates(scalar_pencil(1, 2), policy)
        assert any(abs(z - 2.0) < policy.cluster_tol for z in cands)

    def test_no_finite_drop_means_empty(self, policy):
        p = MatrixPencil(E=np.zeros((2, 2)), F=np.eye(2))
        assert finite_zero_candidates(p, policy) == []

    def test_zero_normal_rank_short_circuits(self, policy):
        # no state, so the reduction has nothing to deflate and no eigenvalue
        p = MatrixPencil(E=np.zeros((2, 2)), F=np.zeros((2, 2)))
        assert finite_zero_candidates(p, policy) == []

    @pytest.mark.parametrize("seed", range(5))
    def test_square_system_eigenvalues_covered(self, seed, policy):
        # for a square fast-only blocked system with invertible feedthrough
        # the finite zeros are known in closed form; the reduction must
        # return all of them
        sys = random_generic(Dimensions(2, 1, 1, 1, 2), seed=seed)
        blk = fast_subsystem(block(sys, 1))
        zeros = eigenvalues(blk.A_tau - blk.B_tau @ np.linalg.solve(blk.D_tau, blk.C_tau))
        cands = finite_zero_candidates(system_pencil(blk), policy)
        for z in zeros:
            assert any(abs(z - c) < 1e-6 for c in cands), (z, cands)

    def test_deterministic(self, policy, example1_sys):
        pencil = system_pencil(block(example1_sys, 1))
        assert finite_zero_candidates(pencil, policy) == finite_zero_candidates(pencil, policy)

    def test_draws_no_random_numbers(self, monkeypatch, policy):
        def refuse(*args, **kwargs):
            raise AssertionError("a random stream was built")

        pencils = [system_pencil(block(random_generic(dims, 3), tau))
                   for dims, tau in [(LONG_HORIZON_DIMS, 3), (Dimensions(3, 2, 2, 1, 4), 2)]]
        pencils.append(system_pencil(block(planted_zero_system(6), 1)))
        for name in ("Generator", "Philox", "default_rng", "SeedSequence"):
            monkeypatch.setattr(np.random, name, refuse)
        monkeypatch.setattr(model, "_rng", refuse)
        for pencil in pencils:
            finite_zero_candidates(pencil, policy)

    @pytest.mark.parametrize("E,F", [
        (np.eye(2)[::-1], np.ones((2, 2))),                       # E not [[I, 0], [0, 0]]
        (np.diag([1.0, 0.0]) * 2, np.ones((2, 2))),               # a scaled identity block
        (np.diag([0.0, 1.0]), np.ones((2, 2))),                   # the identity block last
        (np.diag([1.0, 0.0]), np.ones((3, 2, 2))),                # a stack of pencils
    ])
    def test_a_pencil_that_is_not_one_system_pencil_is_refused(self, E, F, policy):
        with pytest.raises(ValueError, match="one system pencil"):
            finite_zero_candidates(MatrixPencil(E=E, F=F), policy)

    def test_svd_failure_is_a_convergence_failure(self, monkeypatch, policy):
        def fail(*args):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(zeros, "_reduce", fail)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            finite_zero_candidates(scalar_pencil(1, 2), policy)
        rec = harness.run_trial(Dimensions(2, 2, 1, 4, 3), 2, 1)
        assert rec.error.startswith("ConvergenceFailure") and not rec.agree_all


def orthogonal(rng, k: int) -> np.ndarray:
    # a random orthogonal k x k matrix: Q of a Gaussian matrix's QR, column signs fixed
    Q, R = np.linalg.qr(rng.standard_normal((k, k)))
    return Q * np.where(np.diag(R) < 0, -1.0, 1.0)


class TestStructuralReduction:
    """The reduction's zeros do not depend on the bases of state, input and output."""

    @given(Df=st.sampled_from([6, 4]), tau=st.sampled_from([1, 2]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_planted_zero_survives_orthogonal_changes_of_basis(self, Df, tau, seed):
        blk = block(planted_zero_system(Df), tau)
        rng = np.random.default_rng(seed)
        Qx, Qu, Qy = (orthogonal(rng, k) for k in (blk.A_tau.shape[0], *blk.D_tau.shape[::-1]))
        moved = replace(blk, A_tau=Qx.T @ blk.A_tau @ Qx, B_tau=Qx.T @ blk.B_tau @ Qu,
                        C_tau=Qy @ blk.C_tau @ Qx, D_tau=Qy @ blk.D_tau @ Qu)
        [z] = finite_zero_candidates(system_pencil(moved), TolerancePolicy())
        assert abs(z - (0.5 - 1 / Df) ** 2) < 1e-12

    @pytest.mark.parametrize("Df,tau", [(6, 1), (6, 2), (4, 1), (4, 2)])
    def test_planted_zero_is_reported(self, Df, tau, policy):
        rep = report(planted_zero_system(Df), tau, policy, 0)
        [(z, mult)] = rep.finite_nonzero_zeros
        assert (abs(z - (0.5 - 1 / Df) ** 2), mult, rep.candidates_examined) \
            == (pytest.approx(0, abs=1e-12), 1, 1)

    @given(n=st.integers(1, 3), m=st.integers(1, 2), N=st.integers(2, 3),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_square_fast_systems_give_powers_of_the_unblocked_zeros(self, n, m, N, seed):
        sys = random_generic(Dimensions(n=n, m=m, p1=m, p2=1, N=N), seed)
        assume(np.linalg.cond(sys.Df) < 1e3)
        want = powers_of_unblocked_zeros(sys)
        # a nearly singular Df puts a zero so far out that the rank
        # threshold reads it at infinity, and clustering merges zeros
        # closer than cluster_tol
        assume(np.abs(want).max() < 1e3)
        assume(min((abs(a - b) for i, a in enumerate(want) for b in want[i + 1:]),
                   default=1.0) > 1e-4)
        assert matched_rel_err(fast_block_zeros(sys, TolerancePolicy()), want) <= 1e-8


def reduce_factoring_every_D(A, B, C, D, thr):
    """`zeros._reduce` with an SVD of every D, one with no columns included."""
    while len(A):
        U, s, Vt = np.linalg.svd(D)
        sigma = np.count_nonzero(s > thr)
        C1, C2 = np.split(U.T @ C, [sigma])
        _, s_C2, W = np.linalg.svd(C2)
        rho = np.count_nonzero(s_C2 > thr)
        if rho == 0:
            K = Vt[:sigma].T @ (C1 / s[:sigma, None])
            return A - B @ K, B @ Vt[sigma:].T
        A, B = W @ A @ W.T, W @ B
        A, B, C, D = (A[rho:, rho:], B[rho:],
                      np.concatenate([A[:rho, rho:], C1 @ W[rho:].T]),
                      np.concatenate([B[:rho], s[:sigma, None] * Vt[:sigma]]))
    return A, B


class TestReduceWithoutInputs:
    """A system with no inputs skips the SVD of its empty D and reduces bit for bit the same."""

    @given(seen=st.integers(0, 4), unseen=st.integers(0, 3), q=st.integers(0, 4),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_equals_the_loop_that_factors_every_D(self, seen, unseen, q, seed):
        # (A, C) with `unseen` modes C cannot see, in a random orthogonal
        # basis, as the dual run of finite_zero_candidates takes them
        assume(seen + unseen > 0)
        rng = np.random.default_rng(seed)
        n = seen + unseen
        A = rng.standard_normal((n, n))
        A[:seen, seen:] = 0.0
        C = np.zeros((q, n))
        C[:, :seen] = rng.standard_normal((q, seen))
        Q = orthogonal(rng, n)
        A, C = Q @ A @ Q.T, C @ Q.T
        thr = 1e-9 * (n + q) * np.linalg.norm(np.vstack([A, C]), 2)
        got = zeros._reduce(A, np.zeros((n, 0)), C, np.zeros((q, 0)), thr)
        want = reduce_factoring_every_D(A, np.zeros((n, 0)), C, np.zeros((q, 0)), thr)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        # the modes C sees are deflated and those it cannot see are left
        assert len(got[0]) == (unseen if q else n)

    def test_no_svd_of_an_empty_D(self, monkeypatch):
        shapes = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda M, *a, **k: shapes.append(M.shape)
                            or svd(M, *a, **k))
        rng = np.random.default_rng(5)
        zeros._reduce(rng.standard_normal((3, 3)), np.zeros((3, 0)),
                      rng.standard_normal((1, 3)), np.zeros((1, 0)), 1e-9)
        assert shapes and all(0 not in shape for shape in shapes)


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
            # the reduction's points are few, so fixed points off them are read too
            cands = finite_zero_candidates(pencil, policy)
            for z in cands + [0j, 1e-3, 0.6 - 0.8j, -2.5]:
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
        blocks, rank, _ = harness._read(sys, taus, (), policy, seed, {})
        for tau in taus:
            blk = at_delay(blocks, tau - 1)
            fields = harness._delay_fields(rank, dims.n, tau)
            got = multiplicities(rank["normal_rank", tau], rank["rank_at_zero", tau],
                                 rank["rank_D", tau], dims.n)
            assert got == (fields["mult_at_zero"], fields["mult_at_infinity"])
            assert rank["normal_rank", tau] == normal_rank(system_pencil(blk), policy, seed)
            assert rank["rank_D", tau] == numerical_rank(blk.D_tau, policy)
            assert rank["rank_at_zero", tau] == rank_at(system_pencil(blk), 0.0, policy)


class TestSquareBlockedZeros:
    """The reduction on square fast-only blocked systems, as AC9 reads it."""

    def test_scalar_square_of_unblocked_zero(self, policy):
        a, b, c, d = 0.7, 1.3, -0.4, 2.0
        sys = MultirateSystem(dims=Dimensions(1, 1, 1, 1, 2), A=[[a]], B=[[b]],
                              Cf=[[c]], Cs=[[0.0]], Df=[[d]], Ds=[[0.0]])
        got = fast_block_zeros(sys, policy)
        unblocked = a - b * c / d
        assert np.allclose(sorted(np.real(got)), [unblocked ** 2])

    def test_singular_feedthrough_has_no_finite_zero(self, policy):
        # 1/(z - 1) has no finite zero; blocked at N = 2 its D_tau is
        # [[0, 0], [1, 0]], singular, and det P(Z) is the constant -1
        sys = MultirateSystem(dims=Dimensions(1, 1, 1, 1, 2), A=[[1.0]], B=[[1.0]],
                              Cf=[[1.0]], Cs=[[0.0]], Df=[[0.0]], Ds=[[0.0]])
        assert fast_block_zeros(sys, policy) == []

    def test_stack_refused(self, policy):
        # a stack of pencils is no one system pencil: here 2 delays of
        # 2 x 2 square feedthroughs
        sys = random_generic(Dimensions(2, 1, 1, 1, 2), seed=0)
        with pytest.raises(ValueError, match="one system pencil"):
            finite_zero_candidates(system_pencil(fast_subsystem(block_all(sys))), policy)

    @pytest.mark.parametrize("seed", range(5))
    def test_blocked_zeros_are_powers(self, seed, policy):
        sys = random_generic(Dimensions(2, 1, 1, 1, 2), seed=seed)
        got = fast_block_zeros(sys, policy)
        assert matched_rel_err(got, powers_of_unblocked_zeros(sys)) <= 1e-8


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
