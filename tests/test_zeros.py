"""Finite-zero search, candidate verification, full zero reports."""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multirate_zeros.blocking import (MatrixPencil, block, fast_subsystem,
                                      system_pencil)
from multirate_zeros.errors import SingularD
from multirate_zeros.model import (Dimensions, MultirateSystem,
                                   TolerancePolicy, random_generic)
from multirate_zeros.numerics import eigenvalues, normal_rank, numerical_rank, rank_at
from multirate_zeros.zeros import (ZeroReport, finite_zero_candidates,
                                   multiplicities, square_blocked_zeros,
                                   verify_zero, zero_report,
                                   zero_report_to_dict)

from conftest import LONG_HORIZON_DIMS


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


class TestVerifyZero:
    def test_scalar_zero_confirmed(self, policy):
        assert verify_zero(scalar_pencil(1, 2), 2.0, policy, normal_rank=1) == 1

    def test_scalar_nonzero_rejected(self, policy):
        assert verify_zero(scalar_pencil(1, 2), 3.0, policy, normal_rank=1) == 0

    def test_worked_instance_origin(self, example1_sys, policy):
        pencil = system_pencil(block(example1_sys, 1))
        assert verify_zero(pencil, 0.0, policy, normal_rank=6) == 1


class TestZeroReport:
    def test_wide_rate_instance_zero_free_delay(self, policy):
        sys = random_generic(LONG_HORIZON_DIMS, seed=0)
        rep = zero_report(block(sys, 4), policy, seed=0)
        assert rep.mult_at_zero == 0
        assert rep.mult_at_infinity == 0
        assert rep.finite_nonzero_zeros == ()

    def test_wide_rate_instance_origin_heavy_delay(self, policy):
        sys = random_generic(LONG_HORIZON_DIMS, seed=0)
        rep = zero_report(block(sys, 1), policy, seed=0)
        assert rep.mult_at_zero == 5
        assert rep.mult_at_infinity == 0
        assert rep.finite_nonzero_zeros == ()

    @pytest.mark.parametrize("tau", [1, 2, 3])
    def test_fast_tall_all_clear(self, tau, policy):
        sys = random_generic(Dimensions(2, 1, 2, 1, 3), seed=2)
        rep = zero_report(block(sys, tau), policy, seed=0)
        assert rep.mult_at_zero == 0
        assert rep.mult_at_infinity == 0
        assert rep.finite_nonzero_zeros == ()

    @pytest.mark.parametrize("tau", [1, 2])
    def test_square_fast_rate_all_clear(self, tau, policy):
        # p1 = m keeps the blocked system zero-free at both special points
        sys = random_generic(Dimensions(3, 2, 2, 1, 2), seed=6)
        rep = zero_report(block(sys, tau), policy, seed=0)
        assert rep.mult_at_zero == 0
        assert rep.mult_at_infinity == 0
        assert rep.finite_nonzero_zeros == ()

    def test_multiplicity_identities(self, example1_sys, policy):
        from multirate_zeros.numerics import rank_at
        blk = block(example1_sys, 1)
        rep = zero_report(blk, policy, seed=0)
        pencil = system_pencil(blk)
        assert rep.mult_at_zero == rep.normal_rank - rank_at(pencil, 0.0, policy)
        rank_at_infinity = blk.A_tau.shape[0] + numerical_rank(blk.D_tau, policy)
        assert rep.mult_at_infinity == max(0, rep.normal_rank - rank_at_infinity)

    def test_deterministic(self, example1_sys, policy):
        blk = block(example1_sys, 1)
        assert zero_report(blk, policy, seed=3) == zero_report(blk, policy, seed=3)

    def test_report_carries_inputs(self, example1_sys, policy):
        rep = zero_report(block(example1_sys, 2), policy, seed=9)
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
        policy = TolerancePolicy()
        sys = random_generic(dims, seed)
        for tau in range(1, dims.N + 1):
            blk = block(sys, tau)
            rep = zero_report(blk, policy, seed)
            got = multiplicities(rep.normal_rank, rep.rank_at_zero, rep.rank_D, dims.n)
            assert got == (rep.mult_at_zero, rep.mult_at_infinity)
            assert rep.rank_D == numerical_rank(blk.D_tau, policy)
            assert rep.rank_at_zero == rank_at(system_pencil(blk), 0.0, policy)


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
        rep = zero_report(block(example1_sys, 1), policy, seed=0)
        data = zero_report_to_dict(rep)
        text = json.dumps(data)  # must be JSON-serializable as-is
        back = json.loads(text)
        assert back["tau"] == 1
        assert back["normal_rank"] == 6
        assert back["mult_at_zero"] == 1
        assert back["mult_at_infinity"] == 0
        for entry in back["finite_nonzero_zeros"] + back["boundary_candidates"]:
            assert set(entry["location"]) == {"re", "im"}

    def test_populated_zero_list_round_trips(self, policy):
        rep = ZeroReport(tau=1, normal_rank=3, rank_D=2, rank_at_zero=3, mult_at_zero=0,
                         mult_at_infinity=0,
                         finite_nonzero_zeros=((1.5 + 0.5j, 2),),
                         boundary_candidates=((1e-7 + 0j, 1),),
                         candidates_examined=4, seed=0)
        data = zero_report_to_dict(rep)
        assert data["finite_nonzero_zeros"] == [
            {"location": {"re": 1.5, "im": 0.5}, "multiplicity": 2}]
        assert data["boundary_candidates"][0]["location"]["re"] == 1e-7
