"""Finite-zero search for a blocked system, and the multiplicity rule.

Zeros are the points where the system pencil loses rank relative to its
normal rank. Candidates come from a randomized square compression of the
pencil solved as a standard eigenproblem; every candidate is then
re-verified by rank tests on the full pencil at and around the point, so
reported zeros are sound up to the rank tolerance. Multiplicities are
geometric: the rank deficiency at the point, with the point at infinity
measured through n + rank(D_tau). The multiplicities at 0 and infinity need
no search: `multiplicities` derives them from rank readings, which the
harness takes once per system (`harness._read`) for trials and `analyze`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocking import BlockedSystem, MatrixPencil
from .errors import CompressionFailure, SingularD
from .model import TolerancePolicy, _rng
from .numerics import eigenvalues, normal_rank, rank_at

# gate for accepting a compressed eigenproblem, and the safety factor on the
# noise floor below which an eigenvalue of it is treated as infinite
_COMPRESSION_COND_CAP = 1e12
_EIG_NOISE_SAFETY = 10.0

# reference points for the local rank comparison in verify_zero, one just
# outside and one just inside the candidate modulus, phase-rotated so that
# conjugate or scaled copies of the candidate are not hit by accident
_REFERENCE_MULTIPLIERS = (2.0 * np.exp(0.7j), 0.5 * np.exp(-0.9j))


@dataclass(frozen=True)
class ZeroReport:
    """Verified finite nonzero zeros of one blocked system."""

    tau: int
    finite_nonzero_zeros: tuple[tuple[complex, int], ...]
    boundary_candidates: tuple[tuple[complex, int], ...]  # between zero_radius and cluster_tol
    candidates_examined: int
    seed: int


def _cluster(points: np.ndarray, tol: float) -> list[complex]:
    """Greedily merge points closer than tol, keeping one representative each."""
    reps: list[complex] = []
    # deterministic sweep order
    for z in sorted(points, key=lambda c: (c.real, c.imag)):
        if all(abs(z - r) > tol for r in reps):
            reps.append(complex(z))
    return reps


def finite_zero_candidates(pencil: MatrixPencil, policy: TolerancePolicy,
                           seed: int, normal_rank: int) -> list[complex]:
    """Candidate finite zeros of the pencil via randomized compression.

    The pencil is compressed to rho x rho (rho = normal rank) with Gaussian
    U and V, and expanded about a random complex shift point s drawn from
    the same stream: G = U (F - s E) V, H = U E V. Eigenvalues lambda of
    G^-1 H then give candidates Z = s + 1/lambda. The shift keeps G
    invertible even when the pencil loses rank at Z = 0 (at s = 0 the
    construction reduces to compressing F itself, which is singular exactly
    in that common case); G is ill-conditioned only if s lands near a zero,
    and a fresh draw fixes that.

    Only the nonzero eigenvalues of G^-1 H give candidates. With J the
    nonzero columns of E, H = (U E[:, J]) V[J, :], and since
    det(I - XY) = det(I - YX) the nonzero eigenvalues of G^-1 H are those
    of the |J| x |J| matrix V[J, :] G^-1 U E[:, J]; for a system pencil
    |J| = n, so the eigenproblem is n x n rather than rho x rho, and it
    sheds the rho - |J| structural zero eigenvalues of G^-1 H. Each zero at
    infinity of the pencil still adds a zero eigenvalue. Rounding lifts
    such a cluster to about sqrt(eps * norm(G^-1 H)) because of its Jordan
    structure, so eigenvalues are discarded as infinite below a floor at
    the larger of that noise scale and cluster_tol (a point beyond
    1/cluster_tol is not separable from infinity at the working tolerance
    anyway). norm(G^-1 H) is the norm of G^-1 U E[:, J] R^T, where
    V[J, :]^T = Q R is a thin QR factorization, Q having orthonormal
    columns. The survivors, clustered at cluster_tol, contain every finite
    rank-drop point with probability 1. Spurious candidates are expected
    and removed by verify_zero.
    """
    if normal_rank == 0:
        return []
    rows, cols = pencil.shape
    J = np.flatnonzero(pencil.E.any(axis=0))
    rng = _rng(seed)
    last_cond = None
    for _ in range(policy.resample_limit):
        U = rng.standard_normal((normal_rank, rows))
        V = rng.standard_normal((cols, normal_rank))
        s = complex(*rng.standard_normal(2))
        UE, VJ = U @ pencil.E[:, J], V[J]
        G = U @ pencil.F @ V - s * (UE @ VJ)
        last_cond = np.linalg.cond(G)
        if not np.isfinite(last_cond) or last_cond > _COMPRESSION_COND_CAP:
            continue
        X = np.linalg.solve(G, UE)
        lam = eigenvalues(VJ @ X)
        R = np.linalg.qr(VJ.T, mode="r")
        floor = max(policy.cluster_tol,
                    _EIG_NOISE_SAFETY * np.sqrt(np.finfo(float).eps * np.linalg.norm(X @ R.T, 2)))
        finite = lam[np.abs(lam) > floor]
        return _cluster(s + 1.0 / finite, policy.cluster_tol)
    raise CompressionFailure(
        f"{policy.resample_limit} compressions were ill-conditioned "
        f"(last cond {last_cond:.3e})")


def verify_zero(pencil: MatrixPencil, Z0: complex, policy: TolerancePolicy,
                normal_rank: int) -> int:
    """Geometric multiplicity of Z0 as a zero (0 when the rank does not drop there).

    At Z0 = 0 the drop is measured against the normal rank. Elsewhere it
    is measured against the rank at two reference points, one just inside
    and one just outside |Z0|, and the smaller of the two drops is taken.
    The reason is that a zero at infinity of order k drags the measurable
    rank down over the entire region |Z| beyond roughly tol^(-1/k): seen
    against the fixed normal rank, every point out there reads as a finite
    zero. Against an outward reference that shared shadow cancels, while
    an isolated zero keeps its full drop relative to both sides. A
    high-order zero at the origin shadows inward the same way, which the
    inward reference cancels. A reference can only lower the drop, so when
    the rank at Z0 does not drop below normal_rank, the result is 0 and
    neither reference is read.
    """
    Z0 = complex(Z0)
    r0 = rank_at(pencil, Z0, policy)
    drop = normal_rank - r0
    if Z0 == 0 or drop <= 0:
        return max(0, drop)
    for c in _REFERENCE_MULTIPLIERS:
        ref = min(normal_rank, rank_at(pencil, c * Z0, policy))
        drop = min(drop, ref - r0)
    return max(0, drop)


def multiplicities(rho: int, rank_at_zero: int, rank_D: int, n: int) -> tuple[int, int]:
    """(multiplicity at 0, multiplicity at infinity) of a pencil of normal rank rho.

    They are the drops below rho of the rank at Z = 0 and of n + rank(D_tau),
    for a state of size n; neither needs the finite-zero search.
    """
    return max(0, rho - rank_at_zero), max(0, rho - n - rank_D)


def zero_report(pencil: MatrixPencil, tau: int, policy: TolerancePolicy | None = None,
                seed: int = 0, rho: int | None = None) -> ZeroReport:
    """The finite-zero search: verified finite nonzero zeros of a blocked system.

    pencil is the system pencil of the system blocked at delay tau, as
    `system_pencil` builds it. This is the only caller of the finite-zero
    search, and a verification trial calls it at tau alone, on its entry of
    the stack the harness reads. Candidates farther from the origin than
    cluster_tol are listed as finite nonzero zeros when the rank test
    confirms them; those in the band between zero_radius and cluster_tol
    are reported separately instead of being silently attributed to the
    origin. Candidates beyond 1/zero_radius are copies of the point at
    infinity (they come from compressed eigenvalues at the noise floor of
    the infinite-eigenvalue filter) and are skipped the same way. rho is
    the pencil's normal rank; when it is None, `normal_rank` reads it (the
    harness passes the reading of its stacked sweep instead).
    """
    policy = policy or TolerancePolicy()
    if rho is None:
        rho = normal_rank(pencil, policy, seed)
    candidates = finite_zero_candidates(pencil, policy, seed, rho)
    finite: list[tuple[complex, int]] = []
    boundary: list[tuple[complex, int]] = []
    for z in candidates:
        if abs(z) <= policy.zero_radius or abs(z) >= 1.0 / policy.zero_radius:
            continue  # copy of the origin or of the point at infinity
        mult = verify_zero(pencil, z, policy, rho)
        if mult < 1:
            continue
        if abs(z) <= policy.cluster_tol:
            boundary.append((z, mult))
        else:
            finite.append((z, mult))
    return ZeroReport(
        tau=tau,
        finite_nonzero_zeros=tuple(finite),
        boundary_candidates=tuple(boundary),
        candidates_examined=len(candidates),
        seed=seed,
    )


def square_blocked_zeros(blk: BlockedSystem, policy: TolerancePolicy | None = None) -> np.ndarray:
    """Zeros of a square blocked system with invertible D_tau, at one delay.

    For such systems the zeros are exactly the eigenvalues of
    A_tau - B_tau D_tau^-1 C_tau.
    """
    policy = policy or TolerancePolicy()
    D = blk.D_tau
    if D.ndim != 2:
        raise ValueError(f"square_blocked_zeros takes one delay, got a stack at delays {blk.tau}")
    if D.shape[0] != D.shape[1]:
        raise SingularD(f"D_tau must be square, got {D.shape}")
    cond = np.linalg.cond(D)
    if not np.isfinite(cond) or cond > policy.condition_cap:
        raise SingularD(f"cond(D_tau)={cond:.3e} exceeds cap {policy.condition_cap:.1e}")
    return eigenvalues(blk.A_tau - blk.B_tau @ np.linalg.solve(D, blk.C_tau))


def _complex_to_dict(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def zero_report_to_dict(rep: ZeroReport) -> dict:
    return {
        "tau": rep.tau,
        "finite_nonzero_zeros": [
            {"location": _complex_to_dict(z), "multiplicity": k}
            for z, k in rep.finite_nonzero_zeros],
        "boundary_candidates": [
            {"location": _complex_to_dict(z), "multiplicity": k}
            for z, k in rep.boundary_candidates],
        "candidates_examined": rep.candidates_examined,
        "seed": rep.seed,
    }
