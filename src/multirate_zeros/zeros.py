"""Finite zeros of a blocked system, and the multiplicity rule.

Zeros are the points where the system pencil loses rank relative to its
normal rank. The finite zeros come from the structural reduction of
Emami-Naeini and Van Dooren ("Computation of zeros of linear multivariable
systems", Automatica 18, 1982): rank decisions on constant matrices deflate
the structure at infinity, and the finite zeros are the eigenvalues of the
square matrix that is left. It draws no random numbers. Every point away
from the origin and infinity is then re-verified by rank tests on the full
pencil at and around it, so reported zeros are sound up to the rank
tolerance; those tests read float ranks, so a badly scaled system can
still yield a confirmed spurious zero, one at which its exact rank is
full. Multiplicities are geometric: the rank deficiency at the point,
with the point at infinity measured through n + rank(D_tau). The
multiplicities at 0 and infinity need no reduction: `multiplicities`
derives them from rank readings, which the harness takes once per system
(`harness._read`) for trials and `analyze`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocking import MatrixPencil
from .errors import ConvergenceFailure
from .model import TolerancePolicy
from .numerics import normal_rank, rank_at

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


def _reduce(A, B, C, D, thr: float):
    """(A - B K, B N) for the system (A, B, C, D) once its structure at infinity is deflated.

    Each step row-compresses D by its SVD, splitting the outputs into
    [C1 D1], D1 of full row rank, and [C2 0]. At a zero those rows force
    C2 x = 0, so the rho = rank(C2) state directions C2 reads are
    deflated: in the basis [row space(C2) | null(C2)], A <- A22 and
    B <- B2, and the deflated states' equations become outputs,
    C <- [A12; C1 T2] and D <- [B1; D1]. Every step removes rho states and
    rho from the normal rank, and keeps the finite zeros. It stops when no
    state is left, or when C2 has no rows or reads rank 0 and its rows are
    dropped. Then D1 has full row rank, K solves D1 K = C1, and the
    columns of N span the null space of D1: the finite zeros are the
    uncontrollable modes of (A - B K, B N). With no state left there is
    no finite zero, and A comes back empty. Every rank is the count of
    singular values above thr. A system with no inputs (the dual run of
    `finite_zero_candidates`) keeps a D with no columns at every step: it
    has no singular value and its SVD's U is the identity, so no SVD is
    taken and C2 is all of C.
    """
    while len(A):
        if D.shape[1]:
            U, s, Vt = np.linalg.svd(D)
            C = U.T @ C
        else:
            s, Vt = np.zeros(0), np.zeros((0, 0))
        sigma = np.count_nonzero(s > thr)
        C1, C2 = C[:sigma], C[sigma:]
        _, s_C2, W = np.linalg.svd(C2)      # C2 may have no rows
        rho = np.count_nonzero(s_C2 > thr)
        if rho == 0:
            # D1 = diag(s1) V1^T, so K = V1 diag(s1)^-1 C1
            K = Vt[:sigma].T @ (C1 / s[:sigma, None])
            return A - B @ K, B @ Vt[sigma:].T
        A, B = W @ A @ W.T, W @ B
        A, B, C, D = (A[rho:, rho:], B[rho:],
                      np.concatenate([A[:rho, rho:], C1 @ W[rho:].T]),
                      np.concatenate([B[:rho], s[:sigma, None] * Vt[:sigma]]))
    return A, B


def finite_zero_candidates(pencil: MatrixPencil, policy: TolerancePolicy,
                           norm: float | None = None) -> list[complex]:
    """The finite zeros of a system pencil, by structural reduction, clustered at cluster_tol.

    pencil is one system pencil, as `system_pencil` builds it: E is
    [[I, 0], [0, 0]] with n the nonzero rows of E, and F is [[A, B],
    [-C, -D]]. Any other pencil is refused with a ValueError. Every rank
    decision counts singular values above one threshold,
    rel_rank_tol * max(rows, cols) * norm, where norm is norm(F, 2),
    computed here when it is None (`harness._read` passes the largest
    singular value of its rank-at-zero reading of F). `_reduce` deflates
    the structure at infinity, leaving (A_K, B_N) whose uncontrollable
    modes are the finite zeros. `_reduce` on the dual system (A_K^T, no
    inputs, B_N^T) deflates the controllable part, and the eigenvalues of
    the A that is left are the finite zeros, with algebraic multiplicity
    before clustering. No random number is drawn.
    A failed SVD or eigensolver raises ConvergenceFailure.
    """
    E, F = pencil.E, pencil.F
    n = int(E.any(axis=1).sum())
    system_E = np.zeros_like(E)
    system_E[:n, :n] = np.eye(n)
    if F.ndim != 2 or not np.array_equal(E, system_E):
        raise ValueError("finite_zero_candidates takes one system pencil, "
                         "E = [[I, 0], [0, 0]] and a 2-D F")
    try:
        if norm is None:
            norm = np.linalg.norm(F, 2)
        thr = policy.rel_rank_tol * max(E.shape) * norm
        A_K, B_N = _reduce(F[:n, :n], F[:n, n:], -F[n:, :n], -F[n:, n:], thr)
        A = _reduce(A_K.T, np.zeros((len(A_K), 0)), B_N.T, np.zeros((B_N.shape[1], 0)), thr)[0]
        zeros = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD or eigensolver did not converge: {exc}") from None
    return _cluster(zeros, policy.cluster_tol)


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
    for a state of size n; neither needs the finite-zero reduction.
    """
    return max(0, rho - rank_at_zero), max(0, rho - n - rank_D)


def zero_report(pencil: MatrixPencil, tau: int, policy: TolerancePolicy = TolerancePolicy(),
                seed: int = 0, rho: int | None = None, norm: float | None = None) -> ZeroReport:
    """Verified finite nonzero zeros of a blocked system.

    pencil is the system pencil of the system blocked at delay tau, as
    `system_pencil` builds it. This is the only caller of
    `finite_zero_candidates`; `harness._read` calls it on its entries of
    the stack it reads, at tau alone in a verification trial. The points
    the reduction returns are sorted into bands: those within zero_radius of
    the origin are the origin's, and those beyond 1/zero_radius are not
    separable from infinity at the working tolerance, so both are skipped;
    `verify_zero` reads the geometric multiplicity of every other point.
    Points farther from the origin than cluster_tol are listed as finite
    nonzero zeros when the rank test confirms them; those in the band
    between zero_radius and cluster_tol are reported separately instead of
    being silently attributed to the origin. candidates_examined counts the
    points the reduction returns. rho is the pencil's normal rank, read by
    `normal_rank` when it is None, and norm is norm(F, 2), computed by
    `finite_zero_candidates` when it is None; `harness._read` passes the
    readings it holds for both.
    """
    if rho is None:
        rho = normal_rank(pencil, policy, seed)
    candidates = finite_zero_candidates(pencil, policy, norm)
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
