"""Numerical rank machinery for pencils: SVD ranks, sampled normal rank.

The normal rank of a pencil (its rank for all but finitely many Z) is
approximated by the maximum rank over a handful of random sample points on
a fixed circle. Sampling can in principle under-report; the verification
harness cross-checks every value against closed-form predictions.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .blocking import MatrixPencil
from .errors import ConvergenceFailure
from .model import TolerancePolicy, _rng

# fixed sampling radius, bounded away from 0, 1, and the eigenvalue
# magnitudes of typically scaled systems, so rank drops at sampled points
# are vanishingly unlikely
NORMAL_RANK_RADIUS = 1.372000091


def numerical_rank(M: np.ndarray, policy: TolerancePolicy | None = None) -> int:
    """Count singular values above rel_rank_tol * sigma_1 * max(rows, cols)."""
    policy = policy or TolerancePolicy()
    M = np.atleast_2d(M)
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > policy.rel_rank_tol * s[0] * max(M.shape)))


def rank_at(pencil: MatrixPencil, Z: complex, policy: TolerancePolicy | None = None) -> int:
    """Numerical rank of the pencil evaluated at the point Z.

    Outside the unit circle the same rank is read off E - F/Z instead of
    Z*E - F. The two differ by a nonzero scalar factor, but the largest
    singular value of Z*E - F grows with |Z| and would drag the relative
    rank threshold past genuine small singular values, declaring spurious
    rank drops at distant points.
    """
    Z = complex(Z)
    if abs(Z) <= 1.0:
        M = pencil.at(Z)
    else:
        M = pencil.E - pencil.F.astype(complex) / Z
    return numerical_rank(M, policy)


def _max_rank(ranks, shape: tuple[int, int], bound: int | None = None) -> int:
    """Max of a lazy sequence of ranks of a pencil of this shape at sample points.

    Reading stops at the first rank that reaches min(bound, rows, cols), or
    min(rows, cols) when bound is None. That gives the max of the whole
    sequence when no rank in it can exceed the limit: no rank exceeds
    min(rows, cols), and a rank at a point does not exceed the normal rank,
    which is at most bound when bound is the generic normal rank of the
    pencil's dimensions. Reading stops only on a rank equal to the limit,
    so once a rank exceeds a bound set too low, every rank is read and the
    excess shows.
    """
    limit = min(shape) if bound is None else min(bound, *shape)
    best = 0
    for r in ranks:
        best = max(best, r)
        if best == limit:
            break
    return best


@lru_cache(maxsize=1)
def _sample_angles(seed: int, count: int) -> tuple[float, ...]:
    # one entry serves every pencil of a trial and its lift check; a tuple,
    # so no caller can change it
    return tuple(_rng(seed).uniform(0.0, 2.0 * np.pi, count))


@lru_cache(maxsize=1)
def _sample_points(seed: int, count: int) -> tuple[complex, ...]:
    return tuple(NORMAL_RANK_RADIUS * np.exp(1j * t) for t in _sample_angles(seed, count))


def normal_rank(pencil: MatrixPencil, policy: TolerancePolicy | None = None,
                seed: int = 0, bound: int | None = None) -> int:
    """Maximum rank over sampled points Z = radius * exp(i*theta).

    The angles come from a Philox stream keyed by seed, so the result is
    deterministic in (pencil, policy, seed). The rank at a random point
    equals the normal rank with probability 1; the max over several points
    guards against an unlucky draw near a zero. Sampling stops at the first
    point whose rank reaches min(bound, rows, cols), where bound, when
    given, is the generic normal rank, which no instance's normal rank
    exceeds. A float rank at a point does not exceed the exact normal rank
    at any rel_rank_tol the policy accepts, so the remaining points cannot
    raise the max and the result is the same as over all of them (see
    `_max_rank`).
    """
    policy = policy or TolerancePolicy()
    points = _sample_points(seed, policy.normal_rank_samples)
    return _max_rank((rank_at(pencil, Z, policy) for Z in points), pencil.shape, bound)


def eigenvalues(M: np.ndarray) -> np.ndarray:
    """All eigenvalues of a square matrix, with algebraic multiplicity, unordered."""
    M = np.atleast_2d(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"eigenvalues needs a square matrix, got {M.shape}")
    try:
        return np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from None

