"""Numerical rank machinery for pencils: SVD ranks, sampled normal rank.

The pencils are real, so their normal rank (the rank for all but finitely
many Z) is attained at all but finitely many real points too. It is
approximated by the maximum rank over a handful of random real sample
points of either sign, with modulus in a fixed band away from 0 and 1, and
every reading is taken in real arithmetic. Sampling can in principle
under-report; the verification harness cross-checks every value against
closed-form predictions.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .blocking import MatrixPencil
from .errors import ConvergenceFailure
from .model import TolerancePolicy, _rng

# inner edge of the sampling band NORMAL_RANK_RADIUS * [1, 2]: bounded away
# from 0, 1, and the eigenvalue magnitudes of typically scaled systems, so
# rank drops at sampled points are vanishingly unlikely
NORMAL_RANK_RADIUS = 1.372000091


def _ranks(M: np.ndarray, policy: TolerancePolicy) -> tuple[np.ndarray, np.ndarray]:
    # the rank and the singular values, largest first, of each matrix in a
    # stack (..., rows, cols), from one svd call
    try:
        s = np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from None
    return np.sum(s > policy.rel_rank_tol * s[..., :1] * max(M.shape[-2:]), axis=-1), s


def numerical_rank(M: np.ndarray, policy: TolerancePolicy = TolerancePolicy()) -> int | list[int]:
    """Count singular values above rel_rank_tol * sigma_1 * max(rows, cols).

    Given a stack (k, rows, cols), the list of the k ranks, from one svd call.
    """
    ranks = _ranks(np.atleast_2d(M), policy)[0]
    return ranks.tolist() if ranks.ndim else int(ranks)


def _evaluate(E: np.ndarray, F: np.ndarray, Z: complex) -> np.ndarray:
    # Z*E - F inside the unit circle and E - F/Z outside it (see rank_at);
    # a real Z keeps real data real
    return Z * E - F if abs(Z) <= 1.0 else E - F / Z


def rank_at(pencil: MatrixPencil, Z: complex, policy: TolerancePolicy = TolerancePolicy()) -> int:
    """Numerical rank of the pencil evaluated at the point Z.

    A real Z, including a complex one with zero imaginary part, is read in
    real arithmetic: the rank at 0 reads -F as a real matrix. Outside the
    unit circle the same rank is read off E - F/Z instead of Z*E - F. The
    two differ by a nonzero scalar factor, but the largest singular value
    of Z*E - F grows with |Z| and would drag the relative rank threshold
    past genuine small singular values, declaring spurious rank drops at
    distant points.
    """
    Z = complex(Z)
    return numerical_rank(_evaluate(pencil.E, pencil.F, Z.real if Z.imag == 0 else Z), policy)


def _rank_limit(shape: tuple[int, int], bound: int | None) -> int:
    # where a normal-rank sweep of a pencil of this shape stops (see _max_rank)
    return min(shape) if bound is None else min(bound, *shape)


def _max_rank(ranks, shape: tuple[int, int], bound: int | None = None) -> int:
    """Max of a lazy sequence of ranks of a pencil of this shape at sample points.

    Reading stops at the first rank that reaches `_rank_limit`: min(bound,
    rows, cols), or min(rows, cols) when bound is None. That gives the max
    of the whole sequence when no rank in it can exceed the limit: no rank
    exceeds min(rows, cols), and a rank at a point does not exceed the
    normal rank, which is at most bound when bound is the generic normal
    rank of the pencil's dimensions. Reading stops only on a rank equal to
    the limit, so once a rank exceeds a bound set too low, every rank is
    read and the excess shows.
    """
    limit = _rank_limit(shape, bound)
    best = 0
    for r in ranks:
        best = max(best, r)
        if best == limit:
            break
    return best


@lru_cache(maxsize=1)
def _sample_uniforms(seed: int, count: int) -> tuple[float, ...]:
    # uniforms on [-1, 1) behind the sample points and the lift check's
    # points, from the seed's stream of purpose 1 (see _rng). One entry
    # serves every pencil of a trial and its lift check; a tuple of Python
    # floats, so no caller can change it and the points are scalar
    # arithmetic (see run_trial)
    return tuple(_rng(seed, 1).uniform(-1.0, 1.0, count).tolist())


@lru_cache(maxsize=1)
def _sample_points(seed: int, count: int) -> tuple[float, ...]:
    # each uniform u gives a real point of u's sign with |Z| = NORMAL_RANK_RADIUS * (1 + |u|)
    return tuple(NORMAL_RANK_RADIUS * math.copysign(1.0 + abs(u), u)
                 for u in _sample_uniforms(seed, count))


def normal_ranks(pencils: MatrixPencil, policy: TolerancePolicy = TolerancePolicy(),
                 seed: int = 0, bound: int | None = None, first=None) -> list[int]:
    """`normal_rank` of each pencil of a stack sharing E, one svd call a point.

    pencils is a stack, as `system_pencil` builds it from a stack of blocked
    systems, or one pencil, a stack of one. At each sample point one
    stacked svd reads every pencil whose sweep is still open; a pencil's
    sweep closes as `_max_rank`'s does, on the first reading that brings
    its max to min(bound, rows, cols). So each value is the one
    `normal_rank` gives for that pencil alone. first, when given, holds the
    rank of each pencil at the first sample point, read by the caller
    (`harness._read` reads them in one svd call with its ranks at Z = 0),
    and the sweep carries on from the second point.
    """
    E, F = pencils.E, pencils.F.reshape(-1, *pencils.shape)
    limit = _rank_limit(E.shape, bound)
    points = _sample_points(seed, policy.normal_rank_samples)
    if first is None:
        best = np.full(len(F), -1)   # -1: no point read yet
    else:
        best, points = np.array(first), points[1:]
    for Z in points:
        open_ = np.flatnonzero(best != limit)
        if open_.size == 0:
            break
        M = _evaluate(E, F if open_.size == len(F) else F[open_], Z)
        best[open_] = np.maximum(best[open_], _ranks(M, policy)[0])
    return best.tolist()


def normal_rank(pencil: MatrixPencil, policy: TolerancePolicy = TolerancePolicy(),
                seed: int = 0, bound: int | None = None) -> int:
    """Maximum rank over sampled real points Z of either sign.

    The points come from the seed's Philox stream of purpose 1 (see
    `model._rng`), so the result is deterministic in (pencil, policy,
    seed); their modulus lies in NORMAL_RANK_RADIUS * [1, 2]. The rank at
    a random real point equals the normal rank with probability 1, since
    the real pencil loses rank at finitely many real points only; the max
    over several points guards against an unlucky draw near a zero.
    Sampling stops at the first point whose rank reaches min(bound, rows,
    cols), where bound, when given, is the generic normal rank, which no
    instance's normal rank exceeds. A float rank at a point does not exceed
    the exact normal rank at any rel_rank_tol the policy accepts, so the
    remaining points cannot raise the max and the result is the same as
    over all of them (see `_max_rank`). This is the one-pencil case of
    `normal_ranks`.
    """
    return normal_ranks(pencil, policy, seed, bound)[0]

