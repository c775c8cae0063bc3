"""Closed-form predictions for tall blocked systems with generic parameters.

Every quantity the numerical pipeline measures has an exact generic value
determined by the dimensions (n, m, p1, p2, N) and the blocking delay tau
alone. Each prediction carries a case label naming which regime of its
formula fired, so disagreements can be traced back to a branch.

The quantities and their case structure, writing w = m - p1:

rank of D_tau (tall systems):
    p1 > m: full column rank N*m.
    p1 <= m: (N-1)p1 + m + n while n <= (N-tau)w, saturating afterwards
    at (tau-1)p1 + (N-tau+1)m. The two expressions agree at the boundary.

normal rank of the pencil (independent of tau):
    p1 >= m: full column rank n + N*m.
    p1 < m: (N-1)p1 + m + 2n while n < (N-1)w, else n + N*m.

zero multiplicity at infinity:
    0 while n <= (N-tau)w, then n - (N-tau)w, saturating at (tau-1)w
    once n > (N-1)w. Always 0 when p1 >= m.

zero multiplicity at the origin: the multiplicity at infinity at the dual
    delay N - tau + 1 (see dual_index), i.e. 0 while n <= (tau-1)w, then
    n - (tau-1)w, saturating at (N-tau)w.

Finite nonzero zeros never occur generically, in any tall regime.
"""
from __future__ import annotations

from dataclasses import dataclass

from .blocking import _check_tau
from .model import Dimensions, SystemClass, _is_int, classify


@dataclass(frozen=True)
class TheoryPrediction:
    """Predicted generic values for one (dims, tau) pair, with case labels."""

    dims: Dimensions
    tau: int
    system_class: SystemClass
    rank_D: int
    normal_rank: int
    mult_at_zero: int
    mult_at_infinity: int
    case_labels: dict[str, str]


def _mult_infinity(n: int, w: int, N: int, tau: int) -> tuple[int, str]:
    # zero multiplicity at infinity at delay tau, with w = m - p1
    if w <= 0 or n <= (N - tau) * w:
        return 0, "none"
    if n <= (N - 1) * w:
        return n - (N - tau) * w, "partial"
    return (tau - 1) * w, "saturated"


def predict(dims: Dimensions, tau: int) -> TheoryPrediction:
    """All predictions for one (dims, tau) pair, each with the label of its case."""
    cls = classify(dims)
    if cls is SystemClass.NOT_TALL:
        raise ValueError(
            f"predictions require a tall system (N*p1 + p2 > N*m): dims {dims} give "
            f"N*p1+p2 = {dims.N * dims.p1 + dims.p2} <= N*m = {dims.N * dims.m}")
    tau = _check_tau(tau, dims.N)
    n, m, p1, N = dims.n, dims.m, dims.p1, dims.N
    w = m - p1
    if cls is SystemClass.FAST_TALL:
        rank_D = N * m, "full-column"
    elif n <= (N - tau) * w:
        rank_D = (N - 1) * p1 + m + n, "small-state"
    else:
        rank_D = (tau - 1) * p1 + (N - tau + 1) * m, "large-state"
    if w > 0 and n < (N - 1) * w:
        nrank = (N - 1) * p1 + m + 2 * n, "deficient"
    else:
        nrank = n + N * m, "full-column"
    minf = _mult_infinity(n, w, N, tau)
    mz = _mult_infinity(n, w, N, N - tau + 1)
    return TheoryPrediction(
        dims=dims, tau=tau, system_class=cls,
        rank_D=rank_D[0], normal_rank=nrank[0],
        mult_at_zero=mz[0], mult_at_infinity=minf[0],
        case_labels={"rank_D": rank_D[1], "normal_rank": nrank[1],
                     "mult_at_zero": mz[1], "mult_at_infinity": minf[1]},
    )


def predict_controllability_rank(n: int, m: int, nu: int) -> int:
    """Generic rank of [B AB ... A^(nu-1)B]: full, i.e. min(n, nu*m)."""
    if not all(_is_int(v) and v >= 1 for v in (n, m, nu)):
        raise ValueError(f"n, m, nu must all be integers >= 1, got {(n, m, nu)}")
    return min(int(n), int(nu) * int(m))


def dual_index(tau: int, N: int) -> int:
    """Delay pairing under which origin and infinity multiplicities swap."""
    return N - _check_tau(tau, N) + 1
