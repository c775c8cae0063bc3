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

zero multiplicity at the origin: the same with tau replaced by its dual
    N - tau + 1, i.e. 0 while n <= (tau-1)w, then n - (tau-1)w,
    saturating at (N-tau)w.

Finite nonzero zeros never occur generically, in any tall regime.
"""
from __future__ import annotations

from dataclasses import dataclass

from .blocking import _check_tau
from .errors import NotTallClass
from .model import Dimensions, SystemClass, classify


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


@dataclass(frozen=True)
class TableRow:
    """Qualitative summary of the zero structure for one (dims, tau) pair."""

    dims: Dimensions
    tau: int
    system_class: SystemClass
    finite_nonzero: str      # always "No"
    at_zero: str             # "No" or "Yes (k)"
    at_infinity: str
    mult_at_zero: int
    mult_at_infinity: int
    rank_D: int
    normal_rank: int


def _require_tall(dims: Dimensions) -> SystemClass:
    cls = classify(dims)
    if cls is SystemClass.NOT_TALL:
        raise NotTallClass(
            f"dims {dims} give N*p1+p2 = {dims.N * dims.p1 + dims.p2} "
            f"<= N*m = {dims.N * dims.m}")
    return cls


def predict_rank_D(dims: Dimensions, tau: int) -> tuple[int, str]:
    """Generic rank of D_tau."""
    cls = _require_tall(dims)
    tau = _check_tau(tau, dims.N)
    n, m, p1, N = dims.n, dims.m, dims.p1, dims.N
    if cls is SystemClass.FAST_TALL:
        return N * m, "full-column"
    if n <= (N - tau) * (m - p1):
        return (N - 1) * p1 + m + n, "small-state"
    return (tau - 1) * p1 + (N - tau + 1) * m, "large-state"


def predict_normal_rank(dims: Dimensions) -> tuple[int, str]:
    """Generic normal rank of the system pencil; the same for every tau."""
    _require_tall(dims)
    n, m, p1, N = dims.n, dims.m, dims.p1, dims.N
    if p1 >= m:
        return n + N * m, "full-column"
    if n < (N - 1) * (m - p1):
        return (N - 1) * p1 + m + 2 * n, "deficient"
    return n + N * m, "full-column"


def predict_mult_infinity(dims: Dimensions, tau: int) -> tuple[int, str]:
    """Generic zero multiplicity at infinity."""
    cls = _require_tall(dims)
    tau = _check_tau(tau, dims.N)
    n, m, p1, N = dims.n, dims.m, dims.p1, dims.N
    w = m - p1
    if cls is SystemClass.FAST_TALL or w == 0 or n <= (N - tau) * w:
        return 0, "none"
    if n <= (N - 1) * w:
        return n - (N - tau) * w, "partial"
    return (tau - 1) * w, "saturated"


def predict_mult_zero(dims: Dimensions, tau: int) -> tuple[int, str]:
    """Generic zero multiplicity at the origin."""
    cls = _require_tall(dims)
    tau = _check_tau(tau, dims.N)
    n, m, p1, N = dims.n, dims.m, dims.p1, dims.N
    w = m - p1
    if cls is SystemClass.FAST_TALL or w == 0 or n <= (tau - 1) * w:
        return 0, "none"
    if n <= (N - 1) * w:
        return n - (tau - 1) * w, "partial"
    return (N - tau) * w, "saturated"


def predict_controllability_rank(n: int, m: int, nu: int) -> int:
    """Generic rank of [B AB ... A^(nu-1)B]: full, i.e. min(n, nu*m)."""
    if n < 1 or m < 1 or nu < 1:
        raise ValueError(f"n, m, nu must all be >= 1, got {(n, m, nu)}")
    return min(n, nu * m)


def dual_index(tau: int, N: int) -> int:
    """Delay pairing under which origin and infinity multiplicities swap."""
    return N - _check_tau(tau, N) + 1


def predict(dims: Dimensions, tau: int) -> TheoryPrediction:
    """All predictions for one (dims, tau) pair."""
    cls = _require_tall(dims)
    tau = _check_tau(tau, dims.N)
    rank_D, l_rd = predict_rank_D(dims, tau)
    nrank, l_nr = predict_normal_rank(dims)
    mz, l_mz = predict_mult_zero(dims, tau)
    minf, l_mi = predict_mult_infinity(dims, tau)
    return TheoryPrediction(
        dims=dims, tau=tau, system_class=cls,
        rank_D=rank_D, normal_rank=nrank,
        mult_at_zero=mz, mult_at_infinity=minf,
        case_labels={"rank_D": l_rd, "normal_rank": l_nr,
                     "mult_at_zero": l_mz, "mult_at_infinity": l_mi},
    )


def summary_table(dims: Dimensions, tau: int) -> TableRow:
    """Qualitative row: finite nonzero zeros never occur; 0/infinity depend on tau."""
    pred = predict(dims, tau)

    def fmt(k: int) -> str:
        return "No" if k == 0 else f"Yes ({k})"

    return TableRow(
        dims=dims, tau=tau, system_class=pred.system_class,
        finite_nonzero="No",
        at_zero=fmt(pred.mult_at_zero),
        at_infinity=fmt(pred.mult_at_infinity),
        mult_at_zero=pred.mult_at_zero,
        mult_at_infinity=pred.mult_at_infinity,
        rank_D=pred.rank_D,
        normal_rank=pred.normal_rank,
    )
