"""Blocking: packaging N consecutive steps of a multirate system into one.

Blocking turns the periodic two-rate system into a time-invariant one whose
input and output vectors stack N consecutive samples. The blocking delay
tau in 1..N fixes how the slow samples align with the fast block. The
resulting matrices are structured (block Toeplitz fast part plus one slow
row block), and the zero structure of the original multirate system is read
off the pencil of the blocked one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResolventSingular, TauOutOfRange, ZeroZ
from .model import Dimensions, MultirateSystem, TolerancePolicy


@dataclass(frozen=True)
class BlockedSystem:
    """Time-invariant lift of a multirate system for one blocking delay.

    slow_rows is p2 for a full blocked system and 0 after the slow outputs
    have been discarded, so C_tau and D_tau have N*p1 + slow_rows rows.
    """

    dims: Dimensions
    tau: int
    A_tau: np.ndarray   # n x n
    B_tau: np.ndarray   # n x N*m
    C_tau: np.ndarray   # (N*p1 + slow_rows) x n
    D_tau: np.ndarray   # (N*p1 + slow_rows) x N*m
    slow_rows: int


@dataclass(frozen=True)
class MatrixPencil:
    """First-order pencil P(Z) = Z*E - F."""

    E: np.ndarray
    F: np.ndarray

    def __post_init__(self):
        if self.E.shape != self.F.shape:
            raise ValueError(f"E and F must share shape, got {self.E.shape} vs {self.F.shape}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.E.shape

    def at(self, Z: complex) -> np.ndarray:
        return Z * self.E.astype(complex) - self.F


def _powers(A: np.ndarray, k: int) -> list[np.ndarray]:
    # A^0 .. A^k by repeated multiplication; keeps real data real
    out = [np.eye(A.shape[0], dtype=A.dtype)]
    for _ in range(k):
        out.append(out[-1] @ A)
    return out


def _check_tau(tau: int, N: int) -> None:
    if not 1 <= tau <= N:
        raise TauOutOfRange(tau, N)


def _assemble(d: Dimensions, taus, A, B, Cf, Cs, Df, Ds) -> list[BlockedSystem]:
    """Blocked systems at each delay in taus from raw state-space matrices.

    Only the p2 slow rows of C_tau and D_tau depend on tau, so A_tau, B_tau,
    the fast rows and the slow products Cs A^k B are built once, and the
    returned systems share their A_tau and B_tau arrays. dtype follows the
    inputs: float64 inputs assemble in float64; object inputs (e.g.
    Fraction entries) assemble without any rounding at all.
    """
    for tau in taus:
        _check_tau(tau, d.N)
    m, p1, p2, N = d.m, d.p1, d.p2, d.N
    Ak = _powers(A, N)
    A_tau = Ak[N]
    B_tau = np.hstack([Ak[N - 1 - j] @ B for j in range(N)])
    CfAk = [Cf @ Ak[i] for i in range(N)]
    CsAk = [Cs @ Ak[i] for i in range(N)]
    # products associate as (C A^k) B, the order the entries were defined in
    CfAkB = [CfAk[k] @ B for k in range(N - 1)]
    CsAkB = [CsAk[k] @ B for k in range(N - 1)]
    C_fast = np.vstack(CfAk)
    D_fast = np.zeros((N * p1, N * m), dtype=A.dtype)
    for i in range(N):
        rows = slice(i * p1, (i + 1) * p1)
        D_fast[rows, i * m:(i + 1) * m] = Df
        for j in range(i):
            D_fast[rows, j * m:(j + 1) * m] = CfAkB[i - j - 1]
    out = []
    for tau in taus:
        D_slow = np.zeros((p2, N * m), dtype=A.dtype)
        for j in range(N - tau):
            D_slow[:, j * m:(j + 1) * m] = CsAkB[N - tau - 1 - j]
        D_slow[:, (N - tau) * m:(N - tau + 1) * m] = Ds
        out.append(BlockedSystem(dims=d, tau=tau, A_tau=A_tau, B_tau=B_tau,
                                 C_tau=np.vstack([C_fast, CsAk[N - tau]]),
                                 D_tau=np.vstack([D_fast, D_slow]), slow_rows=p2))
    return out


def block(sys: MultirateSystem, tau: int) -> BlockedSystem:
    """Assemble the blocked system for blocking delay tau.

    A_tau = A^N, B_tau = [A^(N-1)B | ... | B]. C_tau stacks the fast rows
    Cf A^i for i = 0..N-1 and the slow row Cs A^(N-tau). D_tau has Df on the
    fast block diagonal with Cf A^(i-j-1) B below it, and a slow row block
    [Cs A^(N-tau-1)B ... Cs B  Ds  0 ... 0] with tau-1 trailing zero blocks.
    """
    return _assemble(sys.dims, (tau,), sys.A, sys.B, sys.Cf, sys.Cs, sys.Df, sys.Ds)[0]


def block_all(sys: MultirateSystem) -> list[BlockedSystem]:
    """The blocked systems at every delay: entry t-1 equals block(sys, t).

    The delay-independent parts are built once and shared, so this costs
    little more than a single block call.
    """
    return _assemble(sys.dims, range(1, sys.dims.N + 1),
                     sys.A, sys.B, sys.Cf, sys.Cs, sys.Df, sys.Ds)


def system_pencil(blk: BlockedSystem) -> MatrixPencil:
    """System matrix as a pencil: P(Z) = [[Z*I - A_tau, -B_tau], [C_tau, D_tau]]."""
    n = blk.A_tau.shape[0]
    rows = n + blk.C_tau.shape[0]
    cols = n + blk.B_tau.shape[1]
    dtype = blk.A_tau.dtype
    E = np.zeros((rows, cols), dtype=dtype)
    E[:n, :n] = np.eye(n, dtype=dtype)
    F = np.zeros((rows, cols), dtype=dtype)
    F[:n, :n] = blk.A_tau
    F[:n, n:] = blk.B_tau
    F[n:, :n] = -blk.C_tau
    F[n:, n:] = -blk.D_tau
    return MatrixPencil(E=E, F=F)


def _solve_resolvent(blk: BlockedSystem, Z: complex, policy: TolerancePolicy) -> np.ndarray:
    """X = (Z*I - A_tau)^-1 B_tau, refused when the resolvent is ill conditioned."""
    n = blk.A_tau.shape[0]
    resolvent = Z * np.eye(n) - blk.A_tau
    cond = np.linalg.cond(resolvent)
    if not np.isfinite(cond) or cond > policy.condition_cap:
        raise ResolventSingular(
            f"Z*I - A_tau at Z={Z} has condition {cond:.3e}, cap {policy.condition_cap:.1e}")
    return np.linalg.solve(resolvent, blk.B_tau.astype(complex))


def transfer_eval(blk: BlockedSystem, Z: complex,
                  policy: TolerancePolicy | None = None) -> np.ndarray:
    """Blocked transfer function V_tau(Z) = C_tau (Z*I - A_tau)^-1 B_tau + D_tau."""
    return blk.C_tau @ _solve_resolvent(blk, Z, policy or TolerancePolicy()) + blk.D_tau


def lift_relation_residual(lo: BlockedSystem, hi: BlockedSystem, Z: complex,
                           policy: TolerancePolicy | None = None) -> float:
    """Relative residual of the one-step lifting identity between V_tau and V_tau+1.

    lo and hi are one system blocked at consecutive delays tau and tau+1.
    V_tau+1(Z) equals L(Z) V_tau(Z) R(Z) where L cyclically rotates the fast
    output blocks (picking up a factor Z) and R cyclically rotates the input
    blocks (with a factor 1/Z), so the returned Frobenius-norm residual is
    zero in exact arithmetic for every tau in 1..N-1 and Z != 0. A_tau and
    B_tau do not depend on the delay, so one resolvent solve serves both.
    """
    d = lo.dims
    if not 1 <= lo.tau <= d.N - 1:
        raise TauOutOfRange(lo.tau, d.N - 1)
    if hi.dims != d or hi.tau != lo.tau + 1:
        raise ValueError(f"the lifting relation links delays tau and tau+1 of one "
                         f"system, got tau={lo.tau} and tau={hi.tau}")
    # block_all shares A_tau and B_tau between delays, so `is` usually settles it
    if not all(a is b or np.array_equal(a, b)
               for a, b in ((lo.A_tau, hi.A_tau), (lo.B_tau, hi.B_tau))):
        raise ValueError("the lifting relation links one system, but A_tau or B_tau differ")
    if Z == 0:
        raise ZeroZ("the lifting relation involves 1/Z and is undefined at Z=0")
    m, p1, p2, N = d.m, d.p1, d.p2, d.N
    X = _solve_resolvent(lo, Z, policy or TolerancePolicy())
    V_lo = lo.C_tau @ X + lo.D_tau
    V_hi = hi.C_tau @ X + hi.D_tau
    L = np.zeros((N * p1 + p2, N * p1 + p2), dtype=complex)
    L[: (N - 1) * p1, p1: N * p1] = np.eye((N - 1) * p1)
    L[(N - 1) * p1: N * p1, :p1] = Z * np.eye(p1)
    L[N * p1:, N * p1:] = np.eye(p2)
    R = np.zeros((N * m, N * m), dtype=complex)
    R[:m, (N - 1) * m:] = np.eye(m) / Z
    R[m:, : (N - 1) * m] = np.eye((N - 1) * m)
    return float(np.linalg.norm(V_hi - L @ V_lo @ R) / np.linalg.norm(V_hi))


def fast_subsystem(blk: BlockedSystem) -> BlockedSystem:
    """Drop the slow output rows, leaving the blocked fast-only system."""
    if blk.slow_rows == 0:
        return blk
    keep = blk.C_tau.shape[0] - blk.slow_rows
    return BlockedSystem(dims=blk.dims, tau=blk.tau, A_tau=blk.A_tau, B_tau=blk.B_tau,
                         C_tau=blk.C_tau[:keep], D_tau=blk.D_tau[:keep], slow_rows=0)
