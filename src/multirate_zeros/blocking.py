"""Blocking: packaging N consecutive steps of a multirate system into one.

Blocking turns the periodic two-rate system into a time-invariant one whose
input and output vectors stack N consecutive samples. The blocking delay
tau in 1..N fixes how the slow samples align with the fast block. The
resulting matrices are structured (block Toeplitz fast part plus one slow
row block), and the zero structure of the original multirate system is read
off the pencil of the blocked one.
"""
from __future__ import annotations

import operator
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
    """First-order pencil P(Z) = Z*E - F, or a stack of them, F (k, rows, cols), sharing E."""

    E: np.ndarray
    F: np.ndarray

    def __post_init__(self):
        if self.E.shape != self.F.shape[-2:] or self.F.ndim > 3:
            raise ValueError(f"E and F must share shape, got {self.E.shape} vs {self.F.shape}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.E.shape

    def at(self, Z) -> np.ndarray:
        # dtype follows Z and the entries: on a float pencil float64 at a real Z,
        # complex at a nonreal one; a Fraction Z on a Fraction pencil stays
        # exact, and an int residue on a residue pencil stays int64 (the
        # caller reduces mod P)
        return Z * self.E - self.F


def _powers(A: np.ndarray, k: int, matmul=operator.matmul) -> list[np.ndarray]:
    # A^0 .. A^k by repeated multiplication; keeps real data real
    out = [np.eye(A.shape[0], dtype=A.dtype)]
    for _ in range(k):
        out.append(matmul(out[-1], A))
    return out


def _check_tau(tau: int, N: int) -> None:
    if not 1 <= tau <= N:
        raise TauOutOfRange(tau, N)


def _assemble(d: Dimensions, taus, A, B, Cf, Cs, Df, Ds,
              matmul=operator.matmul) -> list[BlockedSystem]:
    """Blocked systems at each delay in taus from raw state-space matrices.

    Only the p2 slow rows of C_tau and D_tau depend on tau, so A_tau, B_tau,
    the fast rows and the slow products Cs A^k B are built once, and the
    returned systems share their A_tau and B_tau arrays. dtype follows the
    inputs: float64 inputs assemble in float64; object inputs (e.g.
    Fraction entries) assemble without any rounding at all. Every
    arithmetic operation is a product through matmul, so a matmul that
    reduces its result (modulo a prime, say) assembles in that ring.
    """
    for tau in taus:
        _check_tau(tau, d.N)
    m, p1, p2, N = d.m, d.p1, d.p2, d.N
    Ak = _powers(A, N, matmul)
    A_tau = Ak[N]
    B_tau = np.hstack([matmul(Ak[N - 1 - j], B) for j in range(N)])
    CfAk = [matmul(Cf, Ak[i]) for i in range(N)]
    CsAk = [matmul(Cs, Ak[i]) for i in range(N)]
    # products associate as (C A^k) B, the order the entries were defined in
    CfAkB = [matmul(CfAk[k], B) for k in range(N - 1)]
    CsAkB = [matmul(CsAk[k], B) for k in range(N - 1)]
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


def system_pencil(blk: BlockedSystem | list[BlockedSystem]) -> MatrixPencil:
    """System matrix as a pencil: P(Z) = [[Z*I - A_tau, -B_tau], [C_tau, D_tau]].

    Given a list of blocked systems of one shape, as block_all returns
    them, F stacks their pencils' F over the E they share.
    """
    blocks = [blk] if isinstance(blk, BlockedSystem) else blk
    first = blocks[0]
    n = first.A_tau.shape[0]
    rows = n + first.C_tau.shape[0]
    cols = n + first.B_tau.shape[1]
    dtype = first.A_tau.dtype
    E = np.zeros((rows, cols), dtype=dtype)
    E[:n, :n] = np.eye(n, dtype=dtype)
    F = np.zeros((len(blocks), rows, cols), dtype=dtype)
    for Fk, b in zip(F, blocks):
        Fk[:n, :n] = b.A_tau
        Fk[:n, n:] = b.B_tau
        Fk[n:, :n] = -b.C_tau
        Fk[n:, n:] = -b.D_tau
    return MatrixPencil(E=E, F=F if blocks is blk else F[0])


def _solve_resolvent(blk: BlockedSystem, points, policy: TolerancePolicy) -> np.ndarray:
    """X_i = (Z_i*I - A_tau)^-1 B_tau at each point Z_i, from one stacked cond
    and one stacked solve; the first ill-conditioned resolvent is refused."""
    n = blk.A_tau.shape[0]
    resolvents = np.multiply.outer(points, np.eye(n)) - blk.A_tau
    for Z, cond in zip(points, np.linalg.cond(resolvents)):
        if not np.isfinite(cond) or cond > policy.condition_cap:
            raise ResolventSingular(
                f"Z*I - A_tau at Z={Z} has condition {cond:.3e}, cap {policy.condition_cap:.1e}")
    return np.linalg.solve(resolvents, blk.B_tau)


def transfer_eval(blk: BlockedSystem, Z: complex,
                  policy: TolerancePolicy | None = None) -> np.ndarray:
    """Blocked transfer function V_tau(Z) = C_tau (Z*I - A_tau)^-1 B_tau + D_tau."""
    return blk.C_tau @ _solve_resolvent(blk, [Z], policy or TolerancePolicy())[0] + blk.D_tau


def lift_relation_residual(blocks: list[BlockedSystem], Z,
                           policy: TolerancePolicy | None = None) -> float:
    """Largest relative residual of the one-step lifting identity over delays 1..N.

    blocks is one system blocked at every delay 1..N, as block_all returns
    it. For each tau in 1..N-1, V_tau+1(Z) equals L(Z) V_tau(Z) R(Z): L
    rotates the fast output blocks up by one, the first picking up a factor
    Z, and leaves the slow rows alone; R rotates the input blocks left by
    one, the first picking up a factor 1/Z. Both are applied as block
    rotations, and the Frobenius-norm residual is zero in exact arithmetic
    for every Z != 0. Z is one point or a nonempty sequence of them, whose
    result is the max of the one-point values. A_tau and B_tau do not
    depend on the delay, so one stacked resolvent solve serves every point
    and all N transfer functions, formed at each point in one stacked
    product; the N - 1 residuals come from one rotation of that stack. The
    harness reads it at real points, where X, V and the residuals are all
    real.
    """
    def same(a, b):
        # block_all shares A_tau and B_tau between delays, so `is` usually settles it
        return a is b or np.array_equal(a, b)

    first = blocks[0] if blocks else None
    layout = [(b.dims, b.slow_rows, b.tau) for b in blocks]
    if first is None or layout != [(first.dims, first.slow_rows, t)
                                   for t in range(1, first.dims.N + 1)] \
            or not all(same(b.A_tau, first.A_tau) and same(b.B_tau, first.B_tau)
                       for b in blocks):
        raise ValueError("the lifting relation needs one system blocked at every "
                         "delay 1..N, in order, as block_all returns it")
    points = [Z] if np.ndim(Z) == 0 else list(Z)
    if any(z == 0 for z in points):
        raise ZeroZ("the lifting relation involves 1/Z and is undefined at Z=0")
    m, p1, N = first.dims.m, first.dims.p1, first.dims.N
    C, D = (np.stack([getattr(b, name) for b in blocks]) for name in ("C_tau", "D_tau"))

    def residual(Z, X):
        V = C @ X + D
        lo, hi = V[:-1], V[1:]
        rows = np.concatenate([lo[:, p1:N * p1], Z * lo[:, :p1], lo[:, N * p1:]], axis=1)
        rotated = np.concatenate([rows[:, :, m:], rows[:, :, :m] / Z], axis=2)
        return float(np.sqrt(np.max(_squared_norms(hi - rotated) / _squared_norms(hi),
                                    initial=0.0)))

    Xs = _solve_resolvent(first, points, policy or TolerancePolicy())
    return max(residual(Z, X) for Z, X in zip(points, Xs))


def _squared_norms(V: np.ndarray) -> np.ndarray:
    # squared Frobenius norm of each matrix in a stack; einsum reads the stack
    # once, where norm(V, axis=(1, 2)) is several times slower at these sizes
    return np.einsum("kij,kij->k", V, V.conj()).real


def fast_subsystem(blk: BlockedSystem) -> BlockedSystem:
    """Drop the slow output rows, leaving the blocked fast-only system."""
    if blk.slow_rows == 0:
        return blk
    keep = blk.C_tau.shape[0] - blk.slow_rows
    return BlockedSystem(dims=blk.dims, tau=blk.tau, A_tau=blk.A_tau, B_tau=blk.B_tau,
                         C_tau=blk.C_tau[:keep], D_tau=blk.D_tau[:keep], slow_rows=0)
