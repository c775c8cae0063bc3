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
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceFailure, ResolventSingular
from .model import Dimensions, MultirateSystem, TolerancePolicy, _is_int

# the byte budget of one stacked product of lift transfer functions: points
# share a stack while their N transfer functions fit it
LIFT_STACK_BYTES = 32 * 1024


@dataclass(frozen=True)
class BlockedSystem:
    """Time-invariant lift of a multirate system at one blocking delay, or a stack of them.

    For one delay tau is an int and every matrix is 2-D. A stack, as
    `block_all` returns it, holds the system at several delays: tau is the
    tuple of them, and C_tau and D_tau carry a leading delay axis, C_tau[i]
    being the one at delay tau[i]. A_tau and B_tau do not depend on the
    delay, so a stack holds them once, as `MatrixPencil.F` shares its E.
    """

    dims: Dimensions
    tau: int | tuple[int, ...]
    A_tau: np.ndarray   # n x n
    B_tau: np.ndarray   # n x N*m
    C_tau: np.ndarray   # ([delays,] N*p1 + p2, n)
    D_tau: np.ndarray   # ([delays,] N*p1 + p2, N*m)


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


def _powers(A: np.ndarray, k: int, matmul=operator.matmul) -> np.ndarray:
    # A^0 .. A^k as one stack, by repeated multiplication; keeps real data real
    out = np.empty((k + 1, *A.shape), dtype=A.dtype)
    out[0] = np.eye(A.shape[0], dtype=A.dtype)
    for i in range(k):
        out[i + 1] = matmul(out[i], A)
    return out


def _check_tau(tau, N: int) -> int:
    # tau as a Python int, refused unless it is an integer in 1..N
    if not _is_int(tau) or not 1 <= tau <= N:
        raise ValueError(f"blocking delay tau must be an integer in 1..{N}, got {tau!r}")
    return int(tau)


def _assemble(d: Dimensions, taus, A, B, Cf, Cs, Df, Ds,
              matmul=operator.matmul) -> BlockedSystem:
    """The stack of blocked systems at the delays in taus, from raw state-space matrices.

    Every block is gathered from products of the stacked powers A^0..A^N,
    each product taken once. Only the p2 slow rows depend on the delay:
    at tau they are the fast row block N - tau with Cs and Ds in place of
    Cf and Df. dtype follows the inputs: float64 inputs assemble in
    float64; object inputs (e.g. Fraction entries) assemble without any
    rounding at all. Every arithmetic operation is a product through
    matmul, so a matmul that reduces its result (modulo a prime, say)
    assembles in that ring.
    """
    taus = tuple(_check_tau(tau, d.N) for tau in taus)
    n, m, N = d.n, d.m, d.N
    Ak = _powers(A, N, matmul)

    def row_blocks(r, C, D):
        # block rows r with C and D for Cf and Df: C A^r, and D at column
        # block r with C A^(r-j-1) B left of it, the products associating as
        # (C A^k) B, the order the entries were defined in
        CAk = matmul(C, Ak[:N])
        blocks = np.concatenate([np.zeros((1, *D.shape), dtype=A.dtype), D[None],
                                 matmul(CAk[:N - 1], B)])
        at = np.maximum(r[:, None] + 1 - np.arange(N), 0)
        return CAk[r], blocks[at].transpose(0, 2, 1, 3).reshape(len(r), D.shape[0], N * m)

    def every_delay(fast, slow):
        # the fast rows, the same at every delay, over each delay's slow rows
        fast = fast.reshape(1, -1, fast.shape[-1]).repeat(len(taus), axis=0)
        return np.concatenate([fast, slow], axis=1)

    (C_fast, D_fast), (C_slow, D_slow) = (row_blocks(np.arange(N), Cf, Df),
                                          row_blocks(N - np.array(taus, dtype=np.intp), Cs, Ds))
    return BlockedSystem(dims=d, tau=taus, A_tau=Ak[N],
                         B_tau=matmul(Ak[N - 1::-1], B).transpose(1, 0, 2).reshape(n, N * m),
                         C_tau=every_delay(C_fast, C_slow), D_tau=every_delay(D_fast, D_slow))


def block(sys: MultirateSystem, tau: int) -> BlockedSystem:
    """Assemble the blocked system for blocking delay tau.

    A_tau = A^N, B_tau = [A^(N-1)B | ... | B]. C_tau stacks the fast rows
    Cf A^i for i = 0..N-1 and the slow row Cs A^(N-tau). D_tau has Df on the
    fast block diagonal with Cf A^(i-j-1) B below it, and a slow row block
    [Cs A^(N-tau-1)B ... Cs B  Ds  0 ... 0] with tau-1 trailing zero blocks.
    """
    stack = _assemble(sys.dims, (tau,), sys.A, sys.B, sys.Cf, sys.Cs, sys.Df, sys.Ds)
    return replace(stack, tau=stack.tau[0], C_tau=stack.C_tau[0], D_tau=stack.D_tau[0])


def block_all(sys: MultirateSystem) -> BlockedSystem:
    """The system blocked at every delay 1..N, as one stack: tau is (1, ..., N),
    and C_tau[t - 1] and D_tau[t - 1] equal those of block(sys, t).

    The whole stack costs little more than a single block call.
    """
    return _assemble(sys.dims, range(1, sys.dims.N + 1),
                     sys.A, sys.B, sys.Cf, sys.Cs, sys.Df, sys.Ds)


def system_pencil(blk: BlockedSystem) -> MatrixPencil:
    """System matrix as a pencil: P(Z) = [[Z*I - A_tau, -B_tau], [C_tau, D_tau]].

    For a stack of blocked systems, as block_all returns it, F stacks the
    pencils' F over the E they share: F[i] is the one at delay tau[i].
    """
    n = blk.A_tau.shape[0]
    dtype = blk.A_tau.dtype
    E = np.zeros((n + blk.D_tau.shape[-2], n + blk.D_tau.shape[-1]), dtype=dtype)
    E[:n, :n] = np.eye(n, dtype=dtype)
    F = np.zeros(blk.D_tau.shape[:-2] + E.shape, dtype=dtype)
    F[..., :n, :n] = blk.A_tau
    F[..., :n, n:] = blk.B_tau
    F[..., n:, :n] = -blk.C_tau
    F[..., n:, n:] = -blk.D_tau
    return MatrixPencil(E=E, F=F)


def _solve_resolvent(blk: BlockedSystem, points, policy: TolerancePolicy) -> np.ndarray:
    """X_i = (Z_i*I - A_tau)^-1 B_tau at each point Z_i, from one stacked cond
    and one stacked solve; the first ill-conditioned resolvent is refused, and
    a failed cond or solve raises ConvergenceFailure."""
    n = blk.A_tau.shape[0]
    resolvents = np.multiply.outer(points, np.eye(n)) - blk.A_tau
    try:
        for Z, cond in zip(points, np.linalg.cond(resolvents)):
            if not np.isfinite(cond) or cond > policy.condition_cap:
                raise ResolventSingular(f"Z*I - A_tau at Z={Z} has condition {cond:.3e}, "
                                        f"cap {policy.condition_cap:.1e}")
        return np.linalg.solve(resolvents, blk.B_tau)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"the resolvent's cond or solve failed: {exc}") from None


def transfer_eval(blk: BlockedSystem, Z: complex,
                  policy: TolerancePolicy = TolerancePolicy()) -> np.ndarray:
    """Blocked transfer function V_tau(Z) = C_tau (Z*I - A_tau)^-1 B_tau + D_tau.

    On a stack it is the stack of V_tau(Z) at its delays, from one solve.
    """
    return blk.C_tau @ _solve_resolvent(blk, [Z], policy)[0] + blk.D_tau


def lift_relation_residual(blk: BlockedSystem, Z,
                           policy: TolerancePolicy = TolerancePolicy()) -> float:
    """Largest relative residual of the one-step lifting identity over delays 1..N.

    blk is one system blocked at every delay 1..N, the stack block_all
    returns. For each tau in 1..N-1, V_tau+1(Z) equals L(Z) V_tau(Z) R(Z): L
    rotates the fast output blocks up by one, the first picking up a factor
    Z, and leaves the slow rows alone; R rotates the input blocks left by
    one, the first picking up a factor 1/Z. Both are applied as block
    rotations, and the Frobenius-norm residual is zero in exact arithmetic
    for every Z != 0. A pair whose V_tau+1 is zero reads 0 when its
    residual is zero too, and inf otherwise. Z is one point or a nonempty
    sequence of them, whose result is the max of the one-point values; an
    empty sequence, or a point at 0, is refused with a ValueError. A_tau and B_tau do not
    depend on the delay, so one stacked resolvent solve serves every point
    and all N transfer functions. The transfer functions are formed for
    as many points at once as fit LIFT_STACK_BYTES (at least one), in one
    stacked product, and their residuals come from one rotation of that
    stack; a larger stack outgrows the cache and runs slower. The harness
    reads it at real points, where X, V and the residuals are all real.
    """
    if blk.tau != tuple(range(1, blk.dims.N + 1)):
        raise ValueError("the lifting relation needs one system blocked at every "
                         f"delay 1..N, in order, as block_all returns it, got tau={blk.tau}")
    points = [Z] if np.ndim(Z) == 0 else list(Z)
    if not points:
        raise ValueError("the lifting relation needs at least one point, got an empty sequence")
    if any(z == 0 for z in points):
        raise ValueError("the lifting relation involves 1/Z and is undefined at Z=0")
    m, p1, N = blk.dims.m, blk.dims.p1, blk.dims.N
    Xs = _solve_resolvent(blk, points, policy)
    step = max(1, LIFT_STACK_BYTES // blk.D_tau.nbytes)
    worst = []
    for i in range(0, len(points), step):
        Z = np.array(points[i:i + step])[:, None, None, None]
        V = blk.C_tau @ Xs[i:i + step, None] + blk.D_tau
        lo, hi = V[:, :-1], V[:, 1:]
        rows = np.concatenate([lo[..., p1:N * p1, :], Z * lo[..., :p1, :],
                               lo[..., N * p1:, :]], axis=2)
        rotated = np.concatenate([rows[..., m:], rows[..., :m] / Z], axis=3)
        res, ref = _squared_norms(hi - rotated), _squared_norms(hi)
        ratios = np.divide(res, ref, out=np.where(res > 0, np.inf, 0.0), where=ref > 0)
        worst += np.sqrt(np.max(ratios, axis=1, initial=0.0)).tolist()
    return max(worst)


def _squared_norms(V: np.ndarray) -> np.ndarray:
    # squared Frobenius norm of each matrix in a stack (..., rows, cols);
    # einsum reads the stack once, where norm(V, axis=(-2, -1)) is several
    # times slower at these sizes
    return np.einsum("...ij,...ij->...", V, V.conj()).real
