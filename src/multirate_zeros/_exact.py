"""Exact rank measurements for borderline floating-point trials.

Every system entry is a float64 and therefore an exact dyadic rational, and
every blocked matrix is a polynomial in the entries, so each rank question
has an exact answer. The SVD rank used everywhere else answers it through a
tolerance, and on a large seeded sweep a few draws produce true smallest
singular values (tiny but nonzero products such as a ratio raised to the
N-1 power) that sink below any double-precision threshold. Those trials are
undecidable in float arithmetic: the same reading is produced by a genuine
rank drop and by an unlucky but full-rank draw.

`settle` settles such rank readings in two stages. The verification
harness calls it on the readings of every trial and of every `analyze`
of a tall system, and it re-reads only the ranks that differ from their
generic value, which no instance's exact rank exceeds.
It reads ranks only, at real rational points: a genuine finite zero almost
never sits exactly at its float location, so a rank read there settles
nothing.

First, a screen over the prime field F_P, P = 33554393, the largest prime
below 2**25. Each entry num * 2**e is mapped to its residue num * 2**e mod
P (2 is invertible mod P), the blocked matrices are assembled with every
product reduced mod P, and a rank is read by row echelon elimination on
int64 arrays; residues stay below 2**25, so no product reaches 2**50.
Reduction from the dyadic rationals, and from the sample points below with
their denominators 5, 3 and 2, to F_P is a ring homomorphism: it maps every
minor to that minor's residue. A minor that is nonzero mod P is therefore
nonzero over the rationals, and a mod-P rank is a lower bound on the exact
rank, for every P and every matrix. The generic value is an upper bound. A
mod-P rank that meets it settles the reading exactly; no probability bound
enters the argument, because the screen never decides a reading it cannot
prove. An unlucky P, one that divides every nonzero minor of the largest
size, only makes the screen fall short.

Second, the fallback for the readings the screen leaves short, and for
them only. Their delays' matrices are rebuilt from the original entries
with Fraction arithmetic, which is rounding-free,
and a rank is computed in integers: each row, scaled by the lcm of its
denominators, goes through fraction-free Bareiss elimination, whose
divisions are exact.

A float rank can only under-report the exact rank: rounding perturbs
singular values by far less than the rank threshold, which holds because
TolerancePolicy refuses a rel_rank_tol below machine epsilon (below it,
rounding noise counts as rank). So a float reading that meets the generic
value is exact too. A float reading above the generic value contradicts
that premise, so it is not trusted either: it is re-read like one below.
Predictions enter only as such upper bounds, which let a lower bound
settle a reading: a float rank, a mod-P rank, or an exact rank at one
sample point. They never supply a value.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .blocking import BlockedSystem, MatrixPencil, _assemble, system_pencil
from .model import MultirateSystem
from .numerics import _max_rank

# the modulus of the screen: the largest prime below 2**25
P = 33554393

# Fixed real sample points for the exact normal rank. Rank at any point is
# a lower bound on the normal rank that is attained away from the finitely
# many zeros, so the max over a few generic points decides it; none of these
# lie on |Z| = 1 or at 0.
_SAMPLE_POINTS = (Fraction(7, 5), Fraction(-4, 3), Fraction(1, 2))


def fraction_matrix(M: np.ndarray) -> np.ndarray:
    """Entry-exact copy of a float matrix as an object array of Fractions."""
    return np.vectorize(Fraction, otypes=[object])(np.atleast_2d(np.asarray(M, dtype=float)))


def residue_matrix(M: np.ndarray) -> np.ndarray:
    """Residues mod P, as int64 in [0, P), of the dyadic rationals a float matrix holds.

    frexp splits each finite x into a mantissa in [1/2, 1), whose 2**53
    multiple is an integer num, and an exponent, so x = num * 2**e with
    e = exp - 53; the residue is num * 2**e mod P, 2 being invertible mod P.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if not np.isfinite(M).all():
        raise ValueError("only finite floats have residues")
    mantissa, exp = np.frexp(M)
    num = (mantissa * 2.0**53).astype(np.int64) % P
    return num * _pow2(exp.astype(np.int64) - 53) % P


def _pow2(e: np.ndarray) -> np.ndarray:
    # 2**e mod P elementwise, with one modular power per distinct exponent
    # (a float64 has fewer than 2100) and a gather
    distinct, at = np.unique(e, return_inverse=True)
    return np.array([pow(2, int(k), P) for k in distinct], dtype=np.int64)[at].reshape(e.shape)


def _residue(q) -> int:
    # the denominators that occur (the sample points' and powers of 2) are prime to P
    q = Fraction(q)
    return q.numerator * pow(q.denominator, -1, P) % P


def _matmul_mod(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X @ Y mod P for int64 residues, refused where the int64 sum could wrap."""
    k = X.shape[-1]
    if k * (P - 1) ** 2 >= 2**63:
        raise ValueError(f"inner dimension {k} could overflow int64 before reduction mod {P}")
    return X @ Y % P


def _block_from(sys: MultirateSystem, taus, entries,
                matmul=operator.matmul) -> BlockedSystem:
    # `_assemble` at the delays in taus, in order (every delay 1..N when
    # None), on the entries of the six system matrices, taken in one pass
    mats = (sys.A, sys.B, sys.Cf, sys.Cs, sys.Df, sys.Ds)
    flat = entries(np.concatenate([M.ravel() for M in mats]))[0]
    parts = np.split(flat, np.cumsum([M.size for M in mats])[:-1])
    return _assemble(sys.dims, range(1, sys.dims.N + 1) if taus is None else taus,
                     *(x.reshape(M.shape) for x, M in zip(parts, mats)), matmul=matmul)


def modp_block(sys: MultirateSystem, taus=None) -> BlockedSystem:
    """`block_all` over F_P at the delays in taus (every delay when None):
    one stack, each entry the residue of the exact one."""
    return _block_from(sys, taus, residue_matrix, _matmul_mod)


def modp_rank(M: np.ndarray) -> int:
    """Rank over F_P of an integer matrix, by row echelon elimination in int64.

    Entries may be any int64; they are reduced first, after which no
    product exceeds (P - 1)**2 < 2**50.
    """
    A = np.atleast_2d(np.asarray(M, dtype=np.int64)) % P
    if A.shape[0] < A.shape[1]:   # the loop runs over columns: make them the fewer
        A = A.T.copy()
    rank = 0
    for c in range(A.shape[1]):
        nonzero = np.flatnonzero(A[rank:, c])
        if nonzero.size == 0:
            continue
        at = rank + nonzero[0]
        if at != rank:
            A[[rank, at]] = A[[at, rank]]
        pivot_row = A[rank, c + 1:] * pow(int(A[rank, c]), -1, P) % P
        rank += 1
        below = A[rank:, c + 1:]
        below -= A[rank:, c, None] * pivot_row
        below %= P
    return rank


def exact_block(sys: MultirateSystem, taus=None) -> BlockedSystem:
    """`block_all` in Fraction arithmetic, free of rounding, at the delays
    in taus (every delay when None): one stack."""
    return _block_from(sys, taus, fraction_matrix)


def exact_rank(M: np.ndarray) -> int:
    """Rank of a matrix of Fractions (or ints) over the rationals."""
    rows = []
    for row in np.atleast_2d(M).tolist():   # a row scaled to integers keeps the rank
        scale = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (scale // x.denominator) for x in row])
    # Bareiss: after k pivots each entry is a (k+1)-minor, so dividing by the
    # previous pivot is exact; the smallest pivot keeps those minors short
    rank, prev = 0, 1
    while rows and rows[0]:
        at = min((i for i, row in enumerate(rows) if row[0]),
                 key=lambda i: abs(rows[i][0]), default=None)
        if at is None:
            rows = [row[1:] for row in rows]
            continue
        pivot = rows.pop(at)
        p = pivot[0]
        rows = [[(p * x - row[0] * y) // prev for x, y in zip(row[1:], pivot[1:])]
                for row in rows]
        rank, prev = rank + 1, p
    return rank


def settle(sys: MultirateSystem, rank: dict, generic: dict) -> dict:
    """The readings in rank, each one off its generic value re-read exactly.

    rank maps (quantity, delay) to a reading of "normal_rank", "rank_D" or
    "rank_at_zero", and generic maps each key to its generic value. A
    reading at it is exact already and stands. The others are re-read in
    two stages, each an (assembly, rank, point) triple: the screen
    (`modp_block`, `modp_rank`, a point's residue), then Bareiss
    (`exact_block`, `exact_rank`, a point as a Fraction). A stage re-reads
    only the readings still off their generic value, from one stack of
    their delays and the one pencil stack it gives: rank(D_tau) from the
    stack's D_tau, and a pencil reading as the max of the ranks of its
    delay's pencil at Z = 0, or at _SAMPLE_POINTS for the normal rank,
    stopped by `_max_rank` at the generic value. A mod-P rank that meets
    the generic value is exact, so each value returned is the one a
    Bareiss re-read of every reading gives.
    """
    rank = dict(rank)
    points = {"rank_at_zero": (0,), "normal_rank": _SAMPLE_POINTS}
    # built per call, so a rebinding of these module globals takes effect
    for assemble, rank_of, point in ((modp_block, modp_rank, _residue),
                                     (exact_block, exact_rank, Fraction)):
        off = [key for key, value in rank.items() if value != generic[key]]
        if not off:
            break
        taus = sorted({t for _, t in off})
        blocks = assemble(sys, taus)
        pencils = system_pencil(blocks)
        for q, t in off:
            i = taus.index(t)
            if q == "rank_D":
                rank[q, t] = rank_of(blocks.D_tau[i])
                continue
            pencil = MatrixPencil(pencils.E, pencils.F[i])
            rank[q, t] = _max_rank((rank_of(pencil.at(point(z))) for z in points[q]),
                                   pencil.shape, generic[q, t])
    return rank
