"""Exact rational rank measurements for borderline floating-point trials.

Every system entry is a float64 and therefore an exact dyadic rational, and
every blocked matrix is a polynomial in the entries, so each rank question
has an exact answer. The SVD rank used everywhere else answers it through a
tolerance, and on a large seeded sweep a few draws produce true smallest
singular values (tiny but nonzero products such as a ratio raised to the
N-1 power) that sink below any double-precision threshold. Those trials are
undecidable in float arithmetic: the same reading is produced by a genuine
rank drop and by an unlucky but full-rank draw.

This module settles such trials. Matrices are rebuilt from the original
entries with Fraction arithmetic, which is rounding-free, and a rank is
computed in integers: each row, scaled by the lcm of its denominators,
goes through fraction-free Bareiss elimination, whose divisions are exact.
The pencil is real, so its normal rank is sampled at real points. Only a
nonreal point (a finite-zero candidate) is realified: the complex rank of
X + iY is half the real rank of [[X, -Y], [Y, X]].

The verification harness calls in only for trials whose float measurement
disagrees with the closed-form prediction, and re-reads only the ranks
below their generic value. A float rank can only under-report the exact
rank: rounding perturbs singular values by far less than the rank
threshold, which holds because TolerancePolicy refuses a rel_rank_tol
below machine epsilon (below it, rounding noise counts as rank). No
instance's exact rank exceeds the generic value, so a float reading that
meets it is exact. Predictions enter only as such upper
bounds, which let a lower bound settle a reading: a float rank, or an exact
rank at one sample point. They never supply a value.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .blocking import BlockedSystem, MatrixPencil, _assemble
from .model import MultirateSystem
from .numerics import _max_rank

# Fixed real sample points for the exact normal rank. Rank at any point is
# a lower bound on the normal rank that is attained away from the finitely
# many zeros, so the max over a few generic points decides it; none of these
# lie on |Z| = 1 or at 0.
_SAMPLE_POINTS = (Fraction(7, 5), Fraction(-4, 3), Fraction(1, 2))


def fraction_matrix(M: np.ndarray) -> np.ndarray:
    """Entry-exact copy of a float matrix as an object array of Fractions."""
    return np.vectorize(Fraction, otypes=[object])(np.atleast_2d(np.asarray(M, dtype=float)))


def exact_block(sys: MultirateSystem) -> list[BlockedSystem]:
    """`block_all` in Fraction arithmetic: every delay 1..N, free of rounding."""
    return _assemble(
        sys.dims, range(1, sys.dims.N + 1),
        fraction_matrix(sys.A), fraction_matrix(sys.B),
        fraction_matrix(sys.Cf), fraction_matrix(sys.Cs),
        fraction_matrix(sys.Df), fraction_matrix(sys.Ds))


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


def exact_rank_at(pencil: MatrixPencil, re: Fraction, im: Fraction = Fraction(0)) -> int:
    """Exact rank of Z*E - F at the rational point Z = re + im*i."""
    X = re * pencil.E - pencil.F
    if im == 0:
        return exact_rank(X)
    Y = im * pencil.E
    doubled = exact_rank(np.vstack([np.hstack([X, -Y]), np.hstack([Y, X])]))
    assert doubled % 2 == 0
    return doubled // 2


def exact_normal_rank(pencil: MatrixPencil, bound: int | None = None) -> int:
    """Max exact rank over _SAMPLE_POINTS, stopping once it reaches min(bound, rows, cols).

    A point's rank is a lower bound on the normal rank; min(rows, cols) is
    an upper bound, and so is bound when it is the generic value. A point
    that meets the upper bound settles the max. A point ranking above a
    bound set too low does not stop the sweep, so the excess still shows.
    """
    return _max_rank((exact_rank_at(pencil, z) for z in _SAMPLE_POINTS), pencil.shape, bound)
