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
entries with Fraction arithmetic, which is rounding-free, and ranks are
computed over the rationals with sympy's exact domain matrices. Ranks at
nonreal points use the realification identity: the complex rank of X + iY
is half the real rank of [[X, -Y], [Y, X]].

The verification harness calls in only for trials whose float measurement
disagrees with the closed-form prediction. That trigger does not bias the
result: a float rank can only under-report the exact rank (rounding
perturbs singular values by far less than the rank threshold), so a float
measurement that already matches the predicted generic maximum is exact,
and only the disagreeing direction ever needs the expensive arithmetic.
Exact values are measured from the system instance alone; predictions
decide which trials get the treatment, never what the measurement says.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .blocking import BlockedSystem, MatrixPencil, _assemble
from .model import MultirateSystem

# Fixed off-circle sample points for the exact normal rank, as (re, im)
# rationals. Rank at any point is a lower bound on the normal rank that is
# attained away from the finitely many zeros, so the max over a few generic
# points decides it; none of these lie on |Z| = 1 or near 0.
_SAMPLE_POINTS = (
    (Fraction(7, 5), Fraction(1, 3)),
    (Fraction(-4, 3), Fraction(6, 7)),
    (Fraction(1, 2), Fraction(-13, 9)),
)


def fraction_matrix(M: np.ndarray) -> np.ndarray:
    """Entry-exact copy of a float matrix as an object array of Fractions."""
    M = np.atleast_2d(np.asarray(M))
    out = np.empty(M.shape, dtype=object)
    for i in range(M.shape[0]):
        for j in range(M.shape[1]):
            out[i, j] = Fraction(float(M[i, j]))
    return out


def exact_block(sys: MultirateSystem, tau: int) -> BlockedSystem:
    """Blocked system assembled in Fraction arithmetic, free of rounding."""
    return _assemble(
        sys.dims, tau,
        fraction_matrix(sys.A), fraction_matrix(sys.B),
        fraction_matrix(sys.Cf), fraction_matrix(sys.Cs),
        fraction_matrix(sys.Df), fraction_matrix(sys.Ds))


def exact_rank(M: np.ndarray) -> int:
    """Rank of a matrix of Fractions (or ints) over the rationals."""
    # sympy is imported lazily: only escalated trials pay for it
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    M = np.atleast_2d(M)
    rows = [[QQ(x.numerator, x.denominator) for x in row] for row in M.tolist()]
    return DomainMatrix(rows, M.shape, QQ).rank()


def exact_rank_at(pencil: MatrixPencil, re: Fraction, im: Fraction = Fraction(0)) -> int:
    """Exact rank of Z*E - F at the rational point Z = re + im*i."""
    X = re * pencil.E - pencil.F
    if im == 0:
        return exact_rank(X)
    Y = im * pencil.E
    doubled = exact_rank(np.vstack([np.hstack([X, -Y]), np.hstack([Y, X])]))
    assert doubled % 2 == 0
    return doubled // 2


def exact_normal_rank(pencil: MatrixPencil) -> int:
    return max(exact_rank_at(pencil, re, im) for re, im in _SAMPLE_POINTS)
