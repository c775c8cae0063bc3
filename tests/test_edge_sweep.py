"""Edge sweep: `analyze` on dyadic systems against an exact reference.

Every entry is s * 2**k, s in {-1, 0, 1} and k in -K..K: at K = 0 the
systems are 0/+-1 matrices full of exact rank drops, and at K = 20 their
scales differ by 2**40, so the float readings fall short of the generic
values and settling must re-read them. The reference reads every rank in
Fraction arithmetic, off `exact_block`.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from multirate_zeros import harness
from multirate_zeros._exact import exact_block, exact_rank
from multirate_zeros.blocking import system_pencil
from multirate_zeros.model import Dimensions, MultirateSystem

from conftest import at_delay

# tall dims: n, m in 1..3, p1 in 1..m, p2 one or two past N*(m - p1), N in 2..3
DIMS = [Dimensions(n, m, p1, N * (m - p1) + off, N)
        for n in range(1, 4) for m in range(1, 4) for p1 in range(1, m + 1)
        for off in (1, 2) for N in (2, 3)]

# the rank fields a float reading can only under-report
RANK_FIELDS = ("rank_D", "normal_rank", "rank_at_zero", "rank_at_infinity")


def dyadic_system(dims: Dimensions, rng: np.random.Generator, K: int) -> MultirateSystem:
    n, m, p1, p2 = dims.n, dims.m, dims.p1, dims.p2

    def draw(rows, cols):
        s = rng.integers(-1, 2, size=(rows, cols))
        return s * np.ldexp(1.0, rng.integers(-K, K + 1, size=(rows, cols)))

    return MultirateSystem(dims=dims, A=draw(n, n), B=draw(n, m), Cf=draw(p1, n),
                           Cs=draw(p2, n), Df=draw(p1, m), Ds=draw(p2, m))


def exact_fields(sys: MultirateSystem) -> dict[int, dict]:
    """The rank fields at each delay, read exactly. The normal rank is the
    max over n+1 distinct nonzero points: every minor of Z*E - F has degree
    at most rank(E) = n in Z, so one of them misses its roots."""
    n, stack = sys.dims.n, exact_block(sys)
    out = {}
    for t in range(1, sys.dims.N + 1):
        blk = at_delay(stack, t - 1)
        pencil = system_pencil(blk)
        rho = max(exact_rank(pencil.at(Fraction(z))) for z in range(1, n + 2))
        rank_D = exact_rank(blk.D_tau)
        out[t] = {"rank_D": rank_D, "normal_rank": rho,
                  "rank_at_zero": exact_rank(pencil.F),
                  "rank_at_infinity": min(rho, n + rank_D)}
    return out


@pytest.mark.parametrize("K", [0, 20])
@pytest.mark.parametrize("seed", [0, 1])
def test_settled_readings_are_exact_and_floats_never_exceed_them(K, seed):
    rng = np.random.default_rng(seed)
    mismatches, over, corrected = [], [], 0
    for dims in DIMS:
        sys = dyadic_system(dims, rng, K)
        exact = exact_fields(sys)
        for res in harness.analyze(sys, "all")["results"]:
            meas, want = res["measured"], exact[res["tau"]]
            mismatches += [(dims, res["tau"], k, meas[k], want[k])
                           for k in ("rank_D", "normal_rank", "rank_at_zero")
                           if meas[k] != want[k]]
            screen = meas.get("screen", {})
            over += [(dims, res["tau"], k, screen[k], want[k])
                     for k in RANK_FIELDS if k in screen and screen[k] > want[k]]
            corrected += len(screen)
    assert mismatches == []
    assert over == []
    if K:
        # the float readings at this scale do fall short, so settling is exercised
        assert corrected > 0
