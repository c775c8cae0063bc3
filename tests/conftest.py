"""Shared fixtures: the worked 8x7 instance, a planted finite zero, common policies, the
one-delay entries of a stack of blocked systems, and its fast-only subsystem."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from multirate_zeros.blocking import BlockedSystem
from multirate_zeros.model import Dimensions, MultirateSystem, TolerancePolicy, random_generic

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

EXAMPLE1_DIMS = Dimensions(n=1, m=3, p1=1, p2=5, N=2)
LONG_HORIZON_DIMS = Dimensions(n=5, m=5, p1=3, p2=24, N=8)


def planted_zero_system(Df: float) -> MultirateSystem:
    """A tall system with one genuine finite nonzero zero, at (1/2 - 1/Df)**2.

    Its fast channel Df + 1/(z - 1/2) vanishes at z = 1/2 - 1/Df, and the
    slow outputs are zero, so at either delay the blocked pencil (N = 2)
    loses rank at that point squared: 1/9 for Df = 6, 1/16 for Df = 4.
    """
    one = lambda x: np.array([[float(x)]])  # noqa: E731
    return MultirateSystem(dims=Dimensions(n=1, m=1, p1=1, p2=1, N=2), A=one(0.5), B=one(1),
                           Cf=one(1), Cs=one(0), Df=one(Df), Ds=one(0))


def at_delay(stack: BlockedSystem, i: int) -> BlockedSystem:
    """Entry i of a stack of blocked systems, the system at delay stack.tau[i], as `block`
    returns one."""
    return replace(stack, tau=stack.tau[i], C_tau=stack.C_tau[i], D_tau=stack.D_tau[i])


def fast_subsystem(blk: BlockedSystem) -> BlockedSystem:
    """Drop the slow output rows, leaving the blocked fast-only system (of a
    stack, the stack of them): the square system AC9 compares with the
    unblocked one."""
    keep = blk.dims.N * blk.dims.p1
    if blk.C_tau.shape[-2] == keep:
        return blk
    return replace(blk, C_tau=blk.C_tau[..., :keep, :], D_tau=blk.D_tau[..., :keep, :])


def pencil_count(pencils) -> int:
    """How many pencils a stack sharing E holds, as the harness passes it to `normal_ranks`."""
    return len(pencils.F)


@pytest.fixture(scope="session")
def policy() -> TolerancePolicy:
    return TolerancePolicy()


@pytest.fixture(scope="session")
def example1_sys():
    return random_generic(EXAMPLE1_DIMS, 0)
