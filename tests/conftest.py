"""Shared fixtures: the worked 8x7 instance, a planted finite zero and common policies."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from multirate_zeros.model import Dimensions, MultirateSystem, TolerancePolicy, fixture

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


def pencil_count(pencils) -> int:
    """How many pencils a stack sharing E holds, as the harness passes it to `normal_ranks`."""
    return len(pencils.F)


@pytest.fixture(scope="session")
def policy() -> TolerancePolicy:
    return TolerancePolicy()


@pytest.fixture(scope="session")
def example1_sys():
    return fixture("example1", EXAMPLE1_DIMS, tau=1, seed=0)
