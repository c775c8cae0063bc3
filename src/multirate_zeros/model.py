"""Data model for two-rate multirate linear systems.

A multirate system here is a discrete-time state-space model whose fast
outputs y^f are observed every step and whose slow outputs y^s are observed
every N steps:

    x(k+1)  = A x(k) + B u(k)
    y^f(k)  = Cf x(k) + Df u(k)        k = 0, 1, 2, ...
    y^s(k)  = Cs x(k) + Ds u(k)        k = 0, N, 2N, ...

This module holds the dimension bookkeeping, validation, the tallness
classification, seeded generic instance generation, the reverse-time
transform, structured fixture systems, and JSON serialization.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import SingularA, UnsupportedDims


def _is_int(v) -> bool:
    # bool is an int subclass, and JSON true is no size or count
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class Dimensions:
    """Integer sizes of a multirate system: state n, input m, fast/slow output p1/p2, rate ratio N."""

    n: int
    m: int
    p1: int
    p2: int
    N: int

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not _is_int(v):
                raise ValueError(f"field {f.name!r} must be an integer, got {v!r}")
        for name in ("n", "m", "p1", "p2"):
            if getattr(self, name) < 1:
                raise ValueError(f"dimension {name} must be >= 1, got {getattr(self, name)}")
        if self.N < 2:
            raise ValueError(f"rate ratio N must be >= 2, got {self.N}")

    @property
    def p(self) -> int:
        return self.p1 + self.p2


class SystemClass(str, Enum):
    FAST_TALL = "FastTall"    # p1 > m: fast outputs alone outnumber inputs
    MIXED_TALL = "MixedTall"  # p1 <= m but N*p1 + p2 > N*m: tall only jointly
    NOT_TALL = "NotTall"


@dataclass(frozen=True)
class TolerancePolicy:
    """Numerical knobs shared across rank tests and the zero search."""

    rel_rank_tol: float = 1e-9       # singular values below rel*sigma_1*max(r,c) count as zero
    zero_radius: float = 1e-8        # |Z| below this is attributed to the origin
    cluster_tol: float = 1e-6        # candidate zeros closer than this merge
    normal_rank_samples: int = 7     # sample points for the normal rank
    resample_limit: int = 5          # retries for ill-conditioned compressions
    condition_cap: float = 1e10      # refuse matrix inversions beyond this

    def __post_init__(self):
        for name in ("rel_rank_tol", "zero_radius", "cluster_tol", "condition_cap"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)) \
                    or not math.isfinite(v) or v <= 0:
                raise ValueError(f"{name} must be a finite positive number, got {v!r}")
        # below machine epsilon rounding noise counts as rank, so a float rank
        # could exceed the exact one; the bounded normal-rank sweeps and the
        # exact re-reads below generic values rely on it never doing so. At
        # the floor the threshold is numpy's matrix_rank default.
        eps = float(np.finfo(float).eps)
        if self.rel_rank_tol < eps:
            raise ValueError(f"rel_rank_tol must be at least machine epsilon {eps!r}, "
                             f"got {self.rel_rank_tol!r}")
        for name, least in (("normal_rank_samples", 3), ("resample_limit", 1)):
            v = getattr(self, name)
            if not _is_int(v) or v < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")


def policy_from_dict(data: dict) -> TolerancePolicy:
    """Build a TolerancePolicy from parsed JSON, naming any offending field."""
    if not isinstance(data, dict):
        raise ValueError(f"policy must be a JSON object, got {data!r}")
    known = {f.name for f in fields(TolerancePolicy)}
    for key in data:
        if key not in known:
            raise ValueError(f"unknown policy field {key!r}")
    return TolerancePolicy(**data)


_MATRIX_SHAPES = {
    "A": lambda d: (d.n, d.n),
    "B": lambda d: (d.n, d.m),
    "Cf": lambda d: (d.p1, d.n),
    "Cs": lambda d: (d.p2, d.n),
    "Df": lambda d: (d.p1, d.m),
    "Ds": lambda d: (d.p2, d.m),
}


@dataclass(frozen=True)
class MultirateSystem:
    """State-space data of a two-rate system. Matrices are float64 arrays."""

    dims: Dimensions
    A: np.ndarray
    B: np.ndarray
    Cf: np.ndarray
    Cs: np.ndarray
    Df: np.ndarray
    Ds: np.ndarray

    def __post_init__(self):
        for name in _MATRIX_SHAPES:
            arr = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class ValidationResult:
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(sys: MultirateSystem) -> ValidationResult:
    """Check matrix shapes against dims and entry finiteness; violations are data, not errors."""
    problems = []
    for name, shape_of in _MATRIX_SHAPES.items():
        arr = getattr(sys, name)
        want = shape_of(sys.dims)
        if arr.shape != want:
            problems.append(f"matrix {name!r} has shape {arr.shape}, expected {want}")
        elif not np.all(np.isfinite(arr)):
            problems.append(f"matrix {name!r} contains non-finite entries")
    return ValidationResult(tuple(problems))


def classify(dims: Dimensions) -> SystemClass:
    """Tallness regime of the blocked system: FastTall, MixedTall, or NotTall."""
    if dims.p1 > dims.m:
        return SystemClass.FAST_TALL
    if dims.N * dims.p1 + dims.p2 > dims.N * dims.m:
        return SystemClass.MIXED_TALL
    return SystemClass.NOT_TALL


def _rng(seed: int) -> np.random.Generator:
    # Philox is counter-based, so streams are reproducible across platforms
    # and independent of draw history.
    return np.random.Generator(np.random.Philox(key=seed))


def random_generic(dims: Dimensions, seed: int) -> MultirateSystem:
    """Draw all entries i.i.d. standard normal from a Philox stream keyed by seed.

    Matrices are drawn in the fixed order A, B, Cf, Cs, Df, Ds, so identical
    (dims, seed) pairs reproduce bit-identical systems. Any absolutely
    continuous distribution avoids the measure-zero exceptional sets of the
    genericity statements; standard normal is the conventional choice.
    """
    rng = _rng(seed)
    mats = {name: rng.standard_normal(shape_of(dims))
            for name, shape_of in _MATRIX_SHAPES.items()}
    return MultirateSystem(dims=dims, **mats)


def reverse_time(sys: MultirateSystem, policy: TolerancePolicy | None = None) -> MultirateSystem:
    """Reverse-time counterpart: dynamics run backwards through A inverse.

    Returns {A~ = A^-1, B~ = -A^-1 B, Cf~ = Cf A^-1, Df~ = Df - Cf A^-1 B,
    Cs~ = Cs A^-1, Ds~ = Ds - Cs A^-1 B}. Applying it twice recovers the
    original system. Refuses ill-conditioned A rather than silently degrade.
    """
    policy = policy or TolerancePolicy()
    cond = np.linalg.cond(sys.A)
    if not np.isfinite(cond) or cond > policy.condition_cap:
        raise SingularA(f"cond(A)={cond:.3e} exceeds cap {policy.condition_cap:.1e}")
    Ainv = np.linalg.inv(sys.A)
    AinvB = Ainv @ sys.B
    return MultirateSystem(
        dims=sys.dims,
        A=Ainv,
        B=-AinvB,
        Cf=sys.Cf @ Ainv,
        Cs=sys.Cs @ Ainv,
        Df=sys.Df - sys.Cf @ AinvB,
        Ds=sys.Ds - sys.Cs @ AinvB,
    )


def _shift_matrix(n: int, s: int) -> np.ndarray:
    """Circular left-shift through s positions on R^n, as columns of the canonical basis."""
    A = np.zeros((n, n))
    for i in range(n):
        A[(i - s) % n, i] = 1.0
    return A


def _fixture_example1(dims: Dimensions, tau: int, seed: int) -> MultirateSystem:
    if (dims.n, dims.m, dims.p1, dims.p2, dims.N) != (1, 3, 1, 5, 2):
        raise UnsupportedDims(f"example1 is defined for dims (1,3,1,5,2), got {dims}")
    # all 28 scalar parameters are generic; draw them from the seeded stream
    return random_generic(dims, seed)


def _shift_system(dims: Dimensions, T: int) -> MultirateSystem:
    # the first T states cycle through m - p1 positions a step, fed by the
    # first m - p1 inputs, and the slow outputs read them; the other n - T
    # states are unreachable. Df passes the last p1 inputs, Ds the first m - p1
    n, m, p1, p2 = dims.n, dims.m, dims.p1, dims.p2
    w = m - p1
    A = np.zeros((n, n))
    A[:T, :T] = _shift_matrix(T, w)
    B = np.zeros((n, m))
    B[:w, :w] = np.eye(w)
    Df = np.zeros((p1, m))
    Df[:, w:] = np.eye(p1)
    Cs = np.zeros((p2, n))
    Cs[:T, :T] = np.eye(T)
    Ds = np.zeros((p2, m))
    Ds[T:T + w, :w] = np.eye(w)
    return MultirateSystem(dims=dims, A=A, B=B, Cf=np.zeros((p1, n)),
                           Cs=Cs, Df=Df, Ds=Ds)


def _fixture_shift_small_n(dims: Dimensions, tau: int, seed: int) -> MultirateSystem:
    n, m, p1, p2, N = dims.n, dims.m, dims.p1, dims.p2, dims.N
    w = m - p1
    if w < 1:
        raise UnsupportedDims(f"shift_small_n needs p1 < m, got p1={p1}, m={m}")
    if n > (N - tau) * w:
        raise UnsupportedDims(
            f"shift_small_n needs n <= (N-tau)(m-p1) = {(N - tau) * w}, got n={n}")
    if n < w:
        raise UnsupportedDims(f"shift_small_n needs n >= m-p1 = {w}, got n={n}")
    if p2 < n or p2 + p1 - n - m < 0:
        raise UnsupportedDims(
            f"shift_small_n needs p2 >= n and p2+p1 >= n+m, got p2={p2}")
    return _shift_system(dims, n)    # every state is cycled


def _fixture_shift_large_n(dims: Dimensions, tau: int, seed: int) -> MultirateSystem:
    n, m, p1, p2, N = dims.n, dims.m, dims.p1, dims.p2, dims.N
    w = m - p1
    if w < 1:
        raise UnsupportedDims(f"shift_large_n needs p1 < m, got p1={p1}, m={m}")
    T = (N - tau) * w       # size of the cycled part of the state
    if n - T < 1:
        raise UnsupportedDims(
            f"shift_large_n needs n > (N-tau)(m-p1) = {T}, got n={n}")
    if N - tau - 1 < 0:
        raise UnsupportedDims(f"shift_large_n block layout needs tau <= N-1, got tau={tau}")
    if p2 < T or p2 + p1 - m - T < 0:
        raise UnsupportedDims(
            f"shift_large_n needs p2 >= (N-tau)(m-p1) and p2+p1 >= m+(N-tau)(m-p1), got p2={p2}")
    return _shift_system(dims, T)


def _fixture_shift_controllability(dims: Dimensions, tau: int, seed: int) -> MultirateSystem:
    n, m = dims.n, dims.m
    if n > m:
        # circular left-shift through m positions; B selects e_1..e_m
        A = _shift_matrix(n, m)
        B = np.zeros((n, m))
        B[:m, :m] = np.eye(m)
    else:
        # B alone already has full row rank; keep the same selection pattern
        A = _shift_matrix(n, m % n)
        B = np.zeros((n, m))
        B[:n, :n] = np.eye(n)
    zeros = np.zeros
    return MultirateSystem(dims=dims, A=A, B=B,
                           Cf=zeros((dims.p1, n)), Cs=zeros((dims.p2, n)),
                           Df=zeros((dims.p1, m)), Ds=zeros((dims.p2, m)))


_FIXTURES = {
    "example1": _fixture_example1,
    "shift_small_n": _fixture_shift_small_n,
    "shift_large_n": _fixture_shift_large_n,
    "shift_controllability": _fixture_shift_controllability,
}


def fixture(name: str, dims: Dimensions, tau: int, seed: int) -> MultirateSystem:
    """Instantiate a named structured system.

    example1: the 8x7 worked instance with dims (1,3,1,5,2), scalars seeded.
    shift_small_n / shift_large_n: the explicit circular-shift systems that
    attain rank(D_tau) = (N-1)p1+m+n, respectively (tau-1)p1+(N-tau+1)m.
    shift_controllability: the (A, B) pair whose controllability matrix
    [B AB ... A^(nu-1)B] attains rank min(n, nu*m), with all-zero outputs.

    Raises UnsupportedDims when the block layout is inconsistent with dims.
    """
    if name not in _FIXTURES:
        raise ValueError(f"unknown fixture {name!r}; choose from {sorted(_FIXTURES)}")
    return _FIXTURES[name](dims, tau, seed)


def system_to_dict(sys: MultirateSystem) -> dict:
    d = sys.dims
    out = {"n": d.n, "m": d.m, "p1": d.p1, "p2": d.p2, "N": d.N}
    for name in _MATRIX_SHAPES:
        out[name] = getattr(sys, name).tolist()
    return out


def system_from_dict(data: dict) -> MultirateSystem:
    """Build a system from parsed JSON, naming the offending field on any mismatch."""
    if not isinstance(data, dict):
        raise ValueError(f"system must be a JSON object, got {data!r}")
    for key in ("n", "m", "p1", "p2", "N"):
        if key not in data:
            raise ValueError(f"missing integer field {key!r}")
    dims = Dimensions(n=data["n"], m=data["m"], p1=data["p1"], p2=data["p2"], N=data["N"])
    mats = {}
    for name in _MATRIX_SHAPES:
        if name not in data:
            raise ValueError(f"missing matrix field {name!r}")
        try:
            mats[name] = np.asarray(data[name], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"matrix field {name!r} is not numeric: {exc}") from None
    sys = MultirateSystem(dims=dims, **mats)
    violations = validate(sys).violations
    if violations:
        raise ValueError("; ".join(violations))
    return sys


def load_system(path: str | Path) -> MultirateSystem:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return system_from_dict(data)


def save_system(sys: MultirateSystem, path: str | Path) -> None:
    Path(path).write_text(json.dumps(system_to_dict(sys), indent=2) + "\n", encoding="utf-8")
