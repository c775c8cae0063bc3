"""Data model for two-rate multirate linear systems.

A multirate system here is a discrete-time state-space model whose fast
outputs y^f are observed every step and whose slow outputs y^s are observed
every N steps:

    x(k+1)  = A x(k) + B u(k)
    y^f(k)  = Cf x(k) + Df u(k)        k = 0, 1, 2, ...
    y^s(k)  = Cs x(k) + Ds u(k)        k = 0, N, 2N, ...

This module holds the dimension bookkeeping, the tallness classification,
seeded generic instance generation, structured fixture systems, and JSON
serialization. Each value object checks its own input when it is built:
`Dimensions`, `TolerancePolicy` and `MultirateSystem` refuse bad values
with a `ValueError` naming the field, so every path that makes one (a
file, the Python API, `random_generic`, a fixture) gets the same checks.
The file readers add only the JSON checks of `_check_fields`, through
`_load_json`, whose errors name the file. `_check_tau` checks every delay.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import partial
from pathlib import Path

import numpy as np



def _is_int(v) -> bool:
    # a Python or numpy integer; bool is an int subclass, and JSON true is
    # no size or count. A value it accepts is kept as int(v), so it
    # serializes and keys the same as the Python int
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_tau(tau, N: int) -> int:
    if not _is_int(tau) or not 1 <= tau <= N:
        raise ValueError(f"blocking delay tau must be an integer in 1..{N}, got {tau!r}")
    return int(tau)


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
            object.__setattr__(self, f.name, int(v))
        for name in ("n", "m", "p1", "p2"):
            if getattr(self, name) < 1:
                raise ValueError(f"dimension {name} must be >= 1, got {getattr(self, name)}")
        if self.N < 2:
            raise ValueError(f"rate ratio N must be >= 2, got {self.N}")


class SystemClass(str, Enum):
    FAST_TALL = "FastTall"    # p1 > m: fast outputs alone outnumber inputs
    MIXED_TALL = "MixedTall"  # p1 <= m but N*p1 + p2 > N*m: tall only jointly
    NOT_TALL = "NotTall"


@dataclass(frozen=True)
class TolerancePolicy:
    """Numerical knobs shared across rank tests and the finite-zero reduction."""

    rel_rank_tol: float = 1e-9       # singular values below rel*sigma_1*max(r,c) count as zero
    zero_radius: float = 1e-8        # |Z| below this is attributed to the origin
    cluster_tol: float = 1e-6        # candidate zeros closer than this merge
    normal_rank_samples: int = 7     # sample points for the normal rank
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
        # zero_report lists a zero only at max(zero_radius, cluster_tol) < |z| < 1/zero_radius
        if max(self.zero_radius, self.cluster_tol) >= 1 / self.zero_radius:
            raise ValueError(f"zero_radius {self.zero_radius!r} and cluster_tol "
                             f"{self.cluster_tol!r} leave no room for a finite nonzero zero: "
                             "both must be below 1/zero_radius")
        v = self.normal_rank_samples
        if not _is_int(v) or v < 3:
            raise ValueError(f"normal_rank_samples must be an integer >= 3, got {v!r}")
        object.__setattr__(self, "normal_rank_samples", int(v))


def _check_fields(data, what: str, known, required=()) -> None:
    """Refuse parsed JSON unless it is an object with no unknown field and every required one."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {data!r}")
    for key in data:
        if key not in known:
            raise ValueError(f"unknown {what} field {key!r}")
    for key in required:
        if key not in data:
            raise ValueError(f"{what} field {key!r} is required")


def policy_from_dict(data: dict) -> TolerancePolicy:
    """Build a TolerancePolicy from parsed JSON, naming any offending field."""
    _check_fields(data, "policy", [f.name for f in fields(TolerancePolicy)])
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
    """State-space data of a two-rate system. Matrices are float64 arrays.

    Built from anything numpy reads as an array of ints or floats; a scalar
    or a vector counts as one row. Refuses, with a ValueError naming the
    matrix, one that is not numeric, has a shape other than the one dims
    gives, or holds a non-finite entry.
    """

    dims: Dimensions
    A: np.ndarray
    B: np.ndarray
    Cf: np.ndarray
    Cs: np.ndarray
    Df: np.ndarray
    Ds: np.ndarray

    def __post_init__(self):
        for name, shape_of in _MATRIX_SHAPES.items():
            try:
                arr = np.asarray(getattr(self, name))
            except ValueError as exc:    # a ragged nesting
                raise ValueError(f"matrix {name!r} is not numeric: {exc}") from None
            # ints and floats only: float() would read None as nan, a
            # string as its number, and a bool as 0 or 1
            if arr.dtype.kind not in "iuf":
                raise ValueError(f"matrix {name!r} is not numeric: it holds {arr.dtype} "
                                 f"entries, not ints or floats")
            arr = arr.astype(float, copy=False)
            if arr.ndim < 2:    # a scalar or a vector is one row
                arr = arr.reshape(1, -1)
            if arr.shape != shape_of(self.dims):
                raise ValueError(f"matrix {name!r} has shape {arr.shape}, "
                                 f"expected {shape_of(self.dims)}")
            object.__setattr__(self, name, arr)
        # one test over every entry, as random_generic builds a system a
        # trial; the matrix is looked for only when it fails
        if not np.isfinite(np.concatenate(
                [getattr(self, name).ravel() for name in _MATRIX_SHAPES])).all():
            bad = next(name for name in _MATRIX_SHAPES
                       if not np.isfinite(getattr(self, name)).all())
            raise ValueError(f"matrix {bad!r} contains non-finite entries")


def classify(dims: Dimensions) -> SystemClass:
    """Tallness regime of the blocked system: FastTall, MixedTall, or NotTall."""
    if dims.p1 > dims.m:
        return SystemClass.FAST_TALL
    if dims.N * dims.p1 + dims.p2 > dims.N * dims.m:
        return SystemClass.MIXED_TALL
    return SystemClass.NOT_TALL


def _rng(seed: int, purpose: int = 0) -> np.random.Generator:
    """The Philox stream of a seed in [0, 2**64) for one purpose, keyed seed + (purpose << 64).

    Purpose 0 draws the systems, purpose 1 the sample points; each purpose
    owns its own range of keys, so no seed reads another's stream. Philox
    is counter-based, so streams are reproducible across platforms and
    independent of draw history. A numpy integer seed keys as its int.
    """
    if not _is_int(seed) or not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return np.random.Generator(np.random.Philox(key=int(seed) + (purpose << 64)))


def random_generic(dims: Dimensions, seed: int) -> MultirateSystem:
    """Draw all entries i.i.d. standard normal from a Philox stream keyed by seed.

    One draw gives every entry, split into A, B, Cf, Cs, Df, Ds in that
    fixed order: the values a draw of each matrix in turn would give. So
    identical (dims, seed) pairs reproduce bit-identical systems. Any absolutely
    continuous distribution avoids the measure-zero exceptional sets of the
    genericity statements; standard normal is the conventional choice.
    """
    shapes = [shape_of(dims) for shape_of in _MATRIX_SHAPES.values()]
    entries = _rng(seed).standard_normal(sum(r * c for r, c in shapes))
    mats, at = {}, 0
    for name, (r, c) in zip(_MATRIX_SHAPES, shapes):
        mats[name] = entries[at:at + r * c].reshape(r, c)
        at += r * c
    return MultirateSystem(dims=dims, **mats)


def _shift_matrix(n: int, s: int) -> np.ndarray:
    """Circular left-shift through s positions on R^n, as columns of the canonical basis."""
    return np.roll(np.eye(n), -s, axis=0)


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


def _fixture_shift(dims: Dimensions, tau: int, small: bool) -> MultirateSystem:
    # both regimes cycle T = min(n, (N-tau)(m-p1)) states: all n of them
    # when small, the (N-tau)(m-p1) the blocked input reaches when large
    n, m, p1, p2, N = dims.n, dims.m, dims.p1, dims.p2, dims.N
    name = "shift_small_n" if small else "shift_large_n"
    w = m - p1
    if w < 1:
        raise ValueError(f"{name} needs p1 < m, got p1={p1}, m={m}")
    reach = (N - tau) * w
    if (n <= reach) != small:
        gate = "<=" if small else ">"
        raise ValueError(f"{name} needs n {gate} (N-tau)(m-p1) = {reach}, got n={n}")
    T = min(n, reach)
    if T < w:
        raise ValueError(f"{name} needs min(n, (N-tau)(m-p1)) >= m-p1 = {w}, "
                         f"got {T} at n={n}, tau={tau}")
    if p2 < T or p2 + p1 < m + T:
        raise ValueError(f"{name} needs p2 >= T and p2+p1 >= m+T for "
                         f"T = min(n, (N-tau)(m-p1)) = {T}, got p2={p2}")
    return _shift_system(dims, T)


def _fixture_shift_controllability(dims: Dimensions, tau: int) -> MultirateSystem:
    # circular left-shift through m positions; B selects e_1..e_k, k = min(n, m)
    n, m = dims.n, dims.m
    k = min(n, m)
    B = np.zeros((n, m))
    B[:k, :k] = np.eye(k)
    zeros = np.zeros
    return MultirateSystem(dims=dims, A=_shift_matrix(n, m), B=B,
                           Cf=zeros((dims.p1, n)), Cs=zeros((dims.p2, n)),
                           Df=zeros((dims.p1, m)), Ds=zeros((dims.p2, m)))


_FIXTURES = {
    "shift_small_n": partial(_fixture_shift, small=True),
    "shift_large_n": partial(_fixture_shift, small=False),
    "shift_controllability": _fixture_shift_controllability,
}


def fixture(name: str, dims: Dimensions, tau: int) -> MultirateSystem:
    """Instantiate a named structured system.

    shift_small_n / shift_large_n: one circular-shift construction, cycling
    min(n, (N-tau)(m-p1)) states, for n at most (N-tau)(m-p1), respectively
    above it; it attains rank(D_tau) = (N-1)p1+m+n, respectively
    (tau-1)p1+(N-tau+1)m.
    shift_controllability: the (A, B) pair whose controllability matrix
    [B AB ... A^(nu-1)B] attains rank min(n, nu*m), with all-zero outputs.

    Raises ValueError for an unknown name, a delay tau outside 1..N, and
    when the block layout is inconsistent with dims.
    """
    if name not in _FIXTURES:
        raise ValueError(f"unknown fixture {name!r}; choose from {sorted(_FIXTURES)}")
    return _FIXTURES[name](dims, _check_tau(tau, dims.N))


def system_to_dict(sys: MultirateSystem) -> dict:
    d = sys.dims
    out = {"n": d.n, "m": d.m, "p1": d.p1, "p2": d.p2, "N": d.N}
    for name in _MATRIX_SHAPES:
        out[name] = getattr(sys, name).tolist()
    return out


def system_from_dict(data: dict) -> MultirateSystem:
    """Build a system from parsed JSON, naming the offending field on any mismatch."""
    dim_keys = [f.name for f in fields(Dimensions)]
    keys = dim_keys + list(_MATRIX_SHAPES)
    _check_fields(data, "system", keys, keys)
    return MultirateSystem(dims=Dimensions(**{k: data[k] for k in dim_keys}),
                           **{name: data[name] for name in _MATRIX_SHAPES})


def _load_json(path: str | Path, what: str, build):
    """The value build makes of the UTF-8 JSON file at path; each ValueError names the file."""
    try:
        return build(json.loads(Path(path).read_text(encoding="utf-8")))
    except ValueError as exc:
        raise ValueError(f"{what} file {path}: {exc}") from exc


def load_system(path: str | Path) -> MultirateSystem:
    return _load_json(path, "system", system_from_dict)


def save_system(sys: MultirateSystem, path: str | Path) -> None:
    Path(path).write_text(json.dumps(system_to_dict(sys), indent=2) + "\n", encoding="utf-8")
