"""Process set-up shared by the benchmark's scripts.

Two things must happen before numpy is first imported: BLAS is pinned to one
thread (with OpenBLAS's default of one thread per core, a 48x48 complex
matmul on a 2-core machine ran 100x slower than single-threaded, and pass
times doubled at random), and the package is imported from this checkout's
own `src/`, never from an installed copy.
"""
from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class CheckoutError(RuntimeError):
    """The directory the benchmark runs in does not hold the package source."""


def pin_blas() -> None:
    """Set every BLAS thread-count variable to 1 in this process's environment."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_package():
    """Import multirate_zeros from ROOT/src and return the module.

    Raises CheckoutError when the source is missing or a copy from elsewhere
    was imported, so a checkout without the program never reports a result.
    """
    init = SRC / "multirate_zeros" / "__init__.py"
    if not init.is_file():
        raise CheckoutError(f"no package source at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import multirate_zeros

    if Path(multirate_zeros.__file__).resolve() != init.resolve():
        raise CheckoutError(f"imported {multirate_zeros.__file__}, expected {init}")
    return multirate_zeros


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def fingerprint() -> dict:
    """Machine and library details to record with every result."""
    from importlib.metadata import version

    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": version("sympy"),  # read without importing it
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
