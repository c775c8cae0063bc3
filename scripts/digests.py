"""Recompute the canonical payload digests and compare them with digests.json.

    python scripts/digests.py

Each digest is the sha256 of one canonical payload minus its timestamp: the
three acceptance grids and the fixture suite (as AC10 compares them), a set
of `analyze` payloads, and the seed-1 pass of each benchmark workload. A
float payload can differ in its last bit across BLAS builds, so the digests
are compared only when this machine's fingerprint matches the recorded one;
otherwise the script says so and exits 0. It prints each digest that
differs from the file, with both values, and exits 1 if any does.
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = Path(__file__).with_name("digests.json")
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]

import env  # noqa: E402  (perfbench's process set-up, before numpy loads)

env.pin_blas()
env.use_checkout_package()

from test_acceptance import EXTREME_SPEC, GRID_SPEC, WORKED_SPEC, canon  # noqa: E402

from multirate_zeros import harness  # noqa: E402
from multirate_zeros.model import (Dimensions, TolerancePolicy, fixture,  # noqa: E402
                                   random_generic)

# the fingerprint fields a float payload can depend on
FINGERPRINT_KEYS = ("machine", "python", "numpy", "blas_name", "blas_version")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def analyze_digest(sys_, tau) -> str:
    """First 8 hex of the sha256 of the payload `analyze --out` writes, minus its timestamp."""
    payload = harness.analyze(sys_, tau)
    del payload["timestamp"]
    return sha256(json.dumps(payload, indent=2, sort_keys=True) + "\n")[:8]


def shift_fixture_digest() -> str:
    """Every shift fixture of the fixture suite analyzed at "all", then at 1..N."""
    digests = []
    for row in harness._fixture_rank_rows(TolerancePolicy()):
        dims = Dimensions(*(row[k] for k in ("n", "m", "p1", "p2", "N")))
        sys_ = fixture(row["fixture"], dims, row["tau"])
        digests += [analyze_digest(sys_, t) for t in ("all", *range(1, dims.N + 1))]
    return sha256("".join(digests))


def workload_digest(name: str) -> str:
    import workloads

    with tempfile.TemporaryDirectory() as out:
        return workloads.WORKLOADS[name](1).run_pass(Path(out)).digest


EXAMPLE1 = lambda: random_generic(Dimensions(1, 3, 1, 5, 2), 0)  # noqa: E731
LONG_HORIZON = lambda: random_generic(Dimensions(5, 5, 3, 24, 8), 7)  # noqa: E731

DIGESTS = {
    "grid": lambda: sha256(canon(harness.run_grid(GRID_SPEC))),
    "extreme": lambda: sha256(canon(harness.run_grid(EXTREME_SPEC))),
    "worked": lambda: sha256(canon(harness.run_grid(WORKED_SPEC))),
    "fixture_suite": lambda: sha256(canon(harness.run_fixture_suite())),
    **{f"analyze.example1.{t}": (lambda t=t: analyze_digest(EXAMPLE1(), t))
       for t in ("all", 1, 2)},
    **{f"analyze.long_horizon_seed7.{t}": (lambda t=t: analyze_digest(LONG_HORIZON(), t))
       for t in ("all", 1, 8)},
    "analyze.not_tall_seed4.all":
        lambda: analyze_digest(random_generic(Dimensions(3, 3, 1, 1, 2), 4), "all"),
    "analyze.shift_fixtures": shift_fixture_digest,
    **{f"perfbench.{w}.seed1": (lambda w=w: workload_digest(w))
       for w in ("staircase", "extreme_delay", "escalation")},
}


def fingerprint() -> dict:
    full = env.fingerprint()
    return {k: full[k] for k in FINGERPRINT_KEYS}


def main() -> int:
    record = json.loads(RECORD.read_text())
    here = fingerprint()
    if here != record["fingerprint"]:
        print(f"fingerprint {here} differs from the recorded {record['fingerprint']}: "
              "digests not compared")
        return 0
    differ = 0
    for name, digest in DIGESTS.items():
        now, recorded = digest(), record["digests"].get(name)
        if now != recorded:
            differ += 1
            print(f"{name}: recorded {recorded}, now {now}")
    print(f"{len(DIGESTS) - differ} of {len(DIGESTS)} digests match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
