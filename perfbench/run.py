"""Benchmark entry point; run from the root of a checkout.

    python3 perfbench/run.py --workload staircase --seed 1 --seconds 20 --trace 0

BLAS is pinned to one thread before numpy loads, and the package is taken
from this checkout's src/. Without it the run exits 2 and prints no result.
"""
import sys

import env

if __name__ == "__main__":
    env.pin_blas()
    try:
        env.use_checkout_package()
    except env.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
    import measure

    sys.exit(measure.main())
