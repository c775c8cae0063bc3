"""Derive the committed input lists of the `escalation` and `staircase` workloads.

    python3 perfbench/derive.py escalation --base-seed 0 > perfbench/escalation_cases.json
    python3 perfbench/derive.py staircase --first 0 --count 100 > perfbench/staircase_seeds.json

escalation: run the acceptance grid (`GRID_SPEC` of tests/test_acceptance.py)
at the given base seed and keep every trial whose `escalated` is non-empty
and whose n <= 3. Trials with n >= 4 are left out because a single one of
them can take 20 s or more in exact arithmetic. n is the outermost loop of
the grid's seed schedule, so running only n in 1..3 hands every kept trial
the seed it gets in the full grid. Base seed 0 takes about a minute.

staircase: run the staircase pass for each candidate base seed and keep the
ones whose pass escalates no trial. About one pass in twenty holds one trial
that the float path cannot settle; it clears in exact arithmetic but costs
up to twice the rest of the pass, and that path is the `escalation`
workload's to measure. A trial that fails stops the derivation: a defect is
reported, never filtered out. 100 candidates take about eight minutes.

The committed files are this script's output with the arguments above;
other arguments give held-out lists derived the same way.
"""
from __future__ import annotations

import argparse
import json
import sys

import env

MAX_N = 3
ESCALATION_RULE = ("acceptance-grid trials (GRID_SPEC of tests/test_acceptance.py at "
                   "base_seed) whose escalated is non-empty and whose n <= max_n, in grid order")
STAIRCASE_RULE = ("staircase base seeds in first..first+count-1 whose pass escalates no "
                  "trial; the dropped ones are listed with their escalated trial count")


def derive_escalation(base_seed: int) -> dict:
    from multirate_zeros import harness
    from spans import Patch

    spec = harness.GridSpec(
        n_values=tuple(range(1, MAX_N + 1)), m_values=(1, 2, 3, 4), N_values=(2, 3, 4),
        p1_values=None, p2_offsets=(1, 2), taus="all", trials_per_cell=10,
        base_seed=base_seed)
    run_trial = harness.run_trial
    found = []

    def keep_escalated(*args, **kwargs):
        rec = run_trial(*args, **kwargs)
        if rec.escalated:
            d = rec.dims
            found.append({"n": d.n, "m": d.m, "p1": d.p1, "p2": d.p2, "N": d.N,
                          "tau": rec.tau, "seed": rec.seed,
                          "escalated": list(rec.escalated)})
        return rec

    with Patch() as patch:
        patch.install(run_trial, keep_escalated)
        harness.run_grid(spec)
    return {"rule": ESCALATION_RULE, "base_seed": base_seed, "max_n": MAX_N, "trials": found}


def derive_staircase(first: int, count: int) -> dict:
    from multirate_zeros import harness

    import workloads

    kept, dropped = [], {}
    for base in range(first, first + count):
        escalated = 0
        for spec in workloads.staircase_specs(base):
            report = harness.run_grid(spec)
            if report.failed_trials or not report.all_agree:
                raise SystemExit(f"base seed {base}: a trial failed; see "
                                 f"{json.dumps(report.to_dict()['disagreements'])}")
            escalated += report.escalated_trials
        if escalated:
            dropped[str(base)] = escalated
        else:
            kept.append(base)
        print(f"base seed {base}: {escalated} escalated", file=sys.stderr, flush=True)
    return {"rule": STAIRCASE_RULE, "first": first, "count": count,
            "seeds": kept, "dropped": dropped}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="workload", required=True)
    esc = sub.add_parser("escalation")
    esc.add_argument("--base-seed", type=int, default=0)
    stair = sub.add_parser("staircase")
    stair.add_argument("--first", type=int, default=0)
    stair.add_argument("--count", type=int, default=100)
    args = ap.parse_args(argv)
    if args.workload == "escalation":
        out = derive_escalation(args.base_seed)
    else:
        out = derive_staircase(args.first, args.count)
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    env.pin_blas()
    env.use_checkout_package()
    sys.exit(main())
