"""The benchmark's workloads, built from a workload seed.

Each workload is a fixed amount of work (one "pass") that is repeated while
the run lasts. A pass goes through the package's public entry points only
(`harness.run_grid`, `harness.run_trial`, `harness.emit_report`) and
returns what it attempted, what failed and a sha256 of its canonical
payload. Repeating a pass must reproduce the digest exactly: the reports
are pure functions of their inputs, with timings kept in fields the digest
drops (`timestamp`, `elapsed`).
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

from multirate_zeros import harness
from multirate_zeros.model import Dimensions

HERE = Path(__file__).resolve().parent
ESCALATION_CASES = HERE / "escalation_cases.json"
STAIRCASE_SEEDS = HERE / "staircase_seeds.json"

# one trial per cell of the acceptance grid where p1 < m
STAIRCASE_M = (2, 3, 4)
STAIRCASE_N = (2, 3, 4)
STAIRCASE_n = (1, 2, 3, 4, 5)
STAIRCASE_OFFSETS = (1, 2)

# The acceptance EXTREME_SPEC, inputs included. Its 40 trials are the ones
# the acceptance gate verifies. Seeds drawn from the workload seed reach,
# about once in 800 trials, a trial that escalates to exact arithmetic for
# minutes and then reports a duality disagreement (base seed 106000 with 10
# trials per tau: seed 106065, tau 7). That is a program defect for the exact
# path to fix; until then this workload cannot draw its inputs from the seed.
EXTREME_SPEC = dict(n_values=(5,), m_values=(5,), N_values=(8,), p1_values=(3,),
                    p2_offsets=(8,), taus="all", trials_per_cell=5, base_seed=0)


@dataclass(frozen=True)
class PassResult:
    attempted: int
    failed: int        # trials with an error or any disagreement
    escalated: int     # trials settled in exact arithmetic
    digest: str        # sha256 of the canonical payload


# a small float-only trial that warms up the package before timing
FLOAT_WARM_CASE = {"n": 1, "m": 2, "p1": 1, "p2": 3, "N": 2, "tau": 1, "seed": 0}


@dataclass(frozen=True)
class Workload:
    name: str
    trials_per_pass: int
    run_pass: Callable[[Path], PassResult]
    warm_case: dict = field(default_factory=lambda: FLOAT_WARM_CASE)


def run_case(case: dict):
    """run_trial on one {n, m, p1, p2, N, tau, seed} case."""
    dims = Dimensions(n=case["n"], m=case["m"], p1=case["p1"], p2=case["p2"], N=case["N"])
    return harness.run_trial(dims, case["tau"], case["seed"])


def canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _grid_pass(specs, emit: bool):
    def run_pass(out_dir: Path) -> PassResult:
        digest = hashlib.sha256()
        attempted = failed = escalated = 0
        for i, spec in enumerate(specs):
            report = harness.run_grid(spec)
            payload = report.to_dict()
            if emit:
                path = out_dir / f"report-{i}.json"
                harness.emit_report(report, "json", path)
                emitted = json.loads(path.read_text())
                if emitted != json.loads(canonical(payload)):
                    raise AssertionError(f"{path} does not round-trip the report")
                payload = emitted
            del payload["timestamp"]
            digest.update(canonical(payload))
            attempted += report.total_trials
            failed += sum(not row["agree_all"] for row in report.trials)
            escalated += report.escalated_trials
        return PassResult(attempted, failed, escalated, digest.hexdigest())
    return run_pass


def staircase_specs(base: int) -> list[harness.GridSpec]:
    """One GridSpec per m, trial seeds disjoint across m and across bases."""
    return [harness.GridSpec(
        n_values=STAIRCASE_n, m_values=(m,), N_values=STAIRCASE_N,
        p1_values=tuple(range(1, m)), p2_offsets=STAIRCASE_OFFSETS, taus="all",
        trials_per_cell=1, base_seed=1000 * base + 300 * (m - 2)) for m in STAIRCASE_M]


def load_staircase_seeds(path: Path = STAIRCASE_SEEDS) -> list[int]:
    """The committed float-only staircase base seeds (see derive.py)."""
    seeds = json.loads(path.read_text())["seeds"]
    if not seeds or any(not isinstance(s, int) or s < 0 for s in seeds):
        raise ValueError(f"{path}: seeds must be a nonempty list of ints >= 0")
    return seeds


def staircase(seed: int) -> Workload:
    """The staircase pass at the committed base seed the workload seed picks, emitted to JSON."""
    pool = load_staircase_seeds()
    specs = staircase_specs(pool[seed % len(pool)])
    trials = sum(len(STAIRCASE_n) * (m - 1) * len(STAIRCASE_OFFSETS) * sum(STAIRCASE_N)
                 for m in STAIRCASE_M)
    return Workload("staircase", trials, _grid_pass(specs, emit=True))


def extreme_delay(seed: int) -> Workload:
    """The acceptance EXTREME_SPEC cell with its own inputs; the seed is not used."""
    spec = harness.GridSpec(**EXTREME_SPEC)
    return Workload("extreme_delay", 8 * EXTREME_SPEC["trials_per_cell"],
                    _grid_pass([spec], emit=False))


def load_escalation_cases(path: Path = ESCALATION_CASES) -> list[dict]:
    """The committed escalation list, validated: every case tall with tau in 1..N."""
    cases = json.loads(path.read_text())["trials"]
    if not cases:
        raise ValueError(f"{path}: the escalation list is empty")
    for i, c in enumerate(cases):
        try:
            dims = Dimensions(n=c["n"], m=c["m"], p1=c["p1"], p2=c["p2"], N=c["N"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: case {i} has bad dims: {exc}") from exc
        if not dims.N * dims.p1 + dims.p2 > dims.N * dims.m:
            raise ValueError(f"{path}: case {i} is not tall: {dims}")
        if not 1 <= c["tau"] <= dims.N:
            raise ValueError(f"{path}: case {i} has tau {c['tau']} outside 1..{dims.N}")
        if not isinstance(c["seed"], int) or c["seed"] < 0:
            raise ValueError(f"{path}: case {i} has bad seed {c['seed']!r}")
    return cases


def _record_payload(rec) -> dict:
    payload = asdict(rec)
    del payload["elapsed"]
    return payload


def trial_pass(cases: list[dict]):
    """Run each (dims, tau, seed) case through run_trial in the given order."""
    def run_pass(out_dir: Path) -> PassResult:
        records = [run_case(c) for c in cases]
        # the digest ignores run order, which the workload seed permutes
        ordered = sorted(records, key=lambda r: (r.seed, r.tau))
        digest = hashlib.sha256(canonical([_record_payload(r) for r in ordered]))
        return PassResult(
            attempted=len(records),
            failed=sum(r.error is not None or not r.agree_all for r in records),
            escalated=sum(bool(r.escalated) for r in records),
            digest=digest.hexdigest())
    return run_pass


def escalation(seed: int, cases: list[dict] | None = None) -> Workload:
    """The committed escalating trials, in an order drawn from the seed.

    The list itself is fixed: deriving one from another base seed means
    running the acceptance grid (see derive.py).
    """
    cases = list(cases if cases is not None else load_escalation_cases())
    random.Random(seed).shuffle(cases)
    # warming up on the smallest case also fills sympy's caches
    smallest = min(cases, key=lambda c: (c["N"] * (c["m"] + c["p1"]) + c["p2"] + c["n"]))
    return Workload("escalation", len(cases), trial_pass(cases), warm_case=smallest)


WORKLOADS = {"staircase": staircase, "extreme_delay": extreme_delay, "escalation": escalation}
