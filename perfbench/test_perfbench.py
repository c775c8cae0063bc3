"""The benchmark's own tests, at tiny size.

    python3 -m pytest -q perfbench

Workloads are swapped for tiny ones (a two-trial grid, one escalating
trial), so every code path of a timed and a traced run executes in seconds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import env

env.use_checkout_package()

import derive  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from multirate_zeros import harness  # noqa: E402

BENCHMARK = json.loads((env.ROOT / "BENCHMARK.json").read_text())
E2E_NAMES = {m["name"] for m in BENCHMARK["end_to_end"]}
LAYER_NAMES = {m["name"] for m in BENCHMARK["per_layer"]}

# the cheapest committed escalating trial (about half a second)
CHEAP_CASE = {"n": 3, "m": 2, "p1": 2, "p2": 2, "N": 3, "tau": 3, "seed": 4098}


def tiny_grid(seed: int) -> workloads.Workload:
    spec = harness.GridSpec(n_values=(1,), m_values=(2,), N_values=(2,), p1_values=(1,),
                            taus=(1,), trials_per_cell=2, base_seed=seed)
    return workloads.Workload("staircase", 2, workloads._grid_pass([spec], emit=True))


def tiny_escalation(seed: int) -> workloads.Workload:
    return workloads.escalation(seed, cases=[CHEAP_CASE])


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "staircase", tiny_grid)
    monkeypatch.setitem(workloads.WORKLOADS, "extreme_delay", tiny_grid)
    monkeypatch.setitem(workloads.WORKLOADS, "escalation", tiny_escalation)
    monkeypatch.setattr(measure, "SETUP_REPEATS", 1)


def run_main(capsys, workload: str, trace: int) -> tuple[int, dict, str]:
    code = measure.main(["--workload", workload, "--seed", "3",
                         "--seconds", "0", "--trace", str(trace)])
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


def bindings() -> dict:
    return {(mod.__name__, name): value
            for mod in spans._modules() for name, value in vars(mod).items()}


def test_benchmark_json_names_the_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", ["staircase", "escalation"])
def test_timed_run_emits_every_end_to_end_metric(tiny, capsys, workload):
    code, result, out = run_main(capsys, workload, trace=0)
    assert code == 0 and result["correct"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == E2E_NAMES
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["failed"] == 0 and result["attempted"] >= measure.MIN_PASSES
    for label in ("# machine", "# failed_ratio", "# trial_tail_ms", "# payload sha256"):
        assert label in out


@pytest.mark.parametrize("workload", ["staircase", "escalation"])
def test_traced_run_emits_every_layer_metric_and_restores(tiny, capsys, workload):
    before = bindings()
    code, result, _ = run_main(capsys, workload, trace=1)
    assert code == 0 and result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == LAYER_NAMES
    assert metrics["harness.run_trial.calls"] >= 1
    for layer in map(spans.metric_prefix, spans.LAYERS):
        assert 0 <= metrics[f"{layer}.self_s"] <= metrics[f"{layer}.s"] + 1e-9
    if workload == "escalation":
        assert metrics["harness.escalated_trials"] == 1
        assert metrics["exact.exact_rank.calls"] > 0
        assert metrics["exact.exact_rank.max_bits"] > 0
        assert metrics["harness.escalation_cleared_ratio"] == 1.0
    else:
        assert metrics["harness.emit_report.bytes"] > 0
        assert metrics["exact.exact_rank.calls"] == 0
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_wraps_every_binding_and_restores_on_error():
    before = bindings()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            from multirate_zeros import blocking, zeros
            assert harness.block is blocking.block
            assert harness.block is not before[("multirate_zeros.blocking", "block")]
            assert zeros.normal_rank is harness.normal_rank
            raise RuntimeError("stop")
    after = bindings()
    assert all(after[k] is before[k] for k in before)


def test_spans_nest_within_their_trial(tmp_path):
    wl = tiny_grid(0)
    with spans.Tracer() as tracer:
        wl.run_pass(tmp_path)
    trial_idx = tracer.layers.index(spans.TRIAL_LAYER)
    rows = tracer.spans
    assert all(row is not None for row in rows)
    trials = [i for i, row in enumerate(rows) if row[0] == trial_idx]
    assert [rows[i][4] for i in trials] == [0, 1]
    for i, (layer, start, end, parent, trial) in enumerate(rows):
        assert start <= end
        if parent >= 0:
            p = rows[parent]
            assert parent < i and p[1] <= start and end <= p[2]
            assert trial == p[4]
        elif layer != trial_idx:
            assert trial == -1


def test_repeated_passes_match_and_check_flags_problems(tmp_path):
    wl = tiny_grid(5)
    first, second = wl.run_pass(tmp_path), wl.run_pass(tmp_path)
    assert first == second and first.failed == 0
    bad = workloads.PassResult(2, 1, 0, "0" * 64)
    problems = measure.check(wl, [(first, 1.0), (bad, 1.0)])
    assert any("failed" in p for p in problems)
    assert any("digest" in p for p in problems)
    assert measure.check(wl, [(first, 1.0), (second, 1.0)]) == []


def test_committed_escalation_list_is_valid_and_rejects_bad_cases(tmp_path):
    cases = workloads.load_escalation_cases()
    assert sorted(c["seed"] for c in cases) == [1707, 3476, 3561, 4016, 4098, 4568, 4581]
    assert all(c["n"] <= 3 for c in cases)
    for bad in ({"p2": 1, "p1": 1}, {"tau": 0}, {"tau": 4}, {"seed": -1}, {"N": 1}):
        path = tmp_path / "cases.json"
        path.write_text(json.dumps({"trials": [{**CHEAP_CASE, **bad}]}))
        with pytest.raises(ValueError):
            workloads.load_escalation_cases(path)


def test_committed_staircase_seeds_are_valid_and_pick_by_seed(tmp_path):
    committed = json.loads(workloads.STAIRCASE_SEEDS.read_text())
    pool = workloads.load_staircase_seeds()
    assert pool == sorted(set(pool)) and not set(map(str, pool)) & set(committed["dropped"])
    assert workloads.staircase(len(pool)).trials_per_pass == 540
    for bad in ([], [-1], [1.5]):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps({"seeds": bad}))
        with pytest.raises(ValueError):
            workloads.load_staircase_seeds(path)


def test_staircase_derivation_drops_escalating_bases(monkeypatch):
    # base seed 4098 reproduces CHEAP_CASE, which escalates; 4097 does not
    def one_trial(base):
        return [harness.GridSpec(n_values=(3,), m_values=(2,), N_values=(3,), p1_values=(2,),
                                 p2_offsets=(2,), taus=(3,), trials_per_cell=1,
                                 base_seed=base)]
    monkeypatch.setattr(workloads, "staircase_specs", one_trial)
    out = derive.derive_staircase(4097, 2)
    assert out["seeds"] == [4097] and out["dropped"] == {"4098": 1}


def test_escalation_digest_ignores_the_seeded_order(tmp_path):
    assert workloads.escalation(1).trials_per_pass == 7
    other = {**CHEAP_CASE, "tau": 1}
    forward = workloads.trial_pass([CHEAP_CASE, other])(tmp_path)
    backward = workloads.trial_pass([other, CHEAP_CASE])(tmp_path)
    assert forward.digest == backward.digest


def test_tail_needs_ten_trials_beyond():
    assert measure.tail(list(range(10))) is None
    p, value, beyond = measure.tail([float(i) for i in range(1000)])
    assert (p, beyond) == (99.0, 10) and value == 989.0
    assert measure.tail([1.0] * 20)[0] == 50.0


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(env.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "staircase",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
