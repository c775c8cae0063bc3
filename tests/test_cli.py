"""Command line front end: subcommands, outputs, exit codes."""
from __future__ import annotations

import json
from dataclasses import replace

import pytest

from multirate_zeros import _exact, blocking, harness, numerics
from multirate_zeros._exact import modp_block
from multirate_zeros.cli import main
from multirate_zeros.harness import CSV_COLUMNS
from multirate_zeros.model import (Dimensions, fixture, random_generic,
                                   save_system)
from multirate_zeros.numerics import normal_ranks

from conftest import EXAMPLE1_DIMS, LONG_HORIZON_DIMS, pencil_count, planted_zero_system


@pytest.fixture()
def example1_file(tmp_path, example1_sys):
    path = tmp_path / "example1.json"
    save_system(example1_sys, path)
    return path


@pytest.fixture()
def grid_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({
        "n": [1], "m": [2], "p1": [1], "N": [2],
        "taus": [1], "trials_per_cell": 2}))
    return path


class TestAnalyze:
    def test_all_delays(self, example1_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(["analyze", "--system", str(example1_file), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["system"]["class"] == "MixedTall"
        assert payload["system"]["n"] == 1 and payload["system"]["N"] == 2
        assert payload["all_agree"] is True
        assert [r["tau"] for r in payload["results"]] == [1, 2]
        first = payload["results"][0]
        assert first["measured"]["normal_rank"] == 6
        assert first["measured"]["mult_at_zero"] == 1
        assert first["measured"]["rank_D"] == 5
        assert first["predicted"]["normal_rank"] == 6
        assert all(first["agreement"].values())
        assert "timestamp" in payload and "tool_version" in payload

    def test_single_delay(self, example1_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(["analyze", "--system", str(example1_file),
                     "--tau", "2", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert [r["tau"] for r in payload["results"]] == [2]

    def test_delay_out_of_range(self, example1_file, tmp_path, capsys):
        code = main(["analyze", "--system", str(example1_file),
                     "--tau", "9", "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_system_file(self, tmp_path, capsys):
        code = main(["analyze", "--system", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_system_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        code = main(["analyze", "--system", str(bad),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["5", "null", '"abc"', "[1, 2]"])
    def test_system_file_that_is_not_an_object(self, text, tmp_path, capsys):
        # valid JSON of the wrong kind is bad input (2), not a disagreement (1)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = main(["analyze", "--system", str(bad), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "system must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["n", "m", "p1", "p2", "N"])
    def test_bool_dimension_names_field(self, field, example1_file, tmp_path, capsys):
        # JSON true is a Python int subclass; it is not a dimension
        data = json.loads(example1_file.read_text())
        data[field] = True
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps(data))
        code = main(["analyze", "--system", str(bad), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert f"field {field!r} must be an integer" in capsys.readouterr().err

    def test_unknown_system_field_names_it(self, example1_file, tmp_path, capsys):
        data = json.loads(example1_file.read_text())
        data["Dt"] = [[0.0]]
        bad = tmp_path / "extra.json"
        bad.write_text(json.dumps(data))
        code = main(["analyze", "--system", str(bad), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "unknown system field 'Dt'" in capsys.readouterr().err

    # A**2 overflows: every float reading would be 0, and the zero search
    # would not run, yet the exact ranks would report zero-freeness
    def test_overflowing_system_is_refused(self, example1_file, tmp_path, capsys, recwarn):
        data = json.loads(example1_file.read_text())
        data["A"] = [[1e200]]
        bad = tmp_path / "overflow.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        code = main(["analyze", "--system", str(bad), "--out", str(out)])
        assert code == 2
        assert "blocked matrices overflow" in capsys.readouterr().err
        assert not out.exists()
        # numpy's overflow warning does not reach stderr ahead of the refusal
        assert [w for w in recwarn if issubclass(w.category, RuntimeWarning)] == []

    def test_unknown_policy_field(self, example1_file, tmp_path, capsys):
        pol = tmp_path / "policy.json"
        pol.write_text(json.dumps({"bogus_knob": 1}))
        code = main(["analyze", "--system", str(example1_file),
                     "--policy", str(pol), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "policy" in capsys.readouterr().err

    def test_retired_resample_limit_is_an_unknown_policy_field(self, example1_file, tmp_path,
                                                                capsys):
        pol = tmp_path / "policy.json"
        pol.write_text(json.dumps({"resample_limit": 5}))
        code = main(["analyze", "--system", str(example1_file),
                     "--policy", str(pol), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "unknown policy field 'resample_limit'" in capsys.readouterr().err

    def test_policy_that_leaves_no_room_for_a_zero_is_refused(self, tmp_path, capsys):
        # the planted zero at 1/9 is reported under the default policy; with
        # zero_radius 0.5 and cluster_tol 2.0 no point could be listed
        sys_path = tmp_path / "planted.json"
        save_system(planted_zero_system(6), sys_path)
        pol = tmp_path / "policy.json"
        pol.write_text(json.dumps({"zero_radius": 0.5, "cluster_tol": 2.0}))
        out = tmp_path / "r.json"
        code = main(["analyze", "--system", str(sys_path), "--policy", str(pol),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "zero_radius" in err and "cluster_tol" in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [{"rel_rank_tol": "x"}, {"normal_rank_samples": 7.5},
                                     {"rel_rank_tol": 1e-17}])
    def test_mistyped_policy_value_names_field(self, bad, example1_file, tmp_path, capsys):
        pol = tmp_path / "policy.json"
        pol.write_text(json.dumps(bad))
        code = main(["analyze", "--system", str(example1_file),
                     "--policy", str(pol), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert next(iter(bad)) in capsys.readouterr().err

    def test_blunt_tolerance_reports_disagreement(self, example1_file, tmp_path):
        # a rank threshold of 0.5 swallows genuine singular values, so every
        # float rank reads 0, below the generic predictions; exact
        # arbitration settles each reading, and the report keeps the float
        # disagreement under "screen" rather than hiding it
        pol = tmp_path / "policy.json"
        pol.write_text(json.dumps({"rel_rank_tol": 0.5}))
        out = tmp_path / "report.json"
        code = main(["analyze", "--system", str(example1_file),
                     "--policy", str(pol), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["all_agree"] is True
        for result in payload["results"]:
            measured = result["measured"]
            assert measured["screen"]["normal_rank"] == 0
            assert measured["screen"]["rank_D"] == 0
            assert measured["normal_rank"] == result["predicted"]["normal_rank"] == 6
            assert measured["rank_D"] == result["predicted"]["rank_D"]

    def test_every_delay_is_settled_from_one_assembly(self, example1_file, tmp_path,
                                                      monkeypatch):
        # every float reading at both delays falls short; one mod-P
        # assembly of the delays to re-read, here all N, serves every re-read
        pol = tmp_path / "policy.json"
        pol.write_text(json.dumps({"rel_rank_tol": 0.5}))
        assembled = []

        def counting(sys_, taus):
            assembled.append(list(taus))
            return modp_block(sys_, taus)

        monkeypatch.setattr(_exact, "modp_block", counting)
        out = tmp_path / "report.json"
        assert main(["analyze", "--system", str(example1_file), "--policy", str(pol),
                     "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["results"]) == EXAMPLE1_DIMS.N == 2
        assert assembled == [[1, 2]]

    def test_genuine_rank_drop_reports_disagreement(self, example1_sys, tmp_path):
        # with no feedthrough, rank(D_tau) is exactly below its generic
        # value: arbitration confirms the drop and the exit code reports it
        sys_path = tmp_path / "no_feedthrough.json"
        save_system(replace(example1_sys, Df=0 * example1_sys.Df,
                            Ds=0 * example1_sys.Ds), sys_path)
        out = tmp_path / "report.json"
        code = main(["analyze", "--system", str(sys_path), "--tau", "1", "--out", str(out)])
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["all_agree"] is False
        result = payload["results"][0]
        assert result["agreement"]["rank_D"] is False
        assert "screen" not in result["measured"]  # every float reading stood

    def test_replay_trial_is_settled_exactly(self, tmp_path):
        # the float normal rank reads 35 against a generic 36 on this draw;
        # run_trial settles the same readings to 36 and 3 (see test_exact)
        sys_path = tmp_path / "replay.json"
        save_system(random_generic(LONG_HORIZON_DIMS, 106065), sys_path)
        out = tmp_path / "report.json"
        code = main(["analyze", "--system", str(sys_path), "--tau", "7", "--out", str(out)])
        assert code == 0
        measured = json.loads(out.read_text())["results"][0]["measured"]
        assert measured["normal_rank"] == 36
        assert measured["mult_at_infinity"] == 3
        assert measured["screen"] == {"normal_rank": 35, "mult_at_infinity": 2,
                                      "rank_at_zero": 35}

    def test_planted_finite_zero_agrees_with_run_trial(self, tmp_path, monkeypatch):
        # the genuine zero at 1/9 is listed at every delay as a float
        # reading, and no_finite_nonzero reads as run_trial reads it
        sys_ = planted_zero_system(6)
        sys_path = tmp_path / "planted.json"
        save_system(sys_, sys_path)
        out = tmp_path / "report.json"
        assert main(["analyze", "--system", str(sys_path), "--tau", "all",
                     "--out", str(out)]) == 1
        results = json.loads(out.read_text())["results"]
        assert [r["tau"] for r in results] == [1, 2]
        monkeypatch.setattr(harness, "random_generic", lambda dims, seed: sys_)
        for result in results:
            (zero,) = result["measured"]["finite_nonzero_zeros"]
            assert zero["multiplicity"] == 1
            assert zero["location"] == pytest.approx({"re": 1 / 9, "im": 0.0}, abs=1e-9)
            rec = harness.run_trial(sys_.dims, result["tau"], seed=0)
            assert result["agreement"]["no_finite_nonzero"] is False
            assert result["agreement"] == {k: rec.agreement[k] for k in result["agreement"]}

    def test_bounded_sweep_leaves_the_report_unchanged(self, example1_file, tmp_path,
                                                       monkeypatch):
        # the predicted normal rank stops the normal-rank sweep early; the
        # payload must be the one the unbounded sweep gives
        bounds = []

        def bounded(pencils, policy, seed, bound, first):
            bounds.append(bound)
            return normal_ranks(pencils, policy, seed, bound, first)

        payloads = []
        for sweep in (bounded, lambda pencils, policy, seed, bound, first: normal_ranks(
                pencils, policy, seed)):
            monkeypatch.setattr(harness, "normal_ranks", sweep)
            out = tmp_path / f"report{len(payloads)}.json"
            assert main(["analyze", "--system", str(example1_file), "--out", str(out)]) == 0
            payloads.append(json.loads(out.read_text()))
            del payloads[-1]["timestamp"]
        assert bounds == [6]
        assert payloads[0] == payloads[1]

    def test_every_delay_is_read_from_one_assembly_and_one_sweep(self, tmp_path,
                                                                 monkeypatch):
        # --tau all at N = 8: one assembly of all N blocked systems, none of
        # a single delay, one stack of their N pencils, which the zero search
        # reads too, and one stacked normal-rank sweep over it
        assembled, sweeps, pencils = [], [], []
        assemble, stacked = blocking._assemble, numerics.normal_ranks

        def counting_assembly(d, taus, *args, **kwargs):
            assembled.append(list(taus))
            return assemble(d, assembled[-1], *args, **kwargs)

        def counting_sweep(pencils, *args, **kwargs):
            sweeps.append(pencil_count(pencils))
            return stacked(pencils, *args, **kwargs)

        monkeypatch.setattr(blocking, "_assemble", counting_assembly)
        for module in (numerics, harness):     # normal_rank sweeps through numerics'
            monkeypatch.setattr(module, "normal_ranks", counting_sweep)
        monkeypatch.setattr(harness, "system_pencil", lambda blocks: pencils.append(
            len(blocks.tau)) or blocking.system_pencil(blocks))
        sys_path = tmp_path / "long.json"
        save_system(random_generic(LONG_HORIZON_DIMS, 3), sys_path)
        out = tmp_path / "report.json"
        assert main(["analyze", "--system", str(sys_path), "--tau", "all",
                     "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["results"]) == LONG_HORIZON_DIMS.N
        assert assembled == [list(range(1, LONG_HORIZON_DIMS.N + 1))]
        assert sweeps == [LONG_HORIZON_DIMS.N]
        assert pencils == [LONG_HORIZON_DIMS.N]

    def test_not_tall_system_measures_without_predictions(self, tmp_path):
        sys_path = tmp_path / "square.json"
        save_system(random_generic(Dimensions(1, 2, 1, 2, 2), seed=0), sys_path)
        out = tmp_path / "report.json"
        code = main(["analyze", "--system", str(sys_path), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["system"]["class"] == "NotTall"
        for result in payload["results"]:
            assert result["predicted"] is None
            assert result["agreement"] is None
            assert result["measured"]["normal_rank"] >= 0

    def test_unwritable_output(self, example1_file, tmp_path, capsys):
        code = main(["analyze", "--system", str(example1_file),
                     "--out", str(tmp_path / "missing" / "r.json")])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_non_integer_tau_is_usage_error(self, example1_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--system", str(example1_file),
                  "--tau", "first", "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        assert "tau" in capsys.readouterr().err


class TestVerify:
    def test_json_output(self, grid_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--grid", str(grid_file), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["suite"] == "grid"
        assert payload["total_trials"] == 2
        assert payload["all_agree"] is True

    def test_csv_output_and_seed_override(self, grid_file, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["verify", "--grid", str(grid_file),
                     "--seeds", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 3

    def test_nonpositive_seed_override(self, grid_file, tmp_path, capsys):
        code = main(["verify", "--grid", str(grid_file),
                     "--seeds", "0", "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "--seeds" in capsys.readouterr().err

    def test_bad_grid_field(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"n": [1], "m": [1], "N": [2], "rows": [1]}))
        code = main(["verify", "--grid", str(grid), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "rows" in capsys.readouterr().err

    @pytest.mark.parametrize("extra,field", [
        ({"policy": {"rel_rank_tol": "x"}}, "rel_rank_tol"),
        ({"policy": [1]}, "policy"),
        ({"policy": {"normal_rank_samples": 7.5}}, "normal_rank_samples"),
        ({"trials_per_cell": 1.7}, "trials_per_cell"),
        ({"trials_per_cell": "2"}, "trials_per_cell"),
        ({"base_seed": -3}, "base_seed"),
        ({"taus": [9]}, "taus"),
        ({"p1": []}, "p1"),
        ({"p2_offsets": []}, "p2_offsets"),
        ({"policy": {"rel_rank_tol": 1e-17}}, "rel_rank_tol"),
    ])
    def test_bad_grid_value_names_field(self, extra, field, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"n": [1], "m": [2], "N": [2], **extra}))
        code = main(["verify", "--grid", str(grid), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert field in capsys.readouterr().err

    def test_missing_grid_file(self, tmp_path, capsys):
        code = main(["verify", "--grid", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestFixtures:
    def test_runs_green(self, tmp_path):
        out = tmp_path / "fixtures.json"
        code = main(["fixtures", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["suite"] == "fixtures"
        assert payload["all_agree"] is True
        assert payload["total_trials"] > 0


class TestTable:
    def test_extreme_delay_pattern(self, tmp_path):
        out = tmp_path / "table.txt"
        dims = LONG_HORIZON_DIMS
        code = main(["table", "--dims",
                     f"{dims.n},{dims.m},{dims.p1},{dims.p2},{dims.N}",
                     "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "MixedTall" in text
        lines = text.splitlines()
        rows = lines[-dims.N:]
        assert [row.split()[0] for row in rows] == [str(t) for t in range(1, 9)]
        assert "Yes (5)" in rows[0]      # five zeros at the origin at tau=1
        assert "Yes (5)" in rows[-1]     # five zeros at infinity at tau=8
        assert rows[3].split()[2:] == ["No", "No", "No"]  # tau=4 is zero free

    # the finite_nonzero, at_origin and at_infinity cells of the tau = 1 row
    @pytest.mark.parametrize("dims,cells", [
        (Dimensions(2, 1, 2, 1, 3), ["No", "No", "No"]),        # fast tall
        (LONG_HORIZON_DIMS, ["No", "Yes (5)", "No"]),            # origin heavy
        (Dimensions(3, 2, 2, 1, 2), ["No", "No", "No"]),        # square rate
    ])
    def test_first_row(self, tmp_path, dims, cells):
        out = tmp_path / "table.txt"
        assert main(["table", "--dims", f"{dims.n},{dims.m},{dims.p1},{dims.p2},{dims.N}",
                     "--out", str(out)]) == 0
        row = out.read_text().splitlines()[-dims.N]
        # the columns are right-aligned in widths 5, 8, 16, 12 and 13
        assert [row[a:b].strip() for a, b in ((13, 29), (29, 41), (41, 54))] == cells

    def test_not_tall_dims_rejected(self, tmp_path, capsys):
        code = main(["table", "--dims", "1,2,1,2,2",
                     "--out", str(tmp_path / "t.txt")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_dims_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--dims", "1,2,3", "--out", str(tmp_path / "t.txt")])
        assert exc.value.code == 2
        assert "dims" in capsys.readouterr().err

    def test_nonpositive_dims_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--dims", "0,1,1,1,2", "--out", str(tmp_path / "t.txt")])
        assert exc.value.code == 2


class TestParser:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        capsys.readouterr()
