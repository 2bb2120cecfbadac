import json

import pytest

from gpsimlab.cli import (
    CONFIG_ENV_VAR,
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    main,
)
from gpsimlab.reports import write_json


def run(*argv):
    return main(list(argv))


class TestPlan:
    def test_writes_artifacts_with_golden_numbers(self, tmp_path):
        out = tmp_path / "out"
        assert run("plan", "--out", str(out)) == EXIT_OK
        for name in ("plan.json", "plan.txt", "reception_curve.csv", "blockage_curve.csv"):
            assert (out / name).exists(), name
        payload = json.loads((out / "plan.json").read_text())
        derived = payload["derived"]
        assert derived["min_coverage_radius_m"] == pytest.approx(76.39, abs=0.05)
        assert derived["max_separation_m"] == 880.0
        assert derived["slow_path_speed_bound_kmh"] == pytest.approx(19.2, abs=0.05)
        assert derived["radius_floor_separation_m"] == pytest.approx(45.45, abs=0.05)
        assert payload["update_check"]["ok"] is True
        assert payload["layout_report"]["ok"] is True

    def test_infeasible_deployment_exits_one(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # 12 m coverage crossed at 200 km/h: no fix can complete
        cfg.write_text(json.dumps({"deployment": {"radius_m": 12.0, "separation_m": 400.0, "max_speed_kmh": 200.0}}))
        assert run("plan", "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_INFEASIBLE

    def test_bad_config_exits_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"deployment": {"radius_km": 0.08}}))
        assert run("plan", "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_CONFIG

    def test_env_var_supplies_config(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"deployment": {"radius_m": 100.0}}))
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        out = tmp_path / "out"
        assert run("plan", "--out", str(out)) == EXIT_OK
        payload = json.loads((out / "plan.json").read_text())
        assert payload["inputs"]["radius_m"] == 100.0
        assert payload["derived"]["max_separation_m"] == 1100.0

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        env_cfg = tmp_path / "env.json"
        env_cfg.write_text(json.dumps({"deployment": {"radius_m": 100.0}}))
        flag_cfg = tmp_path / "flag.json"
        flag_cfg.write_text(json.dumps({"deployment": {"radius_m": 90.0}}))
        monkeypatch.setenv(CONFIG_ENV_VAR, str(env_cfg))
        out = tmp_path / "out"
        assert run("plan", "--config", str(flag_cfg), "--out", str(out)) == EXIT_OK
        payload = json.loads((out / "plan.json").read_text())
        assert payload["inputs"]["radius_m"] == 90.0

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("plan", "--out", str(a)) == EXIT_OK
        assert run("plan", "--out", str(b)) == EXIT_OK
        for name in ("plan.json", "plan.txt", "reception_curve.csv", "blockage_curve.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestSimulate:
    def test_static_matrix(self, tmp_path):
        out = tmp_path / "out"
        assert run("simulate", "--scenario", "static", "--trials", "3", "--out", str(out)) == EXIT_OK
        payload = json.loads((out / "handover_matrix.json").read_text())
        assert payload["trials"] == 3
        assert [c["label"] for c in payload["cells"]] == [
            "public/raw",
            "public/calibrated",
            "private/raw",
            "private/calibrated",
        ]
        assert payload["ordering_ok_every_trial"] is True

    def test_static_single_clock_writes_fixes(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            "simulate", "--scenario", "static", "--clock", "private/calibrated", "--out", str(out)
        )
        assert code == EXIT_OK
        fixes = (out / "handover_fixes.csv").read_text().splitlines()
        assert fixes[0] == "t_s,x_m,y_m,z_m,clock_bias_s,source,coverage"
        assert len(fixes) > 100
        transitions = (out / "handover_transitions.csv").read_text().splitlines()
        assert transitions[0] == "t_s,mode,signal,offset_ms,coverage"

    def test_driving_matrix(self, tmp_path):
        out = tmp_path / "out"
        assert run("simulate", "--scenario", "driving", "--trials", "2", "--out", str(out)) == EXIT_OK
        payload = json.loads((out / "traversal_matrix.json").read_text())
        assert [c["label"] for c in payload["cells"]] == [
            "public/raw",
            "private/raw",
            "private/calibrated",
        ]
        assert all(c["handover_success_all"] for c in payload["cells"])

    def test_pedestrian_run(self, tmp_path):
        out = tmp_path / "out"
        assert run("simulate", "--scenario", "pedestrian", "--out", str(out)) == EXIT_OK
        payload = json.loads((out / "pedestrian.json").read_text())
        assert set(payload["handover_success"].values()) == {True}
        for latency in payload["first_fix_latency_s"].values():
            assert 3.5 <= latency <= 4.5

    def test_outdoor_comparison(self, tmp_path):
        out = tmp_path / "out"
        assert run("simulate", "--scenario", "outdoor", "--out", str(out)) == EXIT_OK
        payload = json.loads((out / "outdoor.json").read_text())
        assert payload["fit_for_outdoor_use"] is True
        assert payload["simulated"]["avg_m"] <= payload["threshold_m"]

    def test_strict_budget_failure(self, tmp_path):
        # public/raw clock errors sit way outside a 5 ms budget
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budget": {"limit_ms": 5.0}}))
        out = tmp_path / "out"
        code = run(
            "simulate", "--scenario", "static", "--clock", "public/raw",
            "--config", str(cfg), "--strict", "--out", str(out),
        )
        assert code == EXIT_INFEASIBLE
        relaxed = run(
            "simulate", "--scenario", "static", "--clock", "public/raw",
            "--config", str(cfg), "--out", str(out),
        )
        assert relaxed == EXIT_OK

    @pytest.mark.parametrize(
        "limit_ms, clock, inside",
        # a ~1.5 ms draw against a 1 ms budget; a ~79 ms draw against 200 ms
        [(1.0, "private/calibrated", False), (200.0, "public/raw", True)],
    )
    def test_within_budget_flag_uses_configured_budget(self, tmp_path, limit_ms, clock, inside):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budget": {"limit_ms": limit_ms}}))
        out = tmp_path / "out"
        code = run(
            "simulate", "--scenario", "static", "--clock", clock,
            "--config", str(cfg), "--strict", "--out", str(out),
        )
        payload = json.loads((out / "handover.json").read_text())
        assert payload["clock"]["0"]["within_budget"] is inside
        assert code == (EXIT_OK if inside else EXIT_INFEASIBLE)

    def test_clock_draw_reads_delay_sample_count(self, tmp_path):
        # the delay walk and the calibration run over delay_model.sample_count
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delay_model": {"sample_count": 10}}))
        argv = ("simulate", "--scenario", "static", "--clock", "private/calibrated")
        assert run(*argv, "--out", str(tmp_path / "default")) == EXIT_OK
        assert run(*argv, "--config", str(cfg), "--out", str(tmp_path / "short")) == EXIT_OK
        default = json.loads((tmp_path / "default" / "handover.json").read_text())
        short = json.loads((tmp_path / "short" / "handover.json").read_text())
        assert short["clock"]["0"]["sim_delay_ms"] != default["clock"]["0"]["sim_delay_ms"]

    def test_traversal_reads_handover_n_sats(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"handover": {"n_sats": 5}}))
        assert run("simulate", "--scenario", "pedestrian", "--out", str(tmp_path / "eight")) == EXIT_OK
        code = run("simulate", "--scenario", "pedestrian", "--config", str(cfg), "--out", str(tmp_path / "five"))
        assert code == EXIT_OK
        eight = (tmp_path / "eight" / "pedestrian.json").read_bytes()
        assert (tmp_path / "five" / "pedestrian.json").read_bytes() != eight

    @pytest.mark.parametrize(
        "flags",
        [
            ["--scenario", "static", "--clock", "private/calibrated", "--trials", "3"],
            ["--scenario", "driving", "--clock", "private/raw", "--trials", "3"],
            ["--scenario", "pedestrian", "--trials", "3"],
            ["--scenario", "outdoor", "--trials", "3"],
            ["--scenario", "outdoor", "--clock", "public/raw"],
        ],
    )
    def test_flags_a_run_would_ignore_are_usage_errors(self, tmp_path, flags):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", *flags, "--out", str(tmp_path)])
        assert excinfo.value.code == EXIT_CONFIG
        assert not list(tmp_path.iterdir())


class TestSweep:
    def test_grid_from_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"sweep": {"min_offset_ms": -100.0, "max_offset_ms": 100.0, "step_ms": 50.0, "trials": 1}})
        )
        out = tmp_path / "out"
        assert run("sweep", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "offset_ms,mean_reacq_s,std_reacq_s,mean_error_m,std_error_m"
        assert len(rows) == 1 + 5

    def test_receiver_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"min_offset_ms": 0.0, "max_offset_ms": 0.0, "step_ms": 50.0, "trials": 1}}))
        out = tmp_path / "out"
        assert run("sweep", "--config", str(cfg), "--receiver", "smartphone", "--out", str(out)) == EXIT_OK
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["receiver"] == "smartphone"
        assert payload["rows"][0]["mean_reacq_s"] == pytest.approx(4.0)


class TestCalibrate:
    def test_synthesizes_and_reports(self, tmp_path):
        out = tmp_path / "out"
        assert run("calibrate", "--out", str(out)) == EXIT_OK
        payload = json.loads((out / "calibration.json").read_text())
        assert payload["sample_count"] == 1800
        assert payload["correction_ms"] == pytest.approx(30.0, abs=2.0)
        assert (out / "delay_samples.csv").exists()

    def test_recalibrates_from_csv(self, tmp_path):
        out = tmp_path / "out"
        assert run("calibrate", "--out", str(out)) == EXIT_OK
        first = json.loads((out / "calibration.json").read_text())
        out2 = tmp_path / "out2"
        code = run(
            "calibrate", "--samples-csv", str(out / "delay_samples.csv"), "--out", str(out2)
        )
        assert code == EXIT_OK
        second = json.loads((out2 / "calibration.json").read_text())
        assert second["correction_ms"] == first["correction_ms"]


class TestSyncCompare:
    def test_csv_columns_and_cells(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sync": {"duration_s": 480.0}}))
        out = tmp_path / "out"
        assert run("sync-compare", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        rows = (out / "sync_compare.csv").read_text().splitlines()
        assert rows[0] == "connection_type,server_type,est_max_ntp_error_ms"
        assert len(rows) == 1 + 4
        payload = json.loads((out / "sync_compare.json").read_text())
        assert all(cell["bound_held"] for cell in payload)

    def test_duration_below_one_poll_exits_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sync": {"duration_s": 10.0}}))
        assert run("sync-compare", "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_CONFIG


class TestConfigInput:
    def test_non_finite_number_exits_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"budget": {"limit_ms": NaN}}')
        code = run(
            "simulate", "--scenario", "static", "--clock", "public/raw",
            "--config", str(cfg), "--out", str(tmp_path / "o"),
        )
        assert code == EXIT_CONFIG


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "gpsimlab" in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--scenario", "submarine"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", [["simulate", "--scenario", "static"], ["sweep"]])
    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_must_be_a_positive_integer(self, tmp_path, command, trials):
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--trials", trials, "--out", str(tmp_path)])
        assert excinfo.value.code == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["calibrate"],
            ["sweep", "--trials", "1"],
            ["simulate", "--scenario", "static", "--trials", "1"],
            ["simulate", "--scenario", "driving", "--trials", "1"],
            ["simulate", "--scenario", "outdoor"],
        ],
        ids=["calibrate", "sweep", "static-matrix", "driving-matrix", "outdoor"],
    )
    def test_strict_rejected_where_no_run_reads_it(self, tmp_path, argv):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--strict", "--out", str(tmp_path)])
        assert excinfo.value.code == EXIT_CONFIG
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flags",
        [["--scenario", "driving", "--clock", "private/calibrated"], ["--scenario", "pedestrian"]],
        ids=["driving-single", "pedestrian"],
    )
    def test_strict_accepted_on_single_traversals(self, tmp_path, flags):
        assert main(["simulate", *flags, "--strict", "--out", str(tmp_path)]) == EXIT_OK

    def test_json_artifacts_refuse_non_finite_numbers(self, tmp_path):
        path = tmp_path / "bad.json"
        with pytest.raises(ValueError):
            write_json(path, {"x": float("nan")})
        assert not path.exists()
