import csv
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gpsimlab import cli
from gpsimlab.calibration import import_samples_csv
from gpsimlab.cli import (
    CONFIG_ENV_VAR,
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_RUNTIME,
    _load,
    build_parser,
    main,
)
from gpsimlab import scenarios as sc
from gpsimlab.config import (
    MAX_MATRIX_STEPS,
    MAX_TIMELINE_STEPS,
    MAX_TRIAL_RUNS,
    Config,
    DeploymentConfig,
    HandoverConfig,
    SweepConfig,
    config_from_dict,
)
from gpsimlab.placement import WARM, blockage_time, kmh_to_ms, reception_time, validate_deployment
from gpsimlab.receiver import PROFILES
from gpsimlab.reports import write_json


def run(*argv):
    return main(list(argv))


# config files that do not read as a JSON object of schema values: the bytes
# each holds, or None for a directory
UNREADABLE_CONFIGS = {
    "directory": None,
    "non-utf8": b'{"deployment": {"receiver": "\xff"}}',
    "400-digit-float": b'{"deployment": {"radius_m": 1' + b"0" * 399 + b"}}",
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
}


def write_unreadable_config(directory, kind):
    path = directory / f"{kind}.json"
    if UNREADABLE_CONFIGS[kind] is None:
        path.mkdir()
    else:
        path.write_bytes(UNREADABLE_CONFIGS[kind])
    return path


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
        assert payload.keys() == {"inputs", "derived", "layout_report"}
        assert payload["layout_report"]["ok"] is True

    def test_infeasible_deployment_exits_one(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # 12 m coverage crossed at 200 km/h: no fix can complete
        cfg.write_text(json.dumps({"deployment": {"radius_m": 12.0, "separation_m": 400.0, "max_speed_kmh": 200.0}}))
        assert run("plan", "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_INFEASIBLE

    @pytest.mark.parametrize(
        "key, value",
        [
            ("max_speed_kmh", 5e-324),  # 0 m/s
            ("max_speed_kmh", 1e-320),
            ("max_speed_kmh", 1e308),
            ("separation_m", 1e308),
        ],
    )
    def test_derived_values_out_of_float_range_exit_two(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"deployment": {key: value}}))
        out = tmp_path / "o"
        assert run("plan", "--config", str(cfg), "--out", str(out)) == EXIT_CONFIG
        assert f"deployment.{key}" in capsys.readouterr().err
        assert not out.exists()

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

    def test_strict_fails_a_layout_that_resumes_cold(self, tmp_path):
        # 5000 m gaps walked at 5 km/h outlast t_max; the 80 m coverages are
        # still slow enough to acquire cold, which only --strict refuses
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"deployment": {"separation_m": 5000.0, "max_speed_kmh": 5.0}}))
        lax, strict = tmp_path / "lax", tmp_path / "strict"
        assert run("plan", "--config", str(cfg), "--out", str(lax)) == EXIT_OK
        assert run("plan", "--config", str(cfg), "--strict", "--out", str(strict)) == EXIT_INFEASIBLE
        assert (lax / "plan.json").read_bytes() == (strict / "plan.json").read_bytes()
        assert run("plan", "--strict", "--out", str(tmp_path / "default")) == EXIT_OK

    def test_gap_of_exactly_t_max_is_judged_alike_throughout(self, tmp_path):
        # crossing this gap takes t_max = 135 s to the last bit, which an
        # inclusive boundary counts as feasible in every part of plan.json
        cfg = tmp_path / "cfg.json"
        deployment = {
            "radius_m": 149.13509104049035,
            "separation_m": 3690.097253066939,
            "max_speed_kmh": 90.44872189295889,
        }
        cfg.write_text(json.dumps({"deployment": deployment}))
        out = tmp_path / "out"
        assert run("plan", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        payload = json.loads((out / "plan.json").read_text())
        assert payload["derived"]["blockage_time_s"] == payload["inputs"]["t_max_s"]
        report = payload["layout_report"]
        assert report["ok"] is True
        assert report["gap_path"] == WARM
        assert "within t_max" in report["gap"]

    @staticmethod
    def _curves(out):
        """Each curve's flag column keyed by its first column, as floats."""
        curves = []
        for name, flag in (("reception_curve.csv", "reacq_fits"), ("blockage_curve.csv", "within_t_max")):
            with open(out / name, newline="") as fh:
                curves.append({float(row[next(iter(row))]): row[flag] for row in csv.DictReader(fh)})
        return curves

    @pytest.mark.parametrize(
        "deployment",
        [{"max_speed_kmh": 14.4}, {"max_speed_kmh": 28.8}, {"separation_m": 5000.0, "max_speed_kmh": 5.0}, {}],
        ids=["4-m-per-s", "8-m-per-s", "cold-gap", "default"],
    )
    @pytest.mark.parametrize("receiver", ["dedicated", "smartphone"])
    def test_curve_columns_and_strict_exit_read_the_layout_verdict(self, tmp_path, deployment, receiver):
        deployment = {**deployment, "receiver": receiver}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"deployment": deployment}))
        dep = config_from_dict({"deployment": deployment}).deployment
        v, timing = kmh_to_ms(dep.max_speed_kmh), PROFILES[receiver]
        report = validate_deployment(dep.radius_m, dep.separation_m, v, timing)
        out = tmp_path / "out"
        assert run("plan", "--config", str(cfg), "--out", str(out)) == (EXIT_OK if report.ok else EXIT_INFEASIBLE)
        strict_ok = report.ok and report.gap_path == WARM
        strict_code = run("plan", "--config", str(cfg), "--strict", "--out", str(tmp_path / "strict"))
        assert strict_code == (EXIT_OK if strict_ok else EXIT_INFEASIBLE)

        reception, blockage = self._curves(out)
        for r, fits in reception.items():
            # touching coverages, whose gap of zero length cannot fail the layout
            assert fits == str(validate_deployment(r, 2.0 * r, v, timing).crossing_ok), r
        for d, within in blockage.items():
            assert within == str(validate_deployment(dep.radius_m, d, v, timing).gap_path == WARM), d

    def test_curve_boundaries_are_inclusive(self, tmp_path):
        timing = PROFILES["dedicated"]
        curves = {}
        for speed_kmh in (14.4, 28.8):
            cfg = tmp_path / f"{speed_kmh}.json"
            cfg.write_text(json.dumps({"deployment": {"max_speed_kmh": speed_kmh}}))
            assert run("plan", "--config", str(cfg), "--out", str(tmp_path / str(speed_kmh))) == EXIT_OK
            curves[speed_kmh] = self._curves(tmp_path / str(speed_kmh))
        # 4 m/s: a 10 m radius is crossed in exactly t_reacq and a 700 m separation's gap in exactly t_max
        assert reception_time(10.0, kmh_to_ms(14.4)) == timing.t_reacq_s
        assert blockage_time(700.0, 80.0, kmh_to_ms(14.4)) == timing.t_max_s
        reception, blockage = curves[14.4]
        assert reception[10.0] == "True"
        assert (blockage[680.0], blockage[700.0], blockage[720.0]) == ("True", "True", "False")
        # 8 m/s: a 20 m radius is crossed in exactly t_reacq
        assert reception_time(20.0, kmh_to_ms(28.8)) == timing.t_reacq_s
        reception, _ = curves[28.8]
        assert (reception[15.0], reception[20.0]) == ("False", "True")

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

    def test_driving_matrix_reads_handover_trials(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"handover": {"trials": 1}}))
        out = tmp_path / "out"
        assert run("simulate", "--scenario", "driving", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        assert json.loads((out / "traversal_matrix.json").read_text())["trials"] == 1

    def test_driving_crosses_the_configured_deployment(self, tmp_path):
        # the smartphone's 4 s base reacquisition, not the timing receiver's 0.4 s
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"deployment": {"receiver": "smartphone"}}))
        argv = ("simulate", "--scenario", "driving", "--clock", "private/calibrated")
        assert run(*argv, "--out", str(tmp_path / "default")) == EXIT_OK
        assert run(*argv, "--config", str(cfg), "--out", str(tmp_path / "phone")) == EXIT_OK
        default = json.loads((tmp_path / "default" / "driving.json").read_text())
        phone = json.loads((tmp_path / "phone" / "driving.json").read_text())
        assert max(default["first_fix_latency_s"].values()) < 1.0
        assert min(phone["first_fix_latency_s"].values()) > 3.9

    @pytest.mark.parametrize(
        "scenario, config",
        [
            # a simulator window shorter than half a step
            ("static", {"handover": {"sim_s": 0.01}}),
            # one step carries the receiver past the whole corridor
            ("driving", {"deployment": {"max_speed_kmh": 1e5}}),
            # a blockage past t_max: the cold acquisition outlasts the 20 s simulator window
            ("static", {"handover": {"blocked_s": 140.0}}),
            # coverages of 1 m radius, crossed in a step or two at 110 km/h
            ("driving", {"deployment": {"radius_m": 1.0}}),
        ],
    )
    def test_matrix_without_fixes_exits_one(self, tmp_path, capsys, scenario, config):
        # both matrices' trial loop names the first configuration of a trial that made no fix
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ("simulate", "--scenario", scenario, "--trials", "1", "--config", str(cfg))
        assert run(*argv, "--out", str(tmp_path / "o")) == EXIT_INFEASIBLE
        assert capsys.readouterr().err == "scenario failed: no in-coverage fixes for public/raw in trial 0\n"

    @pytest.mark.parametrize(
        "key, value",
        [
            ("max_speed_kmh", 1e-3),  # ~7e7 steps
            ("max_speed_kmh", 1e-320),
            ("max_speed_kmh", 5e-324),  # 0 m/s
            ("max_speed_kmh", 1e-323),  # 5e-324 m/s, whose step of DT_S rounds to 0 m
            ("separation_m", 1e308),  # a corridor of infinite length
        ],
    )
    @pytest.mark.parametrize("clock", ["private/calibrated", "all"])
    def test_traversal_above_the_step_cap_exits_two(self, tmp_path, capsys, key, value, clock):
        # refused before the path is stepped
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"deployment": {key: value}}))
        argv = ("simulate", "--scenario", "driving", "--clock", clock, "--config", str(cfg))
        assert run(*argv, "--out", str(tmp_path / "o")) == EXIT_CONFIG
        assert f"deployment.{key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", [1e12, 1e308])
    @pytest.mark.parametrize("key", ["live_s", "blocked_s", "sim_s"])
    @pytest.mark.parametrize("clock", ["private/calibrated", "all"])
    def test_static_handover_above_the_step_cap_exits_two(self, tmp_path, capsys, key, value, clock):
        # refused before the timeline is sized or any draw is made
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"handover": {key: value}}))
        argv = ("simulate", "--scenario", "static", "--clock", clock, "--config", str(cfg))
        assert run(*argv, "--out", str(tmp_path / "o")) == EXIT_CONFIG
        assert f"handover.{key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "config, flags",
        [
            # pseudoranges so far off that every sight line points the same way
            ({"handover": {"pr_noise_m": 1e12}}, ("--clock", "private/calibrated")),
            ({"handover": {"pr_noise_m": 1e12}}, ("--trials", "1")),
            # a delay walk that throws the transmit clock days off
            ({"delay_model": {"wander_sigma_ms": 1e12}}, ("--clock", "private/calibrated")),
        ],
    )
    def test_solver_failure_exits_one(self, tmp_path, capsys, config, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ("simulate", "--scenario", "static", *flags, "--config", str(cfg))
        assert run(*argv, "--out", str(tmp_path / "o")) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith("scenario failed: ") and "Error" not in err

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


class TestTimeAxis:
    """Every time an artifact holds is a whole number of DT_S steps, written as its shortest decimal."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--scenario", "static", "--clock", "private/calibrated"),
            ("simulate", "--scenario", "driving", "--clock", "private/calibrated"),
            ("simulate", "--scenario", "pedestrian"),
            ("sweep",),
        ],
        ids=["static", "driving", "pedestrian", "sweep"],
    )
    def test_times_are_tenths_of_a_second(self, tmp_path, argv):
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == EXIT_OK
        cells = []
        for path in sorted(out.glob("*_fixes.csv")) + sorted(out.glob("*_transitions.csv")):
            with open(path, newline="") as fh:
                cells += [row["t_s"] for row in csv.DictReader(fh)]
        for path in sorted(out.glob("*.json")):
            payload = json.loads(path.read_text())
            cells += [repr(v) for v in payload.get("first_fix_latency_s", {}).values()]
            cells += [repr(row["mean_reacq_s"]) for row in payload.get("rows", [])]
        if argv[0] == "sweep":
            with open(out / "sweep.csv", newline="") as fh:
                cells += [row["mean_reacq_s"] for row in csv.DictReader(fh)]
        assert len(cells) > 10
        for cell in cells:
            # the repr of k / 10, as one division of whole numbers writes it
            assert cell == repr(round(float(cell) * 10) / 10), cell


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


    @pytest.mark.parametrize(
        "key, accepted, rejected",
        [("noise_sigma_ms", 1e145, 1e146), ("wander_sigma_ms", 1e143, 1e144)],
    )
    def test_delay_spread_overflowing_squared_nanoseconds_exits_two(
        self, tmp_path, capsys, key, accepted, rejected
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delay_model": {key: accepted}}))
        assert run("calibrate", "--config", str(cfg), "--out", str(tmp_path / "a")) == EXIT_OK
        for value in (rejected, 1e300):
            cfg.write_text(json.dumps({"delay_model": {key: value}}))
            assert run("calibrate", "--config", str(cfg), "--out", str(tmp_path / "r")) == EXIT_CONFIG
            assert f"delay_model.{key}" in capsys.readouterr().err

    HEADER = "timestamp_s,delay_ms\n"

    @pytest.mark.parametrize(
        "text, named",
        [
            (None, "No such file"),
            ("time,delay\n0.0,30.0\n", "expected header"),
            (HEADER + "0.0,30.0\n1.0\n", "line 3"),
            (HEADER + "0.0,abc\n", "line 2"),
            (HEADER + "0.0,30.0\n1.0,nan\n", "line 3"),
            (HEADER + "0.0,inf\n", "line 2"),
            (HEADER + "0.0,1e300\n1.0,-1e300\n", "line 2"),
            (HEADER + "0.0,30.0\n1.0,-1e300\n", "line 3"),
            (HEADER, "no delay samples"),
            (HEADER + "abc,30.0\n", "line 2"),
            (HEADER + "0.0,30.0\n,31.0\n", "line 3"),
        ],
        ids=[
            "missing", "header", "one-column", "abc", "nan", "inf", "1e300", "-1e300", "header-only",
            "timestamp-abc", "timestamp-empty",
        ],
    )
    def test_bad_samples_csv_exits_two(self, tmp_path, capsys, text, named):
        path = tmp_path / "samples.csv"
        if text is not None:
            path.write_text(text)
        code = run("calibrate", "--samples-csv", str(path), "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        assert named in capsys.readouterr().err

    def test_samples_csv_just_inside_the_square_bound_calibrates(self, tmp_path):
        # 2 samples at ±6e144 ms: 2·(2·6e150 ns)² ≈ 2.9e302 stays finite
        path = tmp_path / "samples.csv"
        path.write_text(self.HEADER + "0.0,6e144\n1.0,-6e144\n")
        assert run("calibrate", "--samples-csv", str(path), "--out", str(tmp_path / "o")) == EXIT_OK

    @pytest.mark.parametrize(
        "text",
        [None, "time,delay\n0.0,30.0\n", HEADER + "0.0,abc\n", HEADER],
        ids=["missing", "header", "abc", "header-only"],
    )
    def test_refused_samples_csv_leaves_no_out_directory(self, tmp_path, text):
        path = tmp_path / "samples.csv"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "o"
        assert run("calibrate", "--samples-csv", str(path), "--out", str(out)) == EXIT_CONFIG
        assert not out.exists()

    # each row format: the file's bytes and either the ns read back or the text the refusal names
    ROWS = b"0.0,30.5\n1.0,-0.25\n2.0,1e-06\n"
    READ = [30_500_000, -250_000, 1]

    @pytest.mark.parametrize(
        "data, outcome",
        [
            (HEADER.encode() + ROWS, READ),
            ((HEADER.encode() + ROWS).replace(b"\n", b"\r\n"), READ),
            ((HEADER.encode() + ROWS).replace(b"\n", b"\r"), READ),
            (HEADER.encode() + ROWS.rstrip(b"\n"), READ),
            (HEADER.encode() + b"0.0,30.5\n\n1.0,-0.25\n", "line 3"),
            (HEADER.encode() + ROWS + b"\n", "line 5"),
            (HEADER.encode() + b'0.0,"30.5"\n"1.0",-0.25\n', READ[:2]),
            (HEADER.encode() + b" 0.0 ,\t30.5\t\n1.0\t, -0.25 \n", READ[:2]),
            (HEADER.encode() + b"+0.0,+30.5\n+1.0,-0.25\n", READ[:2]),
            (HEADER.encode() + b"0.0,30.5\n1.0,Infinity\n", "line 3"),
            # digit-grouping underscores: float() takes them, numpy's text reader does not
            (HEADER.encode() + b"0.0,30.5\n1.0,3_0.5\n", "line 3"),
            (HEADER.encode(), "no delay samples"),
            (HEADER.encode() + b"\n", "line 2"),
            # the peak |delay| first reached on line 4, again on line 5
            (HEADER.encode() + b"0.0,1.0\n1.0,5e299\n2.0,-1e300\n3.0,1e300\n", "line 4"),
            (
                HEADER.encode() + b"".join(b"%d.0,30.0\n" % i for i in range(199_999)) + b"199999.0,abc\n",
                "line 200001",
            ),
        ],
        ids=[
            "lf", "crlf", "cr", "no-final-newline", "blank-mid", "blank-end", "quoted", "spaced",
            "plus-signs", "infinity", "underscore", "header-only", "header-then-blank",
            "overflow-peak-later", "bad-last-of-200000",
        ],
    )
    def test_samples_csv_row_formats(self, tmp_path, capsys, data, outcome):
        path = tmp_path / "samples.csv"
        path.write_bytes(data)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("calibrate", "--samples-csv", str(path), "--out", str(out))
        err = capsys.readouterr().err
        assert not caught and "warn" not in err.lower()
        if isinstance(outcome, str):
            assert code == EXIT_CONFIG
            assert outcome in err
        else:
            assert code == EXIT_OK
            payload = json.loads((out / "calibration.json").read_text())
            assert payload["sample_count"] == len(outcome)
            read = import_samples_csv(path)
            assert read.dtype == np.float64
            assert read.tolist() == outcome


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

    @pytest.mark.parametrize("limit_ms", [4e-7, 1e308])
    @pytest.mark.parametrize("flags", [("--clock", "private/calibrated"), ("--trials", "1")])
    def test_budget_not_a_whole_nanosecond_count_exits_two(self, tmp_path, limit_ms, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budget": {"limit_ms": limit_ms}}))
        code = run(
            "simulate", "--scenario", "static", *flags,
            "--config", str(cfg), "--out", str(tmp_path / "o"),
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "argv",
        [["calibrate"], ["simulate", "--scenario", "static", "--trials", "1"], ["simulate", "--scenario", "outdoor"]],
        ids=["calibrate", "static-matrix", "outdoor"],
    )
    def test_mean_delay_past_float_range_in_ns_exits_two(self, tmp_path, capsys, argv):
        # found by TestFuzz: 1e308 ms is finite, but not in ns
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delay_model": {"mean_delay_ms": 1e308}}))
        assert run(*argv, "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_CONFIG
        assert "delay_model.mean_delay_ms" in capsys.readouterr().err


class TestUnreadableConfig:
    @pytest.mark.parametrize("via", ["--config", CONFIG_ENV_VAR])
    @pytest.mark.parametrize("kind", sorted(UNREADABLE_CONFIGS))
    def test_exits_two_naming_the_file_or_key(self, tmp_path, capsys, monkeypatch, kind, via):
        path = write_unreadable_config(tmp_path, kind)
        argv = ["plan", "--out", str(tmp_path / "o")]
        if via == CONFIG_ENV_VAR:
            monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
        else:
            argv += ["--config", str(path)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert ("deployment.radius_m" if kind == "400-digit-float" else str(path)) in err
        assert not (tmp_path / "o").exists()

    def test_other_failure_while_loading_exits_three(self, tmp_path, capsys, monkeypatch):
        def broken(path):
            raise RuntimeError("loader broke")

        monkeypatch.setattr(cli, "load_config", broken)
        assert run("plan", "--config", "cfg.json", "--out", str(tmp_path / "o")) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "Traceback (most recent call last)" in err
        assert "RuntimeError: loader broke" in err
        assert err.splitlines()[-1] == "error: RuntimeError: loader broke"


class TestFoldedFlags:
    """``--trials`` and ``--receiver`` land in the config the run reads, over the file's values."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["sweep"], Config(deployment=DeploymentConfig(receiver="smartphone"), sweep=SweepConfig(trials=1))),
            (
                ["sweep", "--receiver", "dedicated", "--trials", "2"],
                Config(deployment=DeploymentConfig(receiver="dedicated"), sweep=SweepConfig(trials=2)),
            ),
            (
                ["simulate", "--scenario", "static", "--trials", "2"],
                Config(
                    deployment=DeploymentConfig(receiver="smartphone"),
                    handover=HandoverConfig(trials=2),
                    sweep=SweepConfig(trials=1),
                ),
            ),
        ],
    )
    def test_resolved_config(self, tmp_path, argv, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"deployment": {"receiver": "smartphone"}, "sweep": {"trials": 1}}))
        assert _load(build_parser().parse_args([*argv, "--config", str(cfg)])) == expected


class TestCounts:
    @pytest.mark.parametrize(
        "argv, config, named",
        [
            (["calibrate"], {"delay_model": {"sample_count": 10**12}}, "delay_model.sample_count"),
            (["simulate", "--scenario", "outdoor"], {"delay_model": {"sample_count": 10**12}}, "delay_model.sample_count"),
            (["sync-compare"], {"sync": {"duration_s": 1e15}}, "sync.duration_s"),
            (["simulate", "--scenario", "static"], {"handover": {"n_sats": 10**12}}, "handover.n_sats"),
        ],
        ids=["calibrate", "outdoor", "sync-compare", "n_sats"],
    )
    def test_counts_above_the_cap_exit_two(self, tmp_path, capsys, argv, config, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run(*argv, "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_CONFIG
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["simulate", "--scenario", "static", "--trials", "10001"], "handover.trials"),
            (["simulate", "--scenario", "driving", "--trials", "10001"], "handover.trials"),
            (["simulate", "--scenario", "static", "--trials", "1" + "0" * 400], "handover.trials"),
            # 910 trials of the default 11-offset grid: 10,010 runs
            (["sweep", "--trials", "910"], "sweep.trials"),
        ],
        ids=["static", "driving", "static-400-digit", "sweep"],
    )
    def test_trials_past_the_work_bound_exit_two(self, tmp_path, capsys, argv, named):
        assert run(*argv, "--out", str(tmp_path / "o")) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize(
        "scenario, config, named",
        [
            # 100,000 steps a trial
            ("static", {"handover": {"sim_s": 9940.0}}, "handover.trials, handover.live_s"),
            # a crossing at 11 km/h, about 6,200 steps
            ("driving", {"deployment": {"max_speed_kmh": 11.0}}, "handover.trials, deployment.max_speed_kmh"),
        ],
        ids=["static", "driving"],
    )
    def test_matrix_steps_past_the_bound_exit_two(self, tmp_path, capsys, scenario, config, named):
        cfg = config_from_dict(config)
        if scenario == "static":
            plan = sc._static_plan(cfg)
        else:
            plan = sc.traversal_plan(cfg.deployment, sc.DRIVING_PR_NOISE_M)
        trials = MAX_MATRIX_STEPS // sum(seg.steps for seg in plan.segments) + 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = ["simulate", "--scenario", scenario, "--trials", str(trials), "--config", str(path)]
        assert run(*argv, "--out", str(tmp_path / "o")) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize(
        "scenario, config, named",
        [
            # windows of exactly 1,000,000 steps in seconds, which round to 1 + 14 + 999,986
            ("static", {"handover": {"live_s": 0.06, "blocked_s": 1.35, "sim_s": 99998.59}},
             "handover.live_s, handover.blocked_s, handover.sim_s: 0.06 + 1.35 + 99998.59 s takes more"),
            # a crossing of 1,900 m in 1,000,001 steps of 1.9 mm
            ("driving", {"deployment": {"max_speed_kmh": 0.06839996}},
             "deployment.max_speed_kmh, deployment.separation_m: crossing"),
        ],
        ids=["static", "driving"],
    )
    def test_timeline_one_step_past_the_cap_exits_two(self, tmp_path, capsys, monkeypatch, scenario, config, named):
        def drawn(*args, **kwargs):
            raise AssertionError("a clock was drawn")

        monkeypatch.setattr(sc, "draw_clock", drawn)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        # one trial keeps the matrix under MAX_MATRIX_STEPS
        for name, flags in (("matrix", ["--clock", "all", "--trials", "1"]), ("single", ["--clock", "public/raw"])):
            out = tmp_path / name
            argv = ["simulate", "--scenario", scenario, *flags, "--config", str(path)]
            assert run(*argv, "--out", str(out)) == EXIT_CONFIG
            assert named in capsys.readouterr().err
            assert not out.exists()


class TestUnwritableOut:
    @pytest.mark.parametrize(
        "argv",
        [["plan"], ["sync-compare"], ["calibrate"], ["simulate", "--scenario", "outdoor"]],
        ids=["plan", "sync-compare", "calibrate", "outdoor"],
    )
    def test_out_naming_a_file_exits_two(self, tmp_path, capsys, argv):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert run(*argv, "--out", str(out)) == EXIT_CONFIG
        assert str(out) in capsys.readouterr().err
        assert out.read_text() == "not a directory\n"


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
            ["plan"],
            ["simulate", "--scenario", "static"],
            ["simulate", "--scenario", "static", "--clock", "private/raw"],
            ["simulate", "--scenario", "driving"],
            ["simulate", "--scenario", "pedestrian"],
            ["simulate", "--scenario", "outdoor"],
            ["sweep"],
            ["calibrate"],
            ["sync-compare"],
        ],
        ids=[
            "plan", "static-matrix", "static-single", "driving", "pedestrian", "outdoor", "sweep",
            "calibrate", "sync-compare",
        ],
    )
    def test_seed_must_be_non_negative(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--seed", "-1", "--out", str(tmp_path)])
        assert excinfo.value.code == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err
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


# Per key, values at and just past each boundary the validator draws, and a
# range of ordinary values small enough that an accepted run takes milliseconds.
_PAST = (-1.0, 0.0, 5e-324, 1e308, math.inf, math.nan)
SCHEMA = {
    "deployment": {
        "radius_m": ((*_PAST, 149.13509104049035), st.floats(1.0, 300.0)),
        "separation_m": ((*_PAST, 3690.097253066939), st.floats(2.0, 3000.0)),
        "max_speed_kmh": ((*_PAST, 1e-3, 1e5, 90.44872189295889), st.floats(5.0, 300.0)),
        "receiver": (("nokia", 1), st.sampled_from(("dedicated", "smartphone"))),
    },
    "delay_model": {
        "mean_delay_ms": (_PAST, st.floats(0.1, 100.0)),
        "wander_sigma_ms": ((*_PAST, 1e150), st.floats(0.0, 1.0)),
        "noise_sigma_ms": ((*_PAST, 1e150), st.floats(0.0, 5.0)),
        "sample_count": ((0, 1, MAX_TIMELINE_STEPS + 1, 10**400, 2.5), st.integers(1, 3000)),
    },
    "budget": {"limit_ms": ((*_PAST, 4e-7, 1e-6), st.floats(0.001, 1000.0))},
    "handover": {
        "trials": ((0, MAX_TRIAL_RUNS + 1, 10**400), st.integers(1, 2)),
        "live_s": ((*_PAST, 0.01, 1e12), st.floats(0.1, 60.0)),
        "blocked_s": ((*_PAST, 0.01, 135.0, 140.0, 1e12), st.floats(0.1, 200.0)),
        "sim_s": ((*_PAST, 0.01, 1e12), st.floats(0.1, 60.0)),
        "pr_noise_m": ((*_PAST, 1e6), st.floats(0.1, 50.0)),
        "n_sats": ((3, 4, 32, 33, 10**12), st.integers(4, 12)),
    },
    "sweep": {
        "min_offset_ms": ((*_PAST, -1e308, -400.0), st.floats(-500.0, 0.0)),
        "max_offset_ms": ((*_PAST, 400.0), st.floats(0.0, 500.0)),
        "step_ms": ((*_PAST, 1e-300), st.floats(50.0, 1000.0)),
        "trials": ((0, MAX_TRIAL_RUNS + 1, 10**400), st.integers(1, 2)),
    },
    "sync": {"duration_s": ((*_PAST, 15.9, 16.0, 16e6 + 16.0, 1e15), st.floats(16.0, 3600.0))},
}


@st.composite
def configs(draw):
    """A schema-shaped config of ordinary values, with at most one key at a boundary."""
    config = draw(
        st.fixed_dictionaries(
            {},
            optional={
                section: st.fixed_dictionaries({}, optional={key: ordinary for key, (_, ordinary) in keys.items()})
                for section, keys in SCHEMA.items()
            },
        )
    )
    if draw(st.booleans()):
        section = draw(st.sampled_from(sorted(SCHEMA)))
        key = draw(st.sampled_from(sorted(SCHEMA[section])))
        config.setdefault(section, {})[key] = draw(st.sampled_from(SCHEMA[section][key][0]))
    return config


COMMANDS = (
    ("plan",),
    ("calibrate",),
    ("sync-compare",),
    ("sweep",),
    ("simulate", "--scenario", "static", "--trials", "1"),
    ("simulate", "--scenario", "driving", "--trials", "1"),
    ("simulate", "--scenario", "pedestrian"),
    ("simulate", "--scenario", "outdoor"),
)


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON")


def check_artifacts(out):
    """Every JSON artifact under ``out`` parses without NaN or infinity, and no CSV cell is non-finite."""
    for path in out.rglob("*.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)
    for path in out.rglob("*.csv"):
        with path.open(newline="") as fh:
            for row in csv.reader(fh):
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    assert math.isfinite(value), f"{path.name}: {cell!r}"


class TestFuzz:
    """Any config on any command ends in exit 0, 1 or 2 with well-formed artifacts, never a crash."""

    @settings(
        max_examples=150,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.sampled_from(COMMANDS), st.one_of(configs(), st.sampled_from(sorted(UNREADABLE_CONFIGS))))
    def test_every_config_exits_cleanly(self, command, config):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            if isinstance(config, str):
                path = write_unreadable_config(tmp, config)
            else:
                path = tmp / "cfg.json"
                path.write_text(json.dumps(config))
            out = tmp / "out"
            code = main([*command, "--config", str(path), "--out", str(out)])
            assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_CONFIG)
            if isinstance(config, str):
                assert code == EXIT_CONFIG
            check_artifacts(out)
