"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

cli = run.import_cli()

from gpsimlab import calibration, receiver, rng, scenarios, solver  # noqa: E402
from gpsimlab.timebase import TimeOffset  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_wrappers_cover_every_binding_and_are_restored():
    originals = {
        (module, name): getattr(module, name)
        for module, name in (
            (solver, "solve_position"),
            (scenarios, "solve_position"),
            (calibration, "calibrate"),
            (scenarios, "calibrate"),
            (cli, "calibrate"),
            (rng, "stream"),
            (cli, "stream"),
            (receiver, "step"),
        )
    }
    post_init = TimeOffset.__post_init__
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    try:
        for (module, name), original in originals.items():
            wrapped = getattr(module, name)
            assert wrapped is not original and wrapped.__wrapped__ is original, (module, name)
        assert scenarios.solve_position is solver.solve_position
        assert TimeOffset.__post_init__ is not post_init
    finally:
        tracer.restore()
    for (module, name), original in originals.items():
        assert getattr(module, name) is original, (module, name)
    assert TimeOffset.__post_init__ is post_init


def test_traced_invocation_self_times_sum_to_wall(tmp_path):
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    try:
        argv = ["sweep", "--trials", "1", "--seed", "3", "--out", str(tmp_path)]
        assert tracer.call(tracing.ROOT_KEY, cli.main, (argv,), {}) == 0
    finally:
        tracer.restore()
    metrics = tracing.layer_metrics(tracer)
    assert abs(tracing.self_time_gap(tracer)) < 1e-9
    assert metrics["solver.solve_position.calls"] > 0
    assert metrics["receiver.step.calls"] > metrics["solver.solve_position.calls"]
    assert metrics["scenarios.draw_clock.calls"] == 0
    assert metrics["reports.bytes_written"] == sum(p.stat().st_size for p in tmp_path.iterdir())
    assert 0 < metrics["trace.observe_s"] < metrics["trace.wall_s"]


def _artifact(tmp_path: Path, payload) -> Path:
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(payload))
    return path


def test_identical_output_has_zero_drift_and_perturbed_reference_raises_it(tmp_path):
    path = _artifact(tmp_path, {"cells": [{"label": "a", "p95_m": 4.25, "n": 3}], "trials": 2})
    reference = checks.extract(path)
    assert checks.drift(path, reference) == 0.0

    perturbed = {**reference, "sha256": "0" * 64, "numbers": list(reference["numbers"])}
    perturbed["numbers"][1] *= 1.0 + 1e-3
    assert checks.drift(path, perturbed) == pytest.approx(1e-3, rel=1e-2)

    untouched = {**reference, "sha256": "0" * 64}
    assert checks.drift(path, untouched) == 0.0


def test_large_csv_reference_is_strided_but_pinned(tmp_path):
    path = tmp_path / "samples.csv"
    rows = [f"{i}.0,{30 + i * 1e-3!r}" for i in range(1000)]
    path.write_text("timestamp_s,delay_ms\n" + "\n".join(rows) + "\n")
    reference = checks.extract(path)
    assert reference["rows"] == 1000 and reference["stride"] == 10
    assert len(reference["numbers"]) == 2 * 101
    path.write_text(path.read_text().replace("500.0,", "500.5,"))
    assert checks.drift(path, reference) == pytest.approx(0.5 / 500.5)
    path.write_text(path.read_text().replace("501.0,", "501.5,"))
    with pytest.raises(checks.InvalidArtifact, match="rows it does not keep"):
        checks.drift(path, reference)


@pytest.mark.parametrize(
    "payload, problem",
    [
        ('{"x": NaN}', "non-finite"),
        ('{"x": Infinity}', "non-finite"),
        ('{"x": ', "not valid JSON"),
    ],
)
def test_invalid_artifacts_are_rejected(tmp_path, payload, problem):
    path = tmp_path / "artifact.json"
    path.write_text(payload)
    with pytest.raises(checks.InvalidArtifact, match=problem):
        checks.extract(path)


def test_non_finite_csv_cell_is_rejected(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("a,b\n1.0,nan\n")
    with pytest.raises(checks.InvalidArtifact, match="nan"):
        checks.extract(path)


def test_false_flag_is_recorded_and_differs_from_a_true_reference(tmp_path):
    path = _artifact(tmp_path, [{"bound_held": True, "ms": 1.5}])
    reference = checks.extract(path)
    assert reference["false_flags"] == []
    path = _artifact(tmp_path, [{"bound_held": False, "ms": 1.5}])
    assert checks.extract(path)["false_flags"] == ["artifact.json[0].bound_held"]
    with pytest.raises(checks.InvalidArtifact, match="structure"):
        checks.drift(path, reference)


class _Matrix:
    """Stands in for gpsimlab.cli on handover-matrix, with a chosen outcome."""

    def __init__(self, ordering_ok: bool, code: int | None = None) -> None:
        self.ordering_ok = ordering_ok
        self.code = (0 if ordering_ok else 1) if code is None else code

    def main(self, argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True)
        (out / "handover_matrix.json").write_text(json.dumps({"ordering_ok_every_trial": self.ordering_ok}))
        (out / "handover_matrix.csv").write_text("clock,median_p95_m\npublic/raw,4.5\n")
        return self.code


def test_first_outcome_becomes_the_expected_one(tmp_path):
    recorded = run.Runner(_Matrix(False), "handover-matrix", 2, tmp_path, None)
    recorded.run_pass()
    assert recorded.failed == 0 and recorded.reference["exit"] == {"matrix": 1}

    for outcome, failed in ((False, 0), (True, 1)):
        checked = run.Runner(_Matrix(outcome), "handover-matrix", 2, tmp_path, recorded.reference)
        checked.run_pass()
        assert checked.failed == failed


@pytest.mark.parametrize("fake", [_Matrix(False, code=0), _Matrix(True, code=1)])
def test_exit_code_must_agree_with_the_flags(tmp_path, fake):
    runner = run.Runner(fake, "handover-matrix", 2, tmp_path, None)
    runner.run_pass()
    assert runner.failed == 1 and runner.reference is None



def test_shortened_warmup_is_validated_but_not_the_reference(tmp_path):
    argvs = []

    class Recording(_Matrix):
        def main(self, argv):
            argvs.append(argv)
            return super().main(argv)

    runner = run.Runner(Recording(True), "handover-matrix", 2, tmp_path, None)
    runner.run_pass(warmup=True)
    assert argvs[0][:5] == ["simulate", "--scenario", "static", "--trials", "1"]
    assert runner.failed == 0 and runner.reference is None
    runner.run_pass()
    assert "--trials" not in argvs[1] and runner.reference["exit"] == {"matrix": 0}

    broken = run.Runner(_Matrix(True, code=1), "handover-matrix", 2, tmp_path, None)
    broken.run_pass(warmup=True)
    assert broken.failed == 1

class _ExitWith:
    """Stands in for gpsimlab.cli: every invocation exits with ``code``."""

    def __init__(self, code: int, raise_exit: bool = False) -> None:
        self.code = code
        self.raise_exit = raise_exit

    def main(self, argv):
        if self.raise_exit:
            raise SystemExit(self.code)
        return self.code


@pytest.mark.parametrize("fake", [_ExitWith(3), _ExitWith(2, raise_exit=True), _ExitWith(0)])
def test_bad_exit_or_missing_artifact_counts_as_failed_op(tmp_path, fake):
    runner = run.Runner(fake, "clock-chain", 0, tmp_path, None)
    runner.run_pass()
    steps = len(run.WORKLOADS["clock-chain"].steps)
    assert runner.attempted == steps
    assert runner.failed == steps
    assert not runner.correct


def test_real_pass_checks_clean_against_committed_reference(tmp_path):
    runner = run.Runner(cli, "offset-sweep", 0, tmp_path, run.load_reference("offset-sweep", 0))
    assert runner.reference_source == "committed"
    runner.run_pass()
    assert (runner.attempted, runner.failed, runner.max_drift) == (2, 0, 0.0)
    assert runner.correct


def test_peak_rss_is_the_workload_process_not_its_launcher():
    ballast = bytearray(96 * 1024 * 1024)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    code = f"import sys; sys.path.insert(0, {str(run.BENCH)!r}); import run; print(run.peak_rss_mb())"
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    del ballast
    assert 0 < float(child.stdout) < 90


def test_metric_names_and_units():
    for section in ("end_to_end", "per_layer"):
        for metric in BENCHMARK[section]:
            assert NAME.fullmatch(metric["name"]) and len(metric["name"]) <= 64, metric
    for workload in BENCHMARK["workloads"]:
        assert workload["name"] in run.WORKLOADS
    layer_names = set(tracing.layer_metrics(tracing.Tracer())) | {"trace.overhead_s"}
    assert {m["name"] for m in BENCHMARK["per_layer"]} == layer_names
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}
    assert all(math.isfinite(m["bound"]) and 0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
