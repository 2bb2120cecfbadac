"""gpsimlab benchmark: one named workload of CLI invocations, run in-process.

    python3 perfbench/run.py --workload handover-matrix --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy. A workload is a closed
loop with one caller: each CLI invocation starts after the previous one
returned. One pass runs every invocation of the workload once, writing its
artifacts to a fresh directory under ``.bench_work/``; every timed pass is
checked against the committed references of ``refs/<workload>.json`` (see
``checks.py``). One warm-up pass comes first; a step with ``warmup``
arguments runs shortened in it (one trial), so a long pass is not spent
on warming up, and its artifacts are checked for validity only.

Passes are started until ``--seconds`` are used up: a pass is not started
when less than half the last pass's time is left, so a run measures for
``--seconds`` give or take half a pass.

With ``--trace 0`` the run reports the end-to-end metrics:

  setup_s       median over fresh interpreters of importing gpsimlab.cli,
                building the parser and loading the workload's config,
                started between the timed passes
  wall_s        median wall time of one pass
  cpu_s         median process CPU time of one pass
  peak_rss_mb   peak resident memory of this process

With ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics of ``tracing.py``. The last line of standard output
is one JSON object; the lines before it give every metric with its unit,
the failed share of invocations and the largest drift, which the JSON
reports as ``failed`` and ``correct``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFS = BENCH / "refs"

RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
# After each timed pass, fresh-interpreter set-ups are timed for this share
# of the pass's wall time (at least one), and for at least SETUP_MIN in all,
# so set-up is sampled across the whole run rather than in one burst.
SETUP_SHARE = 0.15
SETUP_MIN = 15
# Every workload is single-threaded Python with small numpy calls; one BLAS
# thread keeps a run from depending on a second core of a shared host.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import tracing  # noqa: E402


@dataclass(frozen=True)
class Step:
    """One CLI invocation: a name (its artifact directory), argv, artifacts.

    ``{name}`` in an argument is replaced by that earlier step's directory.
    ``warmup`` arguments are appended in the warm-up pass only.
    """

    name: str
    argv: tuple[str, ...]
    artifacts: tuple[str, ...]
    warmup: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    config: dict
    steps: tuple[Step, ...]


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
# Every workload passes its config as a file, the default one included, so
# that config loading is part of set-up and of every invocation.
WORKLOADS = {
    "handover-matrix": Workload(
        config={},
        steps=(
            Step(
                "matrix",
                ("simulate", "--scenario", "static"),
                ("handover_matrix.json", "handover_matrix.csv"),
                warmup=("--trials", "1"),
            ),
        ),
    ),
    "offset-sweep": Workload(
        config={},
        steps=(
            Step("dedicated", ("sweep",), ("sweep.json", "sweep.csv"), warmup=("--trials", "1")),
            Step(
                "smartphone",
                ("sweep", "--receiver", "smartphone"),
                ("sweep.json", "sweep.csv"),
                warmup=("--trials", "1"),
            ),
        ),
    ),
    "clock-chain": Workload(
        config={"sync": {"duration_s": 86400.0}, "delay_model": {"sample_count": 200000}},
        steps=(
            Step("sync", ("sync-compare",), ("sync_compare.json", "sync_compare.csv")),
            Step("write", ("calibrate",), ("calibration.json", "delay_samples.csv")),
            Step(
                "read",
                ("calibrate", "--samples-csv", "{write}/delay_samples.csv"),
                ("calibration.json",),
            ),
        ),
    ),
}


def blas_env() -> dict[str, str]:
    """Thread caps for numpy's BLAS."""
    return {name: str(BLAS_THREADS) for name in BLAS_THREAD_VARS}


def load_reference(workload: str, seed: int) -> dict | None:
    path = REFS / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


class Runner:
    """Runs passes of one workload and checks every invocation's output."""

    def __init__(self, cli, name: str, seed: int, run_dir: Path, reference: dict | None) -> None:
        self.cli = cli
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.run_dir = run_dir
        self.reference = reference
        self.reference_source = "committed" if reference else "first pass"
        self.config_path = run_dir / "config.json"
        self.config_path.write_text(json.dumps(self.workload.config))
        self.attempted = 0
        self.failed = 0
        self.max_drift = 0.0
        self.consistent = True  # traced counts repeat and self times add up
        self.errors: list[str] = []
        self.last_output = ""
        self._passes = 0
        self._pending: dict = {"exit": {}, "artifacts": {}}

    def argv(self, step: Step, pass_dir: Path, warmup: bool = False) -> list[str]:
        dirs = {s.name: str(pass_dir / s.name) for s in self.workload.steps}
        args = [a.format(**dirs) for a in step.argv] + list(step.warmup if warmup else ())
        return args + ["--config", str(self.config_path), "--seed", str(self.seed), "--out", dirs[step.name]]

    def invoke(self, argv: list[str], tracer: tracing.Tracer | None) -> int:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if tracer is None:
                    return self.cli.main(argv)
                return tracer.call(tracing.ROOT_KEY, self.cli.main, (argv,), {})
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        finally:
            self.last_output = sink.getvalue()

    def run_pass(self, tracer: tracing.Tracer | None = None, warmup: bool = False) -> tuple[float, float]:
        """One pass; returns (wall seconds, CPU seconds) of its invocations."""
        pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=self.run_dir))
        wall = cpu = 0.0
        gc.collect()  # garbage of the previous pass is not this pass's cost
        try:
            for step in self.workload.steps:
                argv = self.argv(step, pass_dir, warmup)
                cpu0 = time.process_time()
                t0 = time.perf_counter()
                code = self.invoke(argv, tracer)
                wall += time.perf_counter() - t0
                cpu += time.process_time() - cpu0
                self.attempted += 1
                self.check(step, code, pass_dir / step.name, shortened=warmup and bool(step.warmup))
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        self._passes += 1
        return wall, cpu

    def check(self, step: Step, code: int, out: Path, shortened: bool = False) -> None:
        """Count the invocation as failed unless its outcome matches the reference.

        Without a reference for this seed, the first pass becomes the
        reference. A shortened warm-up invocation has no reference and is
        only validated.
        """
        try:
            if shortened:
                self.validate(step, code, out)
                return
            if self.reference is not None:
                expected = self.reference["exit"][step.name]
                if code != expected:
                    raise checks.InvalidArtifact(f"exit {code}, expected {expected}: {self.last_output[-300:]}")
                for artifact in step.artifacts:
                    reference = self.reference["artifacts"][f"{step.name}/{artifact}"]
                    self.max_drift = max(self.max_drift, checks.drift(out / artifact, reference))
                return
            records = self.validate(step, code, out)
        except checks.InvalidArtifact as exc:
            self.failed += 1
            self.errors.append(f"pass {self._passes} {step.name}: {exc}")
            return
        self._pending["exit"][step.name] = code
        self._pending["artifacts"].update(records)
        if len(self._pending["exit"]) == len(self.workload.steps):
            self.reference = self._pending

    def validate(self, step: Step, code: int, out: Path) -> dict:
        """Reference records of a step's artifacts, checked without a reference.

        The invocation may exit 0, or exit 1 with false acceptance flags: the
        CLI's defined outcome when a scenario's own check fails at a seed.
        """
        if code not in (0, 1):
            raise checks.InvalidArtifact(f"exit {code}: {self.last_output[-300:]}")
        records = {f"{step.name}/{a}": checks.extract(out / a) for a in step.artifacts}
        if (code == 1) != any(r["false_flags"] for r in records.values()):
            raise checks.InvalidArtifact(f"exit {code} disagrees with the acceptance flags")
        return records

    @property
    def correct(self) -> bool:
        return self.consistent and self.failed == 0 and self.max_drift <= checks.DRIFT_TOLERANCE


def measure_setup(config_path: Path) -> float:
    """Seconds a fresh interpreter takes to import the CLI, build its parser and load the config."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        "import gpsimlab.cli as cli\n"
        "args = cli.build_parser().parse_args(sys.argv[1:])\n"
        "cli.load_config(args.config)\n"
        "print(repr(time.perf_counter() - t0), cli.__file__)\n"
    )
    env = {**os.environ, **blas_env(), "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code, "plan", "--config", str(config_path)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    elapsed, module = done.stdout.split()
    if not Path(module).resolve().is_relative_to(SRC):
        raise ImportError(f"setup imported gpsimlab from {module}, not from {SRC}")
    return float(elapsed)


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it started, in MiB.

    ``ru_maxrss`` keeps the resident size the parent had when it forked
    this process, so a large launcher would mask the workload; the kernel's
    high-water mark of this process image is read first.
    """
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def import_cli():
    sys.path.insert(0, str(SRC))
    import gpsimlab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"gpsimlab imported from {cli.__file__}, not from {SRC}")
    return cli


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    runner.run_pass(warmup=True)  # imports, first-call caches, page faults
    measure_setup(runner.config_path)  # warm-up: the first start reads the sources
    setup, walls, cpus = [], [], []
    deadline = time.perf_counter() + seconds
    round_s = 0.0  # one pass and the set-ups after it
    while not walls or time.perf_counter() + round_s / 2 < deadline:
        start = time.perf_counter()
        wall, cpu = runner.run_pass()
        walls.append(wall)
        cpus.append(cpu)
        until = time.perf_counter() + SETUP_SHARE * wall
        setup.append(measure_setup(runner.config_path))
        while time.perf_counter() < until:
            setup.append(measure_setup(runner.config_path))
        round_s = time.perf_counter() - start
    while len(setup) < SETUP_MIN:
        setup.append(measure_setup(runner.config_path))
    peak_mb = peak_rss_mb()
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak_mb, "MiB"),
    }
    detail = {
        "setup_s": {"quartiles": quartiles(setup), "samples": len(setup)},
        "wall_s": {"quartiles": quartiles(walls), "samples": len(walls)},
        "cpu_s": {"quartiles": quartiles(cpus), "samples": len(cpus)},
    }
    return metrics, detail


def run_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    runner.run_pass(warmup=True)
    untraced, traced, gaps = [], [], []
    deadline = time.perf_counter() + seconds
    round_s = 0.0  # one untraced and one traced pass
    while not traced or time.perf_counter() + round_s / 2 < deadline:
        start = time.perf_counter()
        untraced.append(runner.run_pass()[0])
        tracer = tracing.Tracer()
        tracing.install_layers(tracer)
        try:
            runner.run_pass(tracer)
        finally:
            tracer.restore()
        traced.append(tracing.layer_metrics(tracer))
        gaps.append(abs(tracing.self_time_gap(tracer)))
        round_s = time.perf_counter() - start
    for name in tracing.COUNT_METRICS:
        if len({p[name] for p in traced}) != 1:
            runner.errors.append(f"count {name} differs between traced passes")
            runner.consistent = False
    if max(gaps) > 1e-6:
        runner.errors.append(f"layer self times miss the traced wall time by {max(gaps):.3g} s")
        runner.consistent = False
    layers = tracing.merge_passes(traced)
    layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(untraced)
    metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    return metrics, {"traced_passes": len(traced)}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith(("_ratio", "_mean")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gpsimlab" / "cli.py").is_file():
        print(f"error: no gpsimlab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ.update(blas_env())
    cli = import_cli()

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        runner = Runner(cli, args.workload, args.seed, run_dir, load_reference(args.workload, args.seed))
        measure = run_traced if args.trace else run_untraced
        metrics, detail = measure(runner, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        extra = detail.get(name)
        spread = ""
        if extra:
            q1, _, q3 = extra["quartiles"]
            spread = f"  q1 {q1:.4f} q3 {q3:.4f}  n={extra['samples']}"
        print(f"  {name:<44} {value:>14.6g} {unit}{spread}")
    print(f"  {'failed_ops':<44} {runner.failed:>14d} of {runner.attempted} invocations")
    print(f"  {'max_rel_drift':<44} {runner.max_drift:>14.6g} vs {runner.reference_source} reference")
    for error in runner.errors[:10]:
        print(f"  error: {error}")
    detail.update(
        failed_ops=runner.failed / runner.attempted,
        max_rel_drift=runner.max_drift,
        reference=runner.reference_source,
    )
    print("detail " + json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": runner.correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
