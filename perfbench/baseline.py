"""Record the machine, the code size and the baseline timings in one JSON file.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

The record holds the machine (cores, CPU, Python, numpy, BLAS), the line
count of ``src/``, the Tier-1 test count and wall time (information only,
not a gated metric), the wall time of each CLI command, the per-call cost
of ``solve_position`` and ``draw_clock``, and the end-to-end metrics of
every workload at the report seeds (see ``report.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import report
import run

# (label, argv, repeats): the commands of the ROADMAP baseline table
COMMANDS = (
    ("simulate --scenario static", ("simulate", "--scenario", "static"), 3),
    ("sweep", ("sweep",), 3),
    ("sweep --receiver smartphone", ("sweep", "--receiver", "smartphone"), 3),
    ("simulate --scenario driving", ("simulate", "--scenario", "driving"), 3),
    ("simulate --scenario pedestrian", ("simulate", "--scenario", "pedestrian"), 3),
    ("plan", ("plan",), 5),
    ("sync-compare", ("sync-compare",), 5),
    ("calibrate", ("calibrate",), 5),
    ("simulate --scenario outdoor", ("simulate", "--scenario", "outdoor"), 5),
)


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError):
        match = re.search(r"^model name\s*:\s*(.+)$", Path("/proc/cpuinfo").read_text(), re.M)
        cpu = match.group(1) if match else ""
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": " ".join(blas.get("openblas configuration", "").split()),
        "blas_threads": {name: os.environ.get(name) for name in run.BLAS_THREAD_VARS},
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(run.SRC.rglob("*.py")))


def tier1() -> dict:
    env = {**os.environ, "PYTHONPATH": str(run.SRC)}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"],
        cwd=run.ROOT, env=env, capture_output=True, text=True,
    )
    wall = time.perf_counter() - start
    summary = done.stdout.strip().splitlines()[-1]
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|error)", summary)}
    return {"wall_s": wall, "summary": summary, "tests": sum(counts.values()), **counts}


def time_commands(cli, work: Path) -> list[dict]:
    rows = []
    for label, argv, repeats in COMMANDS:
        walls = []
        for i in range(repeats):
            out = work / f"{label.replace(' ', '_')}-{i}"
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = cli.main([*argv, "--out", str(out)])
                walls.append(time.perf_counter() - start)
            if code != 0:
                raise RuntimeError(f"{label} exited {code}")
        rows.append({"command": label, "wall_s": statistics.median(walls), "samples": repeats})
    return rows


def per_call(fn, calls: int, batches: int = 5) -> float:
    """Median over batches of the mean seconds per call."""
    means = []
    for _ in range(batches):
        start = time.perf_counter()
        for i in range(calls):
            fn(i)
        means.append((time.perf_counter() - start) / calls)
    return statistics.median(means)


def time_layers() -> dict:
    import numpy as np
    from gpsimlab import scenarios as sc
    from gpsimlab.rng import stream
    from gpsimlab.solver import random_sky_geometry, solve_position

    sky = random_sky_geometry(stream(0, "baseline", "sky"), n_sats=8)
    pr = np.linalg.norm(sky.positions, axis=1) + stream(0, "baseline", "noise").normal(0.0, 2.0, 8)
    guess = np.zeros(3)
    return {
        "solve_position_us": 1e6 * per_call(lambda i: solve_position(pr, sky, initial_guess=guess), 1000),
        "draw_clock_raw_ms": 1e3 * per_call(lambda i: sc.draw_clock(i, "baseline", 0, sc.PRIVATE_RAW), 20),
        "draw_clock_calibrated_ms": 1e3
        * per_call(lambda i: sc.draw_clock(i, "baseline", 0, sc.PRIVATE_CALIBRATED), 20),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=run.BENCH / "baseline.json")
    args = parser.parse_args(argv)

    os.environ.update(run.blas_env())
    cli = run.import_cli()
    record = {"machine": machine(), "src_lines": src_lines(), "tier1": tier1()}
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="baseline-", dir=run.WORK))
    try:
        record["commands"] = time_commands(cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    record["layers"] = time_layers()
    record["workloads"] = report.collect()
    args.out.write_text(json.dumps(record, indent=2) + "\n")

    print(f"machine: {json.dumps(record['machine'])}")
    print(f"src lines: {record['src_lines']}; Tier-1: {record['tier1']['summary']} "
          f"({record['tier1']['wall_s']:.1f} s wall, information only)")
    print("| what | time |\n|------|------|")
    for row in record["commands"]:
        print(f"| `{row['command']}` | {row['wall_s']:.3f} s (median of {row['samples']}) |")
    layers = record["layers"]
    print(f"| `solve_position`, one 8-satellite fix | {layers['solve_position_us']:.1f} us |")
    print(f"| `draw_clock`, raw / calibrated | {layers['draw_clock_raw_ms']:.2f} ms / "
          f"{layers['draw_clock_calibrated_ms']:.2f} ms |")
    print(report.format_rows(record["workloads"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
