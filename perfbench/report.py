"""Print every end-to-end metric of every workload, by name and unit.

    python3 perfbench/report.py

Each (workload, seed) runs ``run.py`` for ``run_seconds`` of
BENCHMARK.json in its own process, so peak memory is that workload's
alone. Seed 0 is the default seed; seed 29 was held
out of every run made while the benchmark was tuned.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

REPORT_SEEDS = (0, 29)

COLUMNS = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("failed_ops", "share"),
    ("max_rel_drift", "ratio"),
)


def measure(workload: str, seed: int) -> dict:
    """One untraced run of ``run.py``: its metrics plus failed share and drift."""
    done = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(run.RUN_SECONDS), "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[len("detail "):])
    row = {name: m["value"] for name, m in result["metrics"].items()}
    row.update(
        workload=workload,
        seed=seed,
        correct=result["correct"],
        failed_ops=detail["failed_ops"],
        max_rel_drift=detail["max_rel_drift"],
        wall_quartiles=detail["wall_s"]["quartiles"],
        passes=detail["wall_s"]["samples"],
        setup_samples=detail["setup_s"]["samples"],
    )
    return row


def collect() -> list[dict]:
    return [measure(w, s) for w in run.WORKLOADS for s in REPORT_SEEDS]


def format_rows(rows: list[dict]) -> str:
    header = ["workload", "seed"] + [f"{name} [{unit}]" for name, unit in COLUMNS] + ["correct"]
    header.insert(4, "wall_s q1-q3 [s]")
    table = [header]
    for row in rows:
        cells = [row["workload"], str(row["seed"])] + [f"{row[name]:.4g}" for name, _ in COLUMNS]
        q1, _, q3 = row["wall_quartiles"]
        cells.insert(4, f"{q1:.4g}-{q3:.4g}")
        table.append(cells + [str(row["correct"])])
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    if rows:
        lines.append(
            "setup_s: median over fresh interpreters; wall_s, cpu_s: median over the timed passes ("
            + ", ".join(f"{r['workload']}/{r['seed']}: {r['setup_samples']} set-ups, {r['passes']} passes" for r in rows)
            + ")"
        )
    return "\n".join(lines)


def main() -> int:
    rows = collect()
    print(format_rows(rows))
    return 0 if all(r["correct"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
