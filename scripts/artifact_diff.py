#!/usr/bin/env python3
"""Compare the CLI artifacts of this working tree against a git ref.

    python3 scripts/artifact_diff.py --base origin/main

Unpacks REF (``git archive``) into a temporary directory, runs a fixed
list of quick commands at seeds 0 and 7 once under each tree's ``src/``
(among them ``sync-compare`` over one poll, over nine polls that end
just past the warm-up on a pool re-sync, and over a day, ``plan`` on
every verdict its layout report can state: a gap of exactly t_max, the
smartphone receiver with and without ``--strict``, a crossing too short
for reacquisition, gaps that resume cold, with and without ``--strict``,
and gaps that resume by no path,
``calibrate --samples-csv`` on the samples that tree's own
``calibrate`` runs wrote at the same seed and on a few hand-written
sample files, a ``calibrate`` of 1,800 samples near 1e14 ns, whose
sum is past 2**53, two whose samples of 50 ns and about 1e16 ns are
written by ``repr`` rather than from digits, static handovers whose config
blocks the receiver up to and past t_max, a strict raw public clock
judged against a budget it misses and one it fits, a sweep past the
reacquisition map's slow offset, a static handover and a sweep whose config,
not a flag, picks the smartphone receiver, static handover matrices
over 4 and over 32 satellites, the ends of the schema, one whose
2,000 s simulator window gives each trial's stacked solve about 80,000
rows, many solver blocks, a driving run on a clock other than the
default, a pedestrian run on a named clock, a driving matrix whose config
picks the smartphone receiver, a static and a driving matrix past
the matrix step bound, which exit 2, a driving run at 1 m a step, whose
step ends fall on every corridor edge, a crossing one step past the
timeline step cap, which exits 2, a static handover whose 0.45 s
simulator window is an exact half step, and a static and a driving
matrix whose trial makes no in-coverage fix, which exit 1), and prints every
artifact file that differs, exists on one side only, or comes with a
different exit code. A differing JSON or CSV artifact is printed with
its largest relative drift from the base, measured by the benchmark's
own comparator, or as "structure differs" when its keys, labels, flags
or row count changed. A run that prints to standard error keeps it as
``stderr.txt`` in its run directory, so a changed message shows as a
differing file. Exits 1 if anything differs, 0 otherwise. The
runs ignore GPSIMLAB_CONFIG, so both trees read built-in defaults or
the command's own config.
"""

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import checks  # noqa: E402

SEEDS = (0, 7)
# hand-written --samples-csv files, shared by both trees' runs as "{samples}/<name>.csv"
HEADER = "timestamp_s,delay_ms\n"
SAMPLES = {
    "lf": HEADER + "0.0,30.5\n1.0,29.75\n2.0,30.000001\n",
    "quoted": HEADER + '0.0,"30.5"\n"1.0",29.75\n',
    "spaced": HEADER + " 0.0 ,\t30.5\n1.0\t, 29.75 \n",
    "blank-line": HEADER + "0.0,30.5\n\n1.0,29.75\n",
}
COMMANDS = (
    ("plan",),
    ("plan", "--strict"),
    # a gap of exactly t_max, which the inclusive boundary counts as feasible
    ("plan", {"deployment": {
        "radius_m": 149.13509104049035, "separation_m": 3690.097253066939, "max_speed_kmh": 90.44872189295889,
    }}),
    # the smartphone's planning bound, 15 s, against the dedicated 5 s
    ("plan", {"deployment": {"receiver": "smartphone"}}),
    ("plan", "--strict", {"deployment": {"receiver": "smartphone"}}),
    # a crossing too short for reacquisition, which exits 1
    ("plan", {"deployment": {"radius_m": 12.0, "separation_m": 400.0, "max_speed_kmh": 200.0}}),
    # gaps past t_max walked slowly enough to acquire cold, which only --strict refuses,
    # and the same gaps at 110 km/h, where no path resumes fixes
    ("plan", {"deployment": {"separation_m": 5000.0, "max_speed_kmh": 5.0}}),
    ("plan", "--strict", {"deployment": {"separation_m": 5000.0, "max_speed_kmh": 5.0}}),
    ("plan", {"deployment": {"separation_m": 5000.0}}),
    ("sync-compare",),
    # one poll, fewer than WARMUP_POLLS, so the maxima cover every poll; nine polls, one past
    # WARMUP_POLLS, with pool re-syncs at polls 1, 5 and 9; and the benchmark's day
    ("sync-compare", {"sync": {"duration_s": 16.0}}),
    ("sync-compare", {"sync": {"duration_s": 144.0}}),
    ("sync-compare", {"sync": {"duration_s": 86400.0}}),
    # "{previous}" in an argument is the run directory of the command before, at the same seed
    ("calibrate",),
    ("calibrate", "--samples-csv", "{previous}/delay_samples.csv"),
    # n·max|ns| = 1,800 · 1e14 ns, past 2**53: the exact integer sum, not the float64 one
    ("calibrate", {"delay_model": {"mean_delay_ms": 1e8}}),
    ("calibrate", "--samples-csv", "{previous}/delay_samples.csv"),
    # samples outside [100, 10**15) ns, which the export writes row by row with repr: 50 ns,
    # written "5e-05", and about 10**16 ns
    ("calibrate", {"delay_model": {"mean_delay_ms": 5e-5, "wander_sigma_ms": 0, "noise_sigma_ms": 0}}),
    ("calibrate", "--samples-csv", "{previous}/delay_samples.csv"),
    ("calibrate", {"delay_model": {"mean_delay_ms": 1e10}}),
    ("calibrate", "--samples-csv", "{previous}/delay_samples.csv"),
    *(("calibrate", "--samples-csv", f"{{samples}}/{name}.csv") for name in SAMPLES),
    ("sweep", "--trials", "1"),
    ("sweep", "--receiver", "smartphone", "--trials", "1"),
    ("simulate", "--scenario", "static", "--trials", "2"),
    ("simulate", "--scenario", "static", "--clock", "private/calibrated"),
    # a command may end with a config, which its runs read through --config:
    # a blockage past t_max, which falls back to cold acquisition, and one of
    # exactly t_max, which still reacquires warm
    ("simulate", "--scenario", "static", "--clock", "private/calibrated",
     {"handover": {"blocked_s": 140.0, "sim_s": 40.0}}),
    ("simulate", "--scenario", "static", "--clock", "private/calibrated", {"handover": {"blocked_s": 135.0}}),
    ("simulate", "--scenario", "driving", "--trials", "1"),
    ("simulate", "--scenario", "driving", "--clock", "private/calibrated"),
    ("simulate", "--scenario", "pedestrian"),
    ("simulate", "--scenario", "outdoor"),
    # a raw public clock misses the default 50 ms budget (exit 1 under
    # --strict) and fits a 100 ms one, so both budget flags are written
    ("simulate", "--scenario", "static", "--clock", "public/raw", "--strict"),
    ("simulate", "--scenario", "static", "--clock", "public/raw", "--strict", {"budget": {"limit_ms": 100.0}}),
    # ±400 ms lies past SLOW_OFFSET_S, 250 ms, where reacquisition reaches its slow time
    ("sweep", {"sweep": {"min_offset_ms": -400.0, "max_offset_ms": 400.0, "step_ms": 200.0, "trials": 1}}),
    # the receiver comes from the config alone, with no --receiver flag
    ("simulate", "--scenario", "static", "--clock", "private/calibrated", {"deployment": {"receiver": "smartphone"}}),
    ("sweep", "--trials", "1", {"deployment": {"receiver": "smartphone"}}),
    # the ends of the schema's satellite count: a square 4-satellite system,
    # the worst conditioned, and the largest sky
    ("simulate", "--scenario", "static", "--trials", "2", {"handover": {"n_sats": 4}}),
    ("simulate", "--scenario", "static", "--trials", "2", {"handover": {"n_sats": 32}}),
    # four configurations of ~20,000 simulator fixes each: one trial's solve spans many blocks
    ("simulate", "--scenario", "static", "--trials", "2", {"handover": {"sim_s": 2000.0}}),
    ("simulate", "--scenario", "driving", "--clock", "public/raw"),
    ("simulate", "--scenario", "pedestrian", "--clock", "private/raw"),
    ("simulate", "--scenario", "driving", "--trials", "1", {"deployment": {"receiver": "smartphone"}}),
    # trials times timeline steps past MAX_MATRIX_STEPS, refused with exit 2 before anything runs
    ("simulate", "--scenario", "static", "--trials", "101", {"handover": {"sim_s": 9940.0}}),
    ("simulate", "--scenario", "driving", "--trials", "2000", {"deployment": {"max_speed_kmh": 11.0}}),
    # 1 m a step, so every portal and coverage edge of the corridor is the end of a step
    ("simulate", "--scenario", "driving", "--clock", "private/calibrated", {"deployment": {"max_speed_kmh": 36.0}}),
    # a crossing of 1,000,001 steps, one past MAX_TIMELINE_STEPS, refused with exit 2
    ("simulate", "--scenario", "driving", "--clock", "private/calibrated", {"deployment": {"max_speed_kmh": 0.06839996}}),
    # 4.5 steps of simulator window, which count as 5
    ("simulate", "--scenario", "static", "--clock", "private/calibrated", {"handover": {"sim_s": 0.45}}),
    # a trial without in-coverage fixes, refused with exit 1: a cold acquisition that outlasts
    # the simulator window, and coverages of 1 m radius
    ("simulate", "--scenario", "static", "--trials", "1", {"handover": {"blocked_s": 140.0}}),
    ("simulate", "--scenario", "driving", "--trials", "1", {"deployment": {"radius_m": 1.0}}),
)


def run_commands(tree: Path, out: Path, samples: Path) -> dict[str, int]:
    """Run every command at every seed under ``tree/src``; exit code per run directory."""
    env = {k: v for k, v in os.environ.items() if k != "GPSIMLAB_CONFIG"}
    env["PYTHONPATH"] = str(tree / "src")
    codes = {}
    for seed in SEEDS:
        previous = None
        for i, command in enumerate(COMMANDS):
            *command, config = command if isinstance(command[-1], dict) else (*command, None)
            name = f"seed{seed}/{i}-{'_'.join(command).replace('/', '-')}"
            args = [part.format(previous=previous, samples=samples) for part in command]
            previous = out / name
            if config is not None:
                path = out / f"configs/{i}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(config))
                args += ["--config", str(path)]
            argv = [sys.executable, "-m", "gpsimlab.cli", *args, "--seed", str(seed)]
            proc = subprocess.run(
                argv + ["--out", str(out / name)], env=env, cwd=tree, capture_output=True
            )
            codes[name] = proc.returncode
            if proc.stderr:
                (out / name).mkdir(parents=True, exist_ok=True)
                (out / name / "stderr.txt").write_bytes(proc.stderr)
    return codes


def differences(base: Path, head: Path) -> list[str]:
    """Relative paths of files that differ or exist under only one of the two trees."""
    files = {p.relative_to(base) for p in base.rglob("*") if p.is_file()}
    files |= {p.relative_to(head) for p in head.rglob("*") if p.is_file()}
    found = []
    for rel in sorted(files):
        a, b = base / rel, head / rel
        if not a.exists() or not b.exists():
            found.append(f"{rel}: only in {'head' if b.exists() else 'base'}")
        elif not filecmp.cmp(a, b, shallow=False):
            found.append(f"{rel}: {drift(a, b)}")
    return found


def drift(base: Path, head: Path) -> str:
    """How ``head`` differs from ``base``: its largest relative drift where one is defined."""
    if base.suffix not in (".json", ".csv"):
        return "differs"
    try:
        return f"differs, largest relative drift {checks.drift(head, checks.extract(base)):.3g}"
    except checks.InvalidArtifact:
        return "structure differs"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref to compare against")
    args = parser.parse_args()
    # a benchmark reference samples the rows of a long CSV; a diff wants every row's drift
    checks.MAX_REFERENCE_ROWS = sys.maxsize

    with tempfile.TemporaryDirectory(prefix="artifact-diff-") as tmp:
        tmp = Path(tmp)
        base_tree = tmp / "base-tree"
        base_tree.mkdir()
        archive = subprocess.run(
            ["git", "archive", args.base], cwd=ROOT, check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive, check=True)
        # one copy of the sample files, so both trees' messages name the same path
        samples = tmp / "samples"
        samples.mkdir()
        for name, text in SAMPLES.items():
            (samples / f"{name}.csv").write_text(text)
        base_codes = run_commands(base_tree, tmp / "base", samples)
        head_codes = run_commands(ROOT, tmp / "head", samples)

        found = [
            f"{name}: exit {base_codes[name]} at base, {head_codes[name]} here"
            for name in base_codes
            if base_codes[name] != head_codes[name]
        ]
        found += differences(tmp / "base", tmp / "head")

    for line in found:
        print(line)
    print(f"{len(found)} difference(s) against {args.base}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
