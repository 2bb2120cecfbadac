#!/usr/bin/env python3
"""Compare the CLI artifacts of this working tree against a git ref.

    python3 scripts/artifact_diff.py --base origin/main

Unpacks REF (``git archive``) into a temporary directory, runs a fixed
list of quick commands at seeds 0 and 7 once under each tree's ``src/``
(among them ``plan`` on a deployment whose gap takes exactly t_max and,
with and without ``--strict``, for the smartphone receiver,
``calibrate --samples-csv`` on the samples that tree's own
``calibrate`` runs wrote at the same seed and on a few hand-written
sample files, a ``calibrate`` of 1,800 samples near 1e14 ns, whose
sum is past 2**53, static handovers whose config
blocks the receiver up to and past t_max, a strict raw public clock
judged against a budget it misses and one it fits, a sweep past the
reacquisition map's slow offset, a static handover and a sweep whose config,
not a flag, picks the smartphone receiver, static handover matrices
over 4 and over 32 satellites, the ends of the schema, and one whose
2,000 s simulator window gives each trial's stacked solve about 80,000
rows, many solver blocks), and prints every
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
    ("sync-compare",),
    # "{previous}" in an argument is the run directory of the command before, at the same seed
    ("calibrate",),
    ("calibrate", "--samples-csv", "{previous}/delay_samples.csv"),
    # n·max|ns| = 1,800 · 1e14 ns, past 2**53: the exact integer sum, not the float64 one
    ("calibrate", {"delay_model": {"mean_delay_ms": 1e8}}),
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
