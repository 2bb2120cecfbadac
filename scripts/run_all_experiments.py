#!/usr/bin/env python3
"""Run every experiment and drop all artifacts into one directory.

    python3 scripts/run_all_experiments.py --out results

This is a convenience wrapper over the CLI; each step is the same as
invoking the corresponding `gpsimlab` subcommand by hand. At the default
trial counts the ten steps take about 1 s of wall time in all (1.0-1.2 s
over three runs on 2 cores, Python 3.11.7, numpy 2.4.6; the whole script,
imports included, 1.35-1.45 s); the static and driving matrices take most
of it.
"""

import argparse
import sys
import time

from gpsimlab.cli import main as cli_main

STEPS = [
    ["plan"],
    ["sync-compare"],
    ["calibrate"],
    ["sweep"],
    ["sweep", "--receiver", "smartphone"],
    ["simulate", "--scenario", "static"],
    ["simulate", "--scenario", "static", "--clock", "private/calibrated"],
    ["simulate", "--scenario", "driving"],
    ["simulate", "--scenario", "pedestrian"],
    ["simulate", "--scenario", "outdoor"],
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results", help="artifact directory (default ./results)")
    parser.add_argument("--config", default=None, help="configuration file forwarded to every step")
    parser.add_argument("--seed", type=int, default=0, help="base seed forwarded to every step")
    args = parser.parse_args()

    common = ["--out", args.out, "--seed", str(args.seed)]
    if args.config is not None:
        common += ["--config", args.config]

    worst = 0
    for step in STEPS:
        # sweep artifacts would collide between the two receiver profiles,
        # so the smartphone pass gets its own subdirectory
        out = common
        if step[:2] == ["sweep", "--receiver"]:
            out = ["--out", f"{args.out}/smartphone"] + common[2:]
        label = " ".join(step)
        start = time.monotonic()
        code = cli_main(step + out)
        print(f"[{time.monotonic() - start:6.1f}s] exit {code}  gpsimlab {label}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
