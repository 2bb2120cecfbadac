#!/usr/bin/env python3
"""Compare the CLI artifacts of this working tree against a git ref.

    python3 scripts/artifact_diff.py --base origin/main

Checks REF out into a temporary worktree, runs a fixed list of quick
commands at seeds 0 and 7 once under each tree's ``src/``, and prints
every artifact file that differs, exists on one side only, or comes
with a different exit code. Exits 1 if anything differs, 0 otherwise.
The runs ignore GPSIMLAB_CONFIG, so both trees read built-in defaults.
"""

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 7)
COMMANDS = (
    ("plan",),
    ("sync-compare",),
    ("calibrate",),
    ("sweep", "--trials", "1"),
    ("simulate", "--scenario", "static", "--trials", "2"),
    ("simulate", "--scenario", "static", "--clock", "private/calibrated"),
    ("simulate", "--scenario", "driving", "--trials", "1"),
    ("simulate", "--scenario", "pedestrian"),
    ("simulate", "--scenario", "outdoor"),
)


def run_commands(tree: Path, out: Path) -> dict[str, int]:
    """Run every command at every seed under ``tree/src``; exit code per run directory."""
    env = {k: v for k, v in os.environ.items() if k != "GPSIMLAB_CONFIG"}
    env["PYTHONPATH"] = str(tree / "src")
    codes = {}
    for seed in SEEDS:
        for i, command in enumerate(COMMANDS):
            name = f"seed{seed}/{i}-{'_'.join(command).replace('/', '-')}"
            argv = [sys.executable, "-m", "gpsimlab.cli", *command, "--seed", str(seed)]
            proc = subprocess.run(
                argv + ["--out", str(out / name)], env=env, cwd=tree, capture_output=True
            )
            codes[name] = proc.returncode
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
            found.append(f"{rel}: differs")
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref to compare against")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="artifact-diff-") as tmp:
        tmp = Path(tmp)
        worktree = tmp / "base-tree"
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(worktree), args.base], cwd=ROOT, check=True
        )
        try:
            base_codes = run_commands(worktree, tmp / "base")
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(worktree)], cwd=ROOT, check=True
            )
        head_codes = run_commands(ROOT, tmp / "head")

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
