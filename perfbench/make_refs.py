"""Regenerate the committed reference outputs of the benchmark workloads.

    python3 perfbench/make_refs.py

Runs one checked pass per workload and seed (``SEEDS``) from the current
sources and writes ``refs/<workload>.json``: per seed, the exit
code of every invocation and the record of every artifact (see
``checks.py``). Regenerating references changes what the benchmark calls
correct, so do it only for a deliberate change of the program's outputs,
and state the largest drift it accepts.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run

SEEDS = range(32)


def main() -> int:
    os.environ.update(run.blas_env())
    cli = run.import_cli()
    run.WORK.mkdir(exist_ok=True)
    run.REFS.mkdir(exist_ok=True)
    for name in sorted(run.WORKLOADS):
        lines = []
        for seed in SEEDS:
            run_dir = Path(tempfile.mkdtemp(prefix="refs-", dir=run.WORK))
            try:
                runner = run.Runner(cli, name, seed, run_dir, None)
                runner.run_pass()
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            if runner.failed:
                print(f"{name} seed {seed} failed: {runner.errors}", file=sys.stderr)
                return 1
            lines.append(f'    "{seed}": {json.dumps(runner.reference, sort_keys=True)}')
            print(f"{name} seed {seed}: ok", flush=True)
        text = '{\n  "seeds": {\n' + ",\n".join(lines) + "\n  }\n}\n"
        (run.REFS / f"{name}.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
