"""Deterministic file output.

Identical inputs must produce byte-identical files, so everything here
avoids wall-clock stamps, unordered containers, and locale-dependent
formatting. Floats are written with repr, which round-trips exactly.
The writers make no directory: the caller hands them one that exists.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Any, Iterable, Sequence


def _canonical(value: Any) -> Any:
    """Plain JSON data: a ``to_dict`` method wins, else a dataclass maps its fields."""
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if hasattr(value, "to_dict"):
        return _canonical(value.to_dict())
    if dataclasses.is_dataclass(value):
        return _canonical({f.name: getattr(value, f.name) for f in dataclasses.fields(value)})
    return value


def write_json(path: str | Path, payload: Any) -> None:
    """Write strict JSON; a NaN or infinity raises before the file is touched."""
    text = json.dumps(_canonical(payload), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def format_table(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Fixed-width text table for terminal reports."""
    cells = [[str(h) for h in header]] + [[str(v) for v in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
