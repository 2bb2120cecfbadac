"""Output checks for one benchmark pass.

An artifact is valid when it exists and parses: JSON without NaN or
infinity, CSV whose numeric cells are finite. Its acceptance flags
(``ACCEPTANCE_FLAGS``) and its numbers are then compared with the
reference taken for the same workload and seed. Its drift is the largest
relative difference of any number; byte-identical files have drift 0
without being parsed.

A reference keeps, per artifact, the sha256 of the bytes, a digest of the
non-numeric skeleton (keys, labels, flags, header), the paths of flags
that were false, and the numbers. CSVs longer than ``MAX_REFERENCE_ROWS``
keep the numbers of every k-th row plus the last, so the committed
references stay small, and a digest of all other rows. A CSV whose
unkept rows differ from the reference has a drift the reference cannot
measure, so it is rejected rather than given the drift of its kept rows.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

ACCEPTANCE_FLAGS = ("ordering_ok_every_trial", "bound_held")
MAX_REFERENCE_ROWS = 100
# Largest relative drift a pass may show and still count as correct. Far
# above float rounding (a batched solve moves positions by ~1e-14 relative)
# and far below any change a reader of the artifacts would notice.
DRIFT_TOLERANCE = 1e-6


class InvalidArtifact(ValueError):
    """An invocation's exit or artifact is missing, malformed, non-finite or unlike its reference."""


def _reject_constant(name: str) -> float:
    raise InvalidArtifact(f"non-finite JSON constant {name}")


class _Skeleton:
    """sha256 of the non-numeric parts joined by a unit separator, fed part by part."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._separator = ""

    def add(self, part: str) -> None:
        self._hash.update(f"{self._separator}{part}".encode())
        self._separator = "\x1f"

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _walk_json(value, path: str, numbers: list[float], skeleton: _Skeleton, false_flags: list[str]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            child = value[key]
            if key in ACCEPTANCE_FLAGS and child is not True:
                false_flags.append(f"{path}.{key}")
            skeleton.add(key)
            _walk_json(child, f"{path}.{key}", numbers, skeleton, false_flags)
    elif isinstance(value, list):
        skeleton.add(f"[{len(value)}")
        for i, child in enumerate(value):
            _walk_json(child, f"{path}[{i}]", numbers, skeleton, false_flags)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        numbers.append(float(value))
    else:
        skeleton.add(repr(value))


def _extract_json(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text(), parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise InvalidArtifact(f"{path.name} is not valid JSON: {exc}") from exc
    numbers: list[float] = []
    skeleton = _Skeleton()
    false_flags: list[str] = []
    _walk_json(payload, path.name, numbers, skeleton, false_flags)
    return {"skeleton": skeleton.hexdigest(), "false_flags": false_flags, "numbers": numbers}


def _extract_csv(path: Path) -> dict:
    # streamed twice (count, then read) so a large CSV never sits in memory,
    # which would show in the workload's peak_rss_mb
    with open(path, newline="") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1
        if rows < 0:
            raise InvalidArtifact(f"{path.name} is empty")
        fh.seek(0)
        reader = csv.reader(fh)
        stride = max(1, math.ceil(rows / MAX_REFERENCE_ROWS))
        numbers: list[float] = []
        skeleton = _Skeleton()
        unkept = _Skeleton()
        for cell in next(reader):
            skeleton.add(cell)
        for i, row in enumerate(reader):
            kept = i % stride == 0 or i == rows - 1
            if not kept:
                unkept.add(",".join(row))
            skeleton.add(f"|{len(row)}")
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    skeleton.add(cell)
                    continue
                if not math.isfinite(value):
                    raise InvalidArtifact(f"{path.name} row {i + 1} holds {cell}")
                if kept:
                    numbers.append(value)
    return {
        "skeleton": skeleton.hexdigest(),
        "false_flags": [],
        "rows": rows,
        "stride": stride,
        "unkept_sha256": unkept.hexdigest(),
        "numbers": numbers,
    }


def extract(path: Path) -> dict:
    """Validate one artifact and return its reference record."""
    if not path.is_file():
        raise InvalidArtifact(f"{path.name} was not written")
    sha = hashlib.sha256(path.read_bytes()).hexdigest()
    record = _extract_json(path) if path.suffix == ".json" else _extract_csv(path)
    return {"sha256": sha, **record}


def relative_difference(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def drift(path: Path, reference: dict) -> float:
    """Validate ``path`` and return its largest relative drift from ``reference``.

    A file whose bytes match the reference digest is the reference file, so
    it is neither parsed again nor compared number by number. A flag that
    differs from the reference changes the skeleton, and a row of a long
    CSV that the reference does not keep changes its unkept digest: both
    are rejected.
    """
    if not path.is_file():
        raise InvalidArtifact(f"{path.name} was not written")
    if hashlib.sha256(path.read_bytes()).hexdigest() == reference["sha256"]:
        return 0.0
    record = extract(path)
    if record["skeleton"] != reference["skeleton"] or len(record["numbers"]) != len(reference["numbers"]):
        raise InvalidArtifact(f"{path.name} differs from the reference in structure")
    if record.get("unkept_sha256") != reference.get("unkept_sha256"):
        raise InvalidArtifact(f"{path.name} differs from the reference in rows it does not keep")
    return max(
        (relative_difference(a, b) for a, b in zip(record["numbers"], reference["numbers"])),
        default=0.0,
    )
