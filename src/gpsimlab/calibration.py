"""Measurement and correction of the simulation process delay.

The host takes a roughly constant time to turn a commanded scenario state
into radiated signal. That delay drifts slowly and each measurement of it
carries noise, so it is modeled as mean plus random walk plus Gaussian
measurement noise. Calibration estimates the mean over a long sample run
and subtracts it from the drawn process delay; what remains is walk drift
plus estimation error, far inside the handover budget at the default
settings.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import DelayModelConfig
from .timebase import NS_PER_MS, NS_PER_S, TimeOffset, ns_from_millis

SAMPLE_INTERVAL_S = 1.0

CSV_HEADER = ("timestamp_s", "delay_ms")


class EmptySampleSet(ValueError):
    """Calibration needs at least one delay sample."""


@dataclass(frozen=True)
class DelayCalibration:
    """Correction plus the spread diagnostics of the sample run, in integer ns."""

    correction_ns: int
    sample_stddev_ns: int
    residual_bound_ns: int
    sample_count: int


def true_delay_series(model: DelayModelConfig, count: int, rng: np.random.Generator) -> np.ndarray:
    """Actual process delay over ``count`` steps, seconds, never negative.

    Model parameters are quantized to whole nanoseconds, as every offset is.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    walk = np.cumsum(rng.normal(0.0, ns_from_millis(model.wander_sigma_ms) / NS_PER_S, count))
    return np.maximum(ns_from_millis(model.mean_delay_ms) / NS_PER_S + walk, 0.0)


def measure_sim_delay(model: DelayModelConfig, count: int, rng: np.random.Generator) -> list[TimeOffset]:
    """Measured delay samples: true process delay plus measurement noise."""
    true = true_delay_series(model, count, rng)
    noise_s = ns_from_millis(model.noise_sigma_ms) / NS_PER_S
    measured = np.maximum(true + rng.normal(0.0, noise_s, count), 0.0)
    # ns_from_seconds for every sample in one pass: rint rounds half to
    # even as round() does, in place so no second float array is made;
    # no int64 cast, a sample of the widest accepted spread may exceed it
    measured *= NS_PER_S
    np.rint(measured, out=measured)
    return [TimeOffset(int(v)) for v in measured]


def calibrate(ns: Sequence[int]) -> DelayCalibration:
    """Mean correction with unbiased spread and worst-case residual.

    ``ns`` holds the delay samples as integer nanosecond counts. The
    correction is the exact integer-nanosecond rounding of the sample
    mean, so shifting every sample by a constant shifts the correction by
    exactly that constant.
    """
    if not ns:
        raise EmptySampleSet("cannot calibrate from zero samples")
    n = len(ns)
    total = sum(ns)
    # floor(mean + 1/2) in exact integers: half-up rounding keeps integer
    # shifts exact, which half-even would break at half-nanosecond means
    correction_ns = (2 * total + n) // (2 * n)
    if n > 1:
        mean = total / n
        stddev_ns = round(float(np.sqrt(sum((v - mean) ** 2 for v in ns) / (n - 1))))
    else:
        stddev_ns = 0
    # the correction lies between the extremes, so they hold the largest |v - correction|
    residual_ns = max(max(ns) - correction_ns, correction_ns - min(ns))
    return DelayCalibration(correction_ns, stddev_ns, residual_ns, n)


def export_samples_csv(path: str | Path, ns: Sequence[int]) -> None:
    """One row per nanosecond sample, in ms, stamped SAMPLE_INTERVAL_S apart.

    The bytes of ``csv.writer`` rows of ``repr`` floats, which never need quoting.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        fh.writelines(f"{i * SAMPLE_INTERVAL_S!r},{v / NS_PER_MS!r}\r\n" for i, v in enumerate(ns))


def import_samples_csv(path: str | Path) -> list[int]:
    """Read delay samples back in integer ns; a ValueError names the line of a bad header or value.

    Every timestamp and every delay must be finite, and so must n·(2·max|ns|)², which bounds
    ``calibrate``'s sum of squared deviations over n samples.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
            raise ValueError(f"{path}: expected header {','.join(CSV_HEADER)}, got {header}")
        millis, peak, peak_line = [], 0.0, 0
        for row in reader:
            try:
                t_s, ms = map(float, row)
            except ValueError:
                t_s = ms = math.nan
            if not (math.isfinite(t_s) and math.isfinite(ms * NS_PER_MS)):
                raise ValueError(
                    f"{path} line {reader.line_num}: want 2 columns, a finite timestamp "
                    f"and a delay finite in ns; got {row}"
                )
            if abs(ms) > peak:
                peak, peak_line = abs(ms), reader.line_num
            millis.append(ms)
    if not millis:
        raise EmptySampleSet(f"no delay samples in {path}")
    deviation_ns = 2.0 * peak * NS_PER_MS
    if not math.isfinite(deviation_ns * deviation_ns * len(millis)):
        raise ValueError(f"{path} line {peak_line}: squared deviations of {len(millis)} samples overflow")
    # ns_from_millis for every row in one pass: rint rounds half to even as
    # round() does; no int64 cast, a sample may exceed it
    return list(map(int, np.rint(np.array(millis) * NS_PER_MS).tolist()))
