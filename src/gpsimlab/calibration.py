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
import itertools
import math
import warnings
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np

from .config import DelayModelConfig
from .timebase import NS_PER_MS, NS_PER_S, TimeOffset, ns_from_millis

SAMPLE_INTERVAL_S = 1.0

CSV_HEADER = ("timestamp_s", "delay_ms")

# the export writes a sample of +0 or of whole ns within [DIGIT_MIN_NS, DIGIT_END_NS) from its
# digits; it writes EXPORT_BLOCK_ROWS rows at a time, so one block's digit matrix stays under a MiB
DIGIT_MIN_NS = 100
DIGIT_END_NS = 10**15
EXPORT_BLOCK_ROWS = 16384


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


def measured_delays_ns(model: DelayModelConfig, count: int, rng: np.random.Generator) -> np.ndarray:
    """Measured delay samples, true process delay plus measurement noise, as a float64
    array of whole nanoseconds."""
    true = true_delay_series(model, count, rng)
    noise_s = ns_from_millis(model.noise_sigma_ms) / NS_PER_S
    measured = np.maximum(true + rng.normal(0.0, noise_s, count), 0.0)
    # ns_from_seconds for every sample in one pass: rint rounds half to
    # even as round() does, in place so no second float array is made;
    # no int64 cast, a sample of the widest accepted spread may exceed it
    measured *= NS_PER_S
    np.rint(measured, out=measured)
    return measured


def measure_sim_delay(model: DelayModelConfig, count: int, rng: np.random.Generator) -> list[TimeOffset]:
    """The samples of ``measured_delays_ns``, one TimeOffset each; kept only for the benchmark
    tracer, which wraps it by name, until ROADMAP item 1's recorder retires it."""
    return [TimeOffset(int(v)) for v in measured_delays_ns(model, count, rng)]


def calibrate(ns: np.ndarray) -> DelayCalibration:
    """Mean correction with unbiased spread and worst-case residual.

    ``ns`` is a float64 array of whole nanoseconds, as ``measured_delays_ns``
    and ``import_samples_csv`` return. The correction is the exact
    integer-nanosecond rounding of the sample mean, so shifting every sample
    by a constant shifts the correction by exactly that constant.
    """
    n = ns.size
    if n == 0:
        raise EmptySampleSet("cannot calibrate from zero samples")
    lo, hi = int(ns.min()), int(ns.max())
    # every partial sum of whole floats is exact while n·max|v| < 2**53; past
    # that the samples are summed as Python ints
    total = int(ns.sum()) if n * max(hi, -lo) < 2**53 else sum(map(int, ns.tolist()))
    # floor(mean + 1/2) in exact integers: half-up rounding keeps integer
    # shifts exact, which half-even would break at half-nanosecond means
    correction_ns = (2 * total + n) // (2 * n)
    if n > 1:
        # squared with libm's pow, as ``(v - mean) ** 2`` squares, which is not always the
        # correctly rounded ``d * d``, and summed by ``sum`` in sample order
        squares = map(math.pow, (ns - total / n).tolist(), itertools.repeat(2.0))
        stddev_ns = round(float(np.sqrt(sum(squares) / (n - 1))))
    else:
        stddev_ns = 0
    # the correction lies between the extremes, so they hold the largest |v - correction|
    residual_ns = max(hi - correction_ns, correction_ns - lo)
    return DelayCalibration(correction_ns, stddev_ns, residual_ns, n)


def export_samples_csv(path: str | Path, ns: np.ndarray) -> None:
    """One row per sample of the whole-nanosecond array ``ns``, in ms, stamped SAMPLE_INTERVAL_S apart.

    The bytes of ``csv.writer`` rows of ``repr`` floats, which never need quoting; with the 1 s
    interval the timestamp ``f"{i}.0"`` is the text of ``repr(i * SAMPLE_INTERVAL_S)`` for any
    count below 2**53. The rows are written EXPORT_BLOCK_ROWS at a time. When every sample is
    +0 or a whole n in [DIGIT_MIN_NS, DIGIT_END_NS) they are written from their digits, for
    ``repr(n / NS_PER_MS)`` is then the decimal n·10⁻⁶: ``n // 10**6``, ``.``, and
    ``n % 10**6`` as 6 digits with its trailing zeros dropped, keeping the first (``0.0`` for
    +0). That decimal rounds to the double, since n is exact below 2**53 and float64 division
    rounds correctly. Below 2**33 ms doubles are under 10⁻⁶ ms apart, so no other decimal of
    at most 6 fractional digits rounds to the same double, and any that does has more
    significant digits; from 10⁻⁴ ms on ``repr`` writes no exponent. Any other array (−0.0,
    1 to 99 ns, negatives, 10**15 ns and up, not whole or not finite) is written with ``repr``.
    """
    with open(path, "wb") as fh:
        fh.write(",".join(CSV_HEADER).encode() + b"\r\n")
        # signbit sends -0.0 and negatives to repr; a NaN fails the max test
        if ns.size and not np.signbit(ns).any() and ns.max() < DIGIT_END_NS:
            whole = ns.astype(np.int64)
            if (whole == ns).all() and ((whole == 0) | (whole >= DIGIT_MIN_NS)).all():
                for start in range(0, whole.size, EXPORT_BLOCK_ROWS):
                    fh.write(_digit_rows(whole[start : start + EXPORT_BLOCK_ROWS], start))
                return
        millis = (ns / NS_PER_MS).tolist()
        for start in range(0, len(millis), EXPORT_BLOCK_ROWS):
            block = enumerate(millis[start : start + EXPORT_BLOCK_ROWS], start)
            fh.write("".join(f"{i}.0,{ms!r}\r\n" for i, ms in block).encode())


def _digit_rows(ns: np.ndarray, first: int) -> bytes:
    """The rows ``f"{first + k}.0,{ns[k] / NS_PER_MS!r}\\r\\n"`` of int64 samples, each 0 or in
    [DIGIT_MIN_NS, DIGIT_END_NS), as bytes: a matrix of one row per sample and one column
    per character, its leading zeros and the fraction's trailing ones dropped by a mask."""
    millis, fraction = np.divmod(ns, NS_PER_MS)
    fields = (
        (np.arange(first, first + ns.size, dtype=np.int64), len(str(first + ns.size - 1)), b".0,"),
        (millis, len(str(int(millis.max()))), b"."),
    )
    width = sum(digits + len(tail) for _, digits, tail in fields) + 6 + 2
    rows = np.empty((ns.size, width), dtype=np.uint8)
    keep = np.ones((ns.size, width), dtype=bool)
    col = 0
    for value, digits, tail in fields:
        for k in range(digits - 1):
            keep[:, col + k] = value >= 10 ** (digits - 1 - k)
        for k in reversed(range(digits)):
            rows[:, col + k] = value % 10 + 48
            value //= 10
        col += digits
        rows[:, col : col + len(tail)] = np.frombuffer(tail, dtype=np.uint8)
        col += len(tail)
    # the 6 fraction digits, last first; a zero stays once a later digit is not zero, the first always
    nonzero = np.zeros(ns.size, dtype=bool)
    for k in reversed(range(6)):
        digit = fraction % 10
        rows[:, col + k] = digit + 48
        if k:
            nonzero |= digit != 0
            keep[:, col + k] = nonzero
        fraction //= 10
    rows[:, col + 6 :] = np.frombuffer(b"\r\n", dtype=np.uint8)
    return rows[keep].tobytes()


def import_samples_csv(path: str | Path) -> np.ndarray:
    """Read delay samples back as a float64 array of whole ns; a ValueError names the line of a
    bad header or row.

    After the header each line is one row of 2 columns, a finite timestamp and a delay finite
    in ns, and n·(2·max|ns|)² must be finite too: it bounds ``calibrate``'s sum of squared
    deviations over n samples. numpy's text reader parses the rows as it streams the file.
    """
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
            raise ValueError(f"{path}: expected header {','.join(CSV_HEADER)}, got {header}")
        first_line = reader.line_num + 1
        # the text reader skips blank lines, so the lines it is handed are counted
        counter = itertools.count()
        try:
            with warnings.catch_warnings():
                # a file of no data rows is refused below, not warned about
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(
                    map(itemgetter(0), zip(fh, counter)),
                    delimiter=",", quotechar='"', comments=None, ndmin=2,
                )
        except ValueError:
            rows = None
        line_count = next(counter)
    if rows is None or rows.shape != (line_count, 2):
        raise _refusal(path)
    times, millis = rows.T
    with np.errstate(over="ignore"):
        ns = millis * NS_PER_MS
    if not (np.isfinite(times).all() and np.isfinite(ns).all()):
        raise _refusal(path)
    peak_row = int(np.argmax(np.abs(millis)))
    deviation_ns = 2.0 * abs(float(millis[peak_row])) * NS_PER_MS
    if not math.isfinite(deviation_ns * deviation_ns * line_count):
        raise ValueError(
            f"{path} line {first_line + peak_row}: squared deviations of {line_count} samples overflow"
        )
    # ns_from_millis for every row in one pass: rint rounds half to even as
    # round() does; no int64 cast, a sample may exceed it
    np.rint(ns, out=ns)
    return ns


def _refusal(path: str | Path) -> ValueError:
    """The error naming the first line of a refused file that is not one good row."""
    with open(path) as fh:
        reader = csv.reader(fh)
        next(reader)
        line = header_line = reader.line_num
        for row in reader:
            try:
                t_s, ms = map(_text_float, row)
            except ValueError:
                t_s = ms = math.nan
            # a quoted field may carry a row across lines; the text reader's rows are single lines
            if reader.line_num != line + 1 or not (math.isfinite(t_s) and math.isfinite(ms * NS_PER_MS)):
                return ValueError(
                    f"{path} line {reader.line_num}: want 2 columns, a finite timestamp "
                    f"and a delay finite in ns; got {row}"
                )
            line = reader.line_num
    if line == header_line:
        return EmptySampleSet(f"no delay samples in {path}")
    return ValueError(f"{path}: rows unreadable as {','.join(CSV_HEADER)}")


def _text_float(field: str) -> float:
    """``field`` as numpy's text reader parses it: ``float`` of the ASCII text within the
    whitespace, so no digit-grouping underscores and no non-ASCII digits."""
    text = field.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a number: {field!r}")
    return float(text)
