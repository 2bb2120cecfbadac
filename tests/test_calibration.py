import csv
import dataclasses
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gpsimlab.calibration import (
    CSV_HEADER,
    EmptySampleSet,
    SAMPLE_INTERVAL_S,
    calibrate,
    export_samples_csv,
    import_samples_csv,
    measure_sim_delay,
    measured_delays_ns,
    true_delay_series,
)
from gpsimlab.config import DEFAULTS, DEVIATION_SIGMAS, ConfigError, DelayModelConfig, config_from_dict
from gpsimlab.rng import stream
from gpsimlab import scenarios as sc
from gpsimlab.timebase import NS_PER_MS, NS_PER_S, TimeOffset, ns_from_millis, ns_from_seconds

MODEL = DelayModelConfig(mean_delay_ms=30.0, wander_sigma_ms=0.02, noise_sigma_ms=0.5)
SAMPLE_COUNT = 1800

sample_lists = st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=60)


def _rounded_half_up_mean(ints):
    """floor(mean + 1/2) of the rational mean of ``ints``."""
    return (Fraction(sum(ints), len(ints)) + Fraction(1, 2)).__floor__()


def _reference_stddev_ns(ints):
    """``sample_stddev_ns`` computed one sample at a time over Python ints: the mean as a
    correctly rounded float, each squared deviation by ``** 2``, summed in sample order."""
    n = len(ints)
    if n == 1:
        return 0
    mean = sum(ints) / n
    return round(float(np.sqrt(sum((v - mean) ** 2 for v in ints) / (n - 1))))


# whole-ns float64 samples: below EXACT_SUM_NS the float64 sum of 60 of them is exact;
# wide ones reach far past 2**63, while 60·(2·max)² stays finite
EXACT_SUM_NS = 2**53 // 60
exact_sum_samples = st.integers(min_value=-EXACT_SUM_NS, max_value=EXACT_SUM_NS).map(float)
wide_samples = st.one_of(
    st.floats(min_value=-1e150, max_value=1e150).map(lambda x: float(round(x))),
    st.sampled_from([2.0**53, -(2.0**53) - 2, 2.0**63, -(2.0**63) - 2048, 2.0**63 + 2**20, 3.0 * 2**70]),
    exact_sum_samples,
)


class TestCalibrate:
    @given(sample_lists)
    def test_correction_is_rounded_exact_mean(self, samples):
        assert calibrate(np.array(samples, dtype=float)).correction_ns == _rounded_half_up_mean(samples)

    @given(sample_lists, st.integers(min_value=-10**6, max_value=10**6))
    def test_shift_equivariance(self, samples, shift_ns):
        # shifting every sample by a constant shifts the correction by
        # exactly that constant; float averaging would not guarantee this
        shifted = np.array([s + shift_ns for s in samples], dtype=float)
        assert calibrate(shifted).correction_ns == calibrate(np.array(samples, dtype=float)).correction_ns + shift_ns

    @given(sample_lists)
    def test_residual_bound_is_max_abs_deviation(self, samples):
        result = calibrate(np.array(samples, dtype=float))
        brute = max(abs(s - result.correction_ns) for s in samples)
        assert result.residual_bound_ns == brute

    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=2, max_size=60))
    def test_stddev_matches_unbiased_estimator(self, samples):
        result = calibrate(np.array(samples, dtype=float))
        expected = float(np.std(samples, ddof=1))
        assert result.sample_stddev_ns == pytest.approx(expected, rel=1e-9, abs=1.0)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.lists(exact_sum_samples, min_size=1, max_size=60),
            st.lists(wide_samples, min_size=1, max_size=60).filter(
                lambda v: len(v) * max(map(abs, v)) >= 2**53
            ),
        )
    )
    # glibc's pow squares a deviation of this pair one ulp away from the correctly rounded
    # product, which moves the stddev by 1 ns
    @example([-5065082199251209216.0, 367541798831473600.0])
    def test_exact_on_whole_ns_arrays(self, samples):
        # both sides of n·max|v| = 2**53, where the float64 sum stops being exact
        ns = np.array(samples)
        ints = [int(v) for v in samples]
        result = calibrate(ns)
        assert result.correction_ns == _rounded_half_up_mean(ints)
        assert result.residual_bound_ns == max(abs(v - result.correction_ns) for v in ints)
        assert result.sample_stddev_ns == _reference_stddev_ns(ints)
        assert result.sample_count == len(ints)
        assert all(type(v) is int for v in dataclasses.astuple(result))

    def test_single_sample(self):
        result = calibrate(np.array([ns_from_millis(31)], dtype=float))
        assert result.correction_ns == ns_from_millis(31)
        assert result.sample_stddev_ns == 0
        assert result.residual_bound_ns == 0
        assert result.sample_count == 1

    def test_empty_rejected(self):
        with pytest.raises(EmptySampleSet):
            calibrate(np.array([]))


class TestMeasurement:
    def test_series_never_negative_and_sized(self):
        rng = stream(0, "cal", "series")
        series = true_delay_series(MODEL, 500, rng)
        assert len(series) == 500
        assert (series >= 0.0).all()

    def test_measurement_deterministic(self):
        a = measured_delays_ns(MODEL, 100, stream(3, "cal"))
        b = measured_delays_ns(MODEL, 100, stream(3, "cal"))
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("widest", [False, True])
    def test_samples_round_as_from_seconds(self, seed, widest):
        count = 200
        model = MODEL
        if widest:
            # just inside the validator's overflow bound: samples far above 2**63 ns
            sigma_ms = 0.99 * math.sqrt(sys.float_info.max / count) / (NS_PER_MS * DEVIATION_SIGMAS)
            cfg = config_from_dict({"delay_model": {"noise_sigma_ms": sigma_ms, "sample_count": count}})
            model = cfg.delay_model
        rng = stream(seed, "cal", "round")
        true = true_delay_series(model, count, rng)
        noise_s = ns_from_millis(model.noise_sigma_ms) / NS_PER_S
        measured = np.maximum(true + rng.normal(0.0, noise_s, count), 0.0)
        samples = measured_delays_ns(model, count, stream(seed, "cal", "round"))
        assert samples.dtype == np.float64
        assert samples.tolist() == [ns_from_seconds(s) for s in measured]
        assert (samples.max() > 2**63) == widest
        # the per-sample view the benchmark tracer wraps
        view = measure_sim_delay(model, count, stream(seed, "cal", "round"))
        assert view == [TimeOffset(ns_from_seconds(s)) for s in measured]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_correction_lands_near_process_mean(self, seed):
        samples = measured_delays_ns(MODEL, SAMPLE_COUNT, stream(seed, "cal", "run"))
        correction_ns = calibrate(samples).correction_ns
        assert correction_ns / NS_PER_MS == pytest.approx(30.0, abs=1.5)

    def test_apply_correction_touches_only_sim_delay(self):
        # a calibrated draw subtracts exactly the correction of its host's
        # measurement run from the true delay and keeps the other two parts
        model = DEFAULTS.delay_model
        raw, cal = sc.draw_clock(5, "cal", 2, (sc.PRIVATE_RAW, sc.PRIVATE_CALIBRATED))
        samples = measured_delays_ns(model, model.sample_count, stream(5, "cal", "calmeas", 2))
        correction_ns = calibrate(samples).correction_ns
        truth_ns = ns_from_seconds(
            float(true_delay_series(model, model.sample_count, stream(5, "cal", "simdelay", 2))[-1])
        )
        assert raw.sim_delay_ns == truth_ns
        assert cal.sim_delay_ns == truth_ns - correction_ns
        assert (cal.ntp_error_ns, cal.ref_error_ns) == (raw.ntp_error_ns, raw.ref_error_ns)
        assert cal.error_ns == raw.error_ns - correction_ns

    def test_calibration_shrinks_typical_residual(self):
        # after removing the correction the remaining process delay is a
        # fraction of the original 30 ms mean
        for seed in range(4):
            samples = measured_delays_ns(MODEL, SAMPLE_COUNT, stream(seed, "meas"))
            correction_ns = calibrate(samples).correction_ns
            truth_ns = ns_from_seconds(float(true_delay_series(MODEL, SAMPLE_COUNT, stream(seed, "truth"))[-1]))
            assert abs(truth_ns - correction_ns) / NS_PER_MS < 5.0


# the most samples a generated file holds, and the largest |ns| for which n·(2·max|ns|)² of
# that many samples stays finite, less a margin for the ms rounding of the file
ROUND_TRIP_MAX_SAMPLES = 40
SQUARE_BOUND_NS = int(0.99 * math.sqrt(sys.float_info.max / ROUND_TRIP_MAX_SAMPLES) / 2)
# up to 2**51 ns the two roundings of ns / NS_PER_MS * NS_PER_MS err by under half a
# nanosecond together; 4_303_762_013_691_171 (about 2**52) already reads back one less
EXACT_NS = 2**51

# whole-ns float64 values; past 2**53 an integer maps to its nearest float64
round_trip_ns = st.lists(
    st.one_of(
        st.integers(min_value=-EXACT_NS, max_value=EXACT_NS),
        st.integers(min_value=-SQUARE_BOUND_NS, max_value=SQUARE_BOUND_NS),
        st.sampled_from([2**53 + 2, -(2**53) - 4, 2**63, -(2**63) - 2048, 2**63 + 2**20, SQUARE_BOUND_NS]),
    ).map(float),
    min_size=1,
    max_size=ROUND_TRIP_MAX_SAMPLES,
)


def _read_rows_one_at_a_time(path):
    """Reference reading of a samples file, row by row: ("ints", ns), ("line", n) naming the
    first bad row or the peak of an overflow, or ("empty",).

    A row is one line of 2 fields, each ``float`` of its ASCII text within the whitespace
    without digit-grouping underscores, a finite timestamp and a delay finite in ns.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        millis, peak, peak_line, line = [], 0.0, 0, reader.line_num
        for row in reader:
            fields = [f.strip() for f in row]
            try:
                if reader.line_num != line + 1 or not all(f.isascii() and "_" not in f for f in fields):
                    raise ValueError(row)
                t_s, ms = map(float, fields)
            except ValueError:
                t_s = ms = math.nan
            if not (math.isfinite(t_s) and math.isfinite(ms * NS_PER_MS)):
                return ("line", reader.line_num)
            line = reader.line_num
            if abs(ms) > peak:
                peak, peak_line = abs(ms), line
            millis.append(ms)
    if not millis:
        return ("empty",)
    deviation_ns = 2.0 * peak * NS_PER_MS
    if not math.isfinite(deviation_ns * deviation_ns * len(millis)):
        return ("line", peak_line)
    return ("ints", [round(ms * NS_PER_MS) for ms in millis])


def _import_outcome(path):
    try:
        return ("ints", import_samples_csv(path).tolist())
    except EmptySampleSet:
        return ("empty",)
    except ValueError as exc:
        named = re.search(r" line (\d+): ", str(exc))
        return ("line", int(named.group(1))) if named else ("unnamed", str(exc))


def _maybe_quoted(fields):
    return st.builds(lambda f, quote: f'"{f}"' if quote else f, fields, st.booleans())


csv_numbers = _maybe_quoted(
    st.one_of(
        st.sampled_from(["0", "-2e3", "+7", ".5", "5.", "1e300", "-1e300", " 4 ", "\t5", "\xa01", "30\x1c"]),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
    )
)
csv_fields = _maybe_quoted(
    st.one_of(
        st.sampled_from(
            ["inf", "-Infinity", "nan", "1e303", "abc", "", "3_0.5", "1 2", "\uff13", "0x10", "1e", '3"0', "3\n0"]
        ),
        st.text(alphabet='0123456789.,"e-+ \t_nai', max_size=6),
    )
)
# rows of two numbers, and at most one line of anything at a drawn place among them
csv_rows = st.lists(st.tuples(csv_numbers, csv_numbers).map(",".join), max_size=6)
csv_odd_line = st.one_of(st.none(), st.just(""), st.lists(csv_fields, min_size=1, max_size=3).map(",".join))


class TestCsv:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(csv_rows, csv_odd_line, st.integers(0, 6), st.sampled_from(["\n", "\r\n", "\r"]), st.booleans())
    def test_import_matches_row_at_a_time_reading(self, tmp_path_factory, rows, odd, at, end, final_end):
        if odd is not None:
            rows = rows[:at] + [odd] + rows[at:]
        path = tmp_path_factory.mktemp("rows") / "samples.csv"
        text = ",".join(CSV_HEADER) + end + end.join(rows) + (end if final_end and rows else "")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        assert _import_outcome(path) == _read_rows_one_at_a_time(path)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(round_trip_ns)
    def test_round_trip_reads_back_rounded_millis(self, tmp_path_factory, ns):
        path = tmp_path_factory.mktemp("round-trip") / "samples.csv"
        export_samples_csv(path, np.array(ns))
        read = import_samples_csv(path)
        assert read.dtype == np.float64
        assert read.tolist() == [round(int(v) / NS_PER_MS * NS_PER_MS) for v in ns]
        if all(abs(v) <= EXACT_NS for v in ns):
            assert read.tolist() == ns

    def test_round_trip_exact(self, tmp_path):
        samples = measured_delays_ns(MODEL, 64, stream(11, "csv"))
        path = tmp_path / "samples.csv"
        export_samples_csv(path, samples)
        assert import_samples_csv(path).tobytes() == samples.tobytes()

    def test_header_written(self, tmp_path):
        path = tmp_path / "samples.csv"
        export_samples_csv(path, np.array([ns_from_millis(30)], dtype=float))
        first = path.read_text().splitlines()[0]
        assert first.split(",") == list(CSV_HEADER)

    @pytest.mark.parametrize(
        "samples",
        [
            [0],
            [-1, -(10**6), -30_123_456_789],
            # float64 neighbours of 2**53 + 1, -(2**53) - 3, 2**60 + 12345, 2**70 + 1 and 10**300
            [2**53 + 2, -(2**53) - 4, 2**60 + 12288],
            [2**63 + 2**20, -(2**63) - 2**20, 2**70 + 2**18, int(1e300)],
            list(range(-100_000, 100_000, 1)),
        ],
        ids=["zero", "negative", "above-2^53", "above-2^63", "200000"],
    )
    def test_bytes_match_csv_writer_of_reprs(self, tmp_path, samples):
        array = np.array(samples, dtype=float)
        assert array.tolist() == samples
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for i, ns in enumerate(samples):
                writer.writerow([repr(i * SAMPLE_INTERVAL_S), repr(ns / NS_PER_MS)])
        path = tmp_path / "samples.csv"
        export_samples_csv(path, array)
        assert path.read_bytes() == reference.read_bytes()

    def test_samples_above_int64_read_back_exact(self, tmp_path):
        # the first three are whole ms counts a double holds exactly, so they come back unchanged;
        # every sample comes back as round() of its ms value times NS_PER_MS, as from_millis did
        samples = [2**63 * NS_PER_MS, -(2**64) * NS_PER_MS, 3 * 2**70 * NS_PER_MS, 2**63 + 2**11]
        path = tmp_path / "samples.csv"
        rows = "".join(f"{i}.0,{v / NS_PER_MS!r}\n" for i, v in enumerate(samples))
        path.write_text(",".join(CSV_HEADER) + "\n" + rows)
        read = import_samples_csv(path)
        assert read.dtype == np.float64
        assert read.tolist() == [round(v / NS_PER_MS * NS_PER_MS) for v in samples]
        assert read[:3].tolist() == samples[:3]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,delay\n0.0,30.0\n")
        with pytest.raises(ValueError):
            import_samples_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(CSV_HEADER) + "\n")
        with pytest.raises(EmptySampleSet):
            import_samples_csv(path)


class TestModelValidation:
    def test_negative_parameters_rejected(self):
        # the delay model is the config section itself, checked by the loader
        for key, value in (("mean_delay_ms", -1.0), ("mean_delay_ms", 0.0), ("wander_sigma_ms", -1e-6)):
            with pytest.raises(ConfigError, match=f"delay_model.{key}"):
                config_from_dict({"delay_model": {key: value}})
