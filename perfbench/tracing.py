"""Per-layer spans and counts, recorded from outside the gpsimlab package.

The tracer replaces a module's public function by a timing wrapper under
every name that binds it: ``from .solver import solve_position`` copies
the function into ``scenarios``, so wrapping ``solver.solve_position``
alone would miss every call the scenarios make. ``restore`` puts each
original back.

Spans nest. A span's self time is its duration minus the durations of the
wrapped spans it directly contains, so the self times of all layers sum to
the duration of the root spans, the CLI invocations. Observers, which take
a layer's counts after its span closed, are the benchmark's own work: their
time is charged to the ``trace.observe`` layer, not to the caller's.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "gpsimlab"
ROOT_KEY = "cli"
OBSERVE_KEY = "trace.observe"


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    failed: int = 0
    counts: dict = field(default_factory=dict)
    distinct: set = field(default_factory=set)

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


Observer = Callable[[LayerStat, tuple, dict, object], None]


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, LayerStat] = {}
        self.created = 0
        self._open: list[float] = []  # per open span: time covered by its wrapped children
        self._patched: list[tuple[object, str, object]] = []

    def _stat(self, key: str) -> LayerStat:
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = LayerStat()
        return stat

    def call(self, key: str, fn, args: tuple, kwargs: dict, observe: Observer | None = None):
        stat = self._stat(key)
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            stat.failed += 1
            raise
        finally:
            duration = time.perf_counter() - start
            stat.calls += 1
            stat.total_s += duration
            stat.self_s += duration - self._open.pop()
            if self._open:
                self._open[-1] += duration
        if observe is not None:
            start = time.perf_counter()
            observe(stat, args, kwargs, result)
            duration = time.perf_counter() - start
            observed = self._stat(OBSERVE_KEY)
            observed.calls += 1
            observed.total_s += duration
            observed.self_s += duration
            if self._open:
                self._open[-1] += duration
        return result

    def wrap(self, key: str, fn, observe: Observer | None = None):
        def wrapper(*args, **kwargs):
            return self.call(key, fn, args, kwargs, observe)

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, owner: object, name: str, value: object) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self, targets) -> None:
        """Wrap each ``(module, function, key, observer)`` under all its bindings."""
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, attr, key, observe in targets:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            wrapper = self.wrap(key, original, observe)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, binding, wrapper)

    def count_instances(self, cls: type) -> None:
        """Count objects of a dataclass through its ``__post_init__``."""
        original = cls.__post_init__

        def counted(obj) -> None:
            self.created += 1
            original(obj)

        self._replace(cls, "__post_init__", counted)

    def restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)


# ----------------------------------------------------------- gpsimlab layers


def _solver(stat: LayerStat, args, kwargs, result) -> None:
    stat.add("iterations", result.iterations)


def _receiver(stat: LayerStat, args, kwargs, result) -> None:
    stat.add("tracking", result.mode.name == "TRACKING")


def _sync(stat: LayerStat, args, kwargs, result) -> None:
    stat.add("polls", len(result.samples))
    stat.distinct.add((args, tuple(sorted(kwargs.items()))))


def _measure(stat: LayerStat, args, kwargs, result) -> None:
    stat.add("samples", len(result))
    stat.distinct.add(hash(tuple(s.ns for s in result)))


def _written(stat: LayerStat, args, kwargs, result) -> None:
    stat.add("bytes", os.path.getsize(args[0] if args else kwargs["path"]))


# (module, function, layer key, observer). The three scenario entry points
# share one key: their self time is the engine loop outside any wrapped call.
LAYER_TARGETS = (
    ("solver", "solve_position", "solver.solve_position", _solver),
    ("receiver", "step", "receiver.step", _receiver),
    ("scenarios", "run_static_handover_matrix", "scenarios.engine", None),
    ("scenarios", "run_static_handover", "scenarios.engine", None),
    ("scenarios", "run_offset_sweep", "scenarios.engine", None),
    ("scenarios", "draw_clock", "scenarios.draw_clock", None),
    ("ntp", "run_disciplined_sync", "ntp.run_disciplined_sync", _sync),
    ("calibration", "measure_sim_delay", "calibration.measure_sim_delay", _measure),
    ("calibration", "calibrate", "calibration.calibrate", None),
    ("calibration", "export_samples_csv", "calibration.export_samples_csv", None),
    ("calibration", "import_samples_csv", "calibration.import_samples_csv", None),
    ("rng", "stream", "rng.stream", None),
    ("reports", "write_json", "reports.write_json", _written),
    ("reports", "write_csv", "reports.write_csv", _written),
    ("config", "load_config", "config.load_config", None),
)

# Per-layer metrics that are counts: they must repeat exactly between passes.
COUNT_METRICS = (
    "solver.solve_position.calls",
    "solver.solve_position.iterations_mean",
    "solver.solve_position.failed",
    "receiver.step.calls",
    "receiver.step.tracking_ratio",
    "scenarios.draw_clock.calls",
    "ntp.run_disciplined_sync.calls",
    "ntp.run_disciplined_sync.polls",
    "ntp.run_disciplined_sync.unique_ratio",
    "calibration.measure_sim_delay.calls",
    "calibration.measure_sim_delay.samples",
    "calibration.measure_sim_delay.unique_ratio",
    "timebase.TimeOffset.created",
    "rng.stream.calls",
    "reports.bytes_written",
)


def install_layers(tracer: Tracer) -> None:
    from gpsimlab.timebase import TimeOffset

    tracer.install(LAYER_TARGETS)
    tracer.count_instances(TimeOffset)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, keyed by metric name."""

    def stat(key: str) -> LayerStat:
        return tracer.stats.get(key, LayerStat())

    solve = stat("solver.solve_position")
    step = stat("receiver.step")
    sync = stat("ntp.run_disciplined_sync")
    measure = stat("calibration.measure_sim_delay")
    written = stat("reports.write_json").counts.get("bytes", 0) + stat("reports.write_csv").counts.get(
        "bytes", 0
    )
    return {
        "solver.solve_position.calls": solve.calls,
        "solver.solve_position.self_s": solve.self_s,
        "solver.solve_position.us_per_call": _ratio(solve.self_s * 1e6, solve.calls),
        "solver.solve_position.iterations_mean": _ratio(solve.counts.get("iterations", 0), solve.calls),
        "solver.solve_position.failed": solve.failed,
        "receiver.step.calls": step.calls,
        "receiver.step.self_s": step.self_s,
        "receiver.step.tracking_ratio": _ratio(step.counts.get("tracking", 0), step.calls),
        "scenarios.engine.self_s": stat("scenarios.engine").self_s,
        "scenarios.draw_clock.calls": stat("scenarios.draw_clock").calls,
        "scenarios.draw_clock.self_s": stat("scenarios.draw_clock").self_s,
        "ntp.run_disciplined_sync.calls": sync.calls,
        "ntp.run_disciplined_sync.self_s": sync.self_s,
        "ntp.run_disciplined_sync.polls": sync.counts.get("polls", 0),
        "ntp.run_disciplined_sync.unique_ratio": _ratio(len(sync.distinct), sync.calls),
        "calibration.measure_sim_delay.calls": measure.calls,
        "calibration.measure_sim_delay.self_s": measure.self_s,
        "calibration.measure_sim_delay.samples": measure.counts.get("samples", 0),
        "calibration.measure_sim_delay.unique_ratio": _ratio(len(measure.distinct), measure.calls),
        "calibration.calibrate.self_s": stat("calibration.calibrate").self_s,
        "calibration.export_samples_csv.self_s": stat("calibration.export_samples_csv").self_s,
        "calibration.import_samples_csv.self_s": stat("calibration.import_samples_csv").self_s,
        "timebase.TimeOffset.created": tracer.created,
        "rng.stream.calls": stat("rng.stream").calls,
        "rng.stream.self_s": stat("rng.stream").self_s,
        "reports.write_json.self_s": stat("reports.write_json").self_s,
        "reports.write_csv.self_s": stat("reports.write_csv").self_s,
        "reports.bytes_written": written,
        "config.load_config.self_s": stat("config.load_config").self_s,
        "cli.self_s": stat(ROOT_KEY).self_s,
        "trace.observe_s": stat(OBSERVE_KEY).self_s,
        "trace.wall_s": stat(ROOT_KEY).total_s,
    }


def self_time_gap(tracer: Tracer) -> float:
    """Traced wall time minus the sum of all layer self times (0 up to rounding)."""
    return tracer.stats[ROOT_KEY].total_s - sum(s.self_s for s in tracer.stats.values())


def merge_passes(passes: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first pass (checked equal elsewhere), times as medians."""
    merged = dict(passes[0])
    for name in merged:
        if name not in COUNT_METRICS:
            merged[name] = statistics.median(p[name] for p in passes)
    return merged
