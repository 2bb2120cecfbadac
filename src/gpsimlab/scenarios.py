"""Handover scenario engine.

Every scenario is one timeline: a list of segments of live-sky
reception, blockage, and simulator coverage that ``run_timeline`` steps
the receiver through. The static handover, the offset sweep and the
outdoor comparison are one experiment, live sky then blockage then one
simulator, built by ``_handover``; the traversal cuts its path into
segments. The moving parts come from the other
modules: the composed transmit-clock error decides the receiver's
reacquisition time and, through satellite motion, the fix bias inside a
coverage; the solver turns noisy pseudoranges into fixes; the placement
layout decides where signal exists along a path.

Comparisons between clock configurations are paired: random draws that do
not depend on the configuration (sky plot, pseudorange noise, the delay
process, the sync run of a given server type) come from streams keyed
only by seed and role, so two configurations under the same seed differ
exactly where the configuration differs. Pseudorange noise is indexed by
step, not by fix count, which keeps the pairing aligned even when
reacquisition delays the first fix.

Default parameters come from ``config.DEFAULTS``; every runner takes the
whole ``Config`` so the CLI passes the loaded one straight through.
Everything is deterministic given (scenario, seed, config).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import receiver as rcv
from .calibration import apply_correction, calibrate, measure_sim_delay, true_delay_series
from .config import DEFAULTS, Config
from .ntp import default_topology, run_disciplined_sync
from .placement import ZeroSpeed
from .rng import derive_seed, stream
from .solver import SatGeometry, random_sky_geometry, solve_position
from .timebase import (
    ClockErrorChain,
    ErrorBudget,
    TimeOffset,
    compose_clock_error,
    within_budget,
)

DT_S = rcv.DT_S

# Open-sky consumer receivers average a few meters of horizontal error;
# the live-sky noise model is calibrated so its mean error matches this.
LIVE_SKY_MEAN_ERROR_M = 2.8
LIVE_SKY_SIGMA_M = LIVE_SKY_MEAN_ERROR_M * math.sqrt(2.0 / math.pi)

NTP_WARMUP_S = 640.0
REF_ERROR_BOUND_S = 200e-9

# Each of the sweep's three windows: signal, blockage, signal again.
SWEEP_WINDOW_S = 60.0
TRAVERSAL_TRIALS = 5
OUTDOOR_WINDOW_S = 5.0
OUTDOOR_THRESHOLD_M = 8.0


class EmptyFixSet(ValueError):
    """Statistics need at least one fix."""


# ---------------------------------------------------------------- statistics


@dataclass(frozen=True)
class ErrorStats:
    """Horizontal error statistics over a fix set.

    ``stddev_m`` is the population deviation, which closes the identity
    rms^2 = avg^2 + stddev^2 exactly; the sample deviation is reported
    alongside. ``p95_m`` uses the nearest-rank convention.
    """

    count: int
    avg_m: float
    stddev_m: float
    stddev_sample_m: float
    rms_m: float
    p95_m: float
    max_m: float


def nearest_rank_p95(errors: Sequence[float]) -> float:
    """95th percentile by nearest rank: the ceil(0.95 n)-th smallest value."""
    if len(errors) == 0:
        raise EmptyFixSet("p95 of an empty error set")
    ordered = sorted(errors)
    rank = math.ceil(0.95 * len(ordered))
    return float(ordered[rank - 1])


def compute_error_stats(errors: Sequence[float] | np.ndarray) -> ErrorStats:
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        raise EmptyFixSet("statistics of an empty error set")
    avg = float(errors.mean())
    mean_sq = float((errors**2).mean())
    var_pop = max(mean_sq - avg * avg, 0.0)
    std_pop = math.sqrt(var_pop)
    n = errors.size
    std_sample = math.sqrt(var_pop * n / (n - 1)) if n > 1 else 0.0
    return ErrorStats(
        count=n,
        avg_m=avg,
        stddev_m=std_pop,
        stddev_sample_m=std_sample,
        rms_m=math.sqrt(mean_sq),
        p95_m=nearest_rank_p95(errors.tolist()),
        max_m=float(errors.max()),
    )


def horizontal_error(position: np.ndarray, intended: np.ndarray) -> float:
    d = np.asarray(position, dtype=float)[:2] - np.asarray(intended, dtype=float)[:2]
    return float(np.linalg.norm(d))


# ---------------------------------------------------------- clock pipelines


@dataclass(frozen=True)
class ClockConfig:
    """Which sync path feeds a simulator and whether its delay is calibrated."""

    server_type: str
    calibrated: bool

    def __post_init__(self) -> None:
        if self.server_type not in ("public", "private"):
            raise ValueError(f"server_type must be public or private, got {self.server_type!r}")

    @property
    def label(self) -> str:
        return f"{self.server_type}/{'calibrated' if self.calibrated else 'raw'}"


PUBLIC_RAW = ClockConfig("public", False)
PUBLIC_CALIBRATED = ClockConfig("public", True)
PRIVATE_RAW = ClockConfig("private", False)
PRIVATE_CALIBRATED = ClockConfig("private", True)

# worst first, the order the matrices check their ordering flag along
ALL_CLOCK_CONFIGS = (PUBLIC_RAW, PUBLIC_CALIBRATED, PRIVATE_RAW, PRIVATE_CALIBRATED)
TRAVERSAL_CLOCK_CONFIGS = (PUBLIC_RAW, PRIVATE_RAW, PRIVATE_CALIBRATED)

CLOCK_CONFIGS_BY_LABEL = {c.label: c for c in ALL_CLOCK_CONFIGS}


@dataclass(frozen=True)
class ClockDraw:
    """One realized transmit-clock error with its composition."""

    chain: ClockErrorChain
    error: TimeOffset
    ntp_bound_s: float
    within_budget: bool

    def to_dict(self) -> dict:
        return {
            "sim_delay_ms": self.chain.sim_delay.millis,
            "ntp_error_ms": self.chain.ntp_error.millis,
            "ref_error_ms": self.chain.ref_error.millis,
            "composed_ms": self.error.millis,
            "ntp_bound_ms": self.ntp_bound_s * 1e3,
            "within_budget": self.within_budget,
        }


def draw_clock(
    seed: int,
    scope: str,
    coverage: int,
    config: ClockConfig,
    cfg: Config = DEFAULTS,
) -> ClockDraw:
    """Realize the clock-error chain of one simulator host.

    The sync run depends on the server type but not on the calibration
    flag, and the delay process depends on neither, so raw and calibrated
    variants of the same seed share their underlying randomness. The
    delay walk and the calibration run over ``cfg.delay_model.sample_count``
    samples, and the draw is judged against the configured budget.
    """
    delay = cfg.delay_model
    sync = run_disciplined_sync(
        default_topology("wireless", config.server_type),
        NTP_WARMUP_S,
        derive_seed(seed, scope, "ntp", config.server_type, coverage),
    )
    delay_rng = stream(seed, scope, "simdelay", coverage)
    true_delay = TimeOffset.from_seconds(
        float(true_delay_series(delay, delay.sample_count, delay_rng)[-1])
    )
    ref_rng = stream(seed, scope, "ref", coverage)
    ref_error = TimeOffset.from_seconds(ref_rng.uniform(-REF_ERROR_BOUND_S, REF_ERROR_BOUND_S))

    chain = ClockErrorChain(sim_delay=true_delay, ntp_error=sync.final.offset_truth, ref_error=ref_error)
    if config.calibrated:
        meas_rng = stream(seed, scope, "calmeas", coverage)
        result = calibrate(measure_sim_delay(delay, delay.sample_count, meas_rng))
        chain = apply_correction(chain, result)
    error = compose_clock_error(chain)
    return ClockDraw(
        chain=chain,
        error=error,
        ntp_bound_s=sync.final.estimated_max_error_s,
        within_budget=within_budget(error, ErrorBudget(TimeOffset.from_millis(cfg.budget.limit_ms))),
    )


# ------------------------------------------------------------------- results


@dataclass(frozen=True)
class Fix:
    t_s: float
    position: np.ndarray
    clock_bias_s: float
    source: str
    coverage: int | None


@dataclass(frozen=True)
class TransitionRow:
    t_s: float
    mode: str
    signal: bool
    offset_ms: float
    coverage: int | None


@dataclass(frozen=True)
class ScenarioResult:
    fixes: tuple[Fix, ...]
    coverage_stats: dict[int, ErrorStats]
    handover_success: dict[int, bool]
    first_fix_latency_s: dict[int, float | None]
    overall: ErrorStats | None
    clock_draws: dict[int, ClockDraw]
    transitions: tuple[TransitionRow, ...]

    def to_dict(self) -> dict:
        return {
            "fix_count": len(self.fixes),
            "coverage_stats": {str(k): v for k, v in self.coverage_stats.items()},
            "handover_success": {str(k): v for k, v in self.handover_success.items()},
            "first_fix_latency_s": {str(k): v for k, v in self.first_fix_latency_s.items()},
            "overall": self.overall,
            "clock": {str(k): v for k, v in self.clock_draws.items()},
        }


def _finalize(
    fixes: list[Fix],
    transitions: list[TransitionRow],
    intended_by_coverage: dict[int, np.ndarray],
    entry_times: dict[int, float],
    clock_draws: dict[int, ClockDraw],
) -> ScenarioResult:
    coverage_stats: dict[int, ErrorStats] = {}
    handover: dict[int, bool] = {}
    latency: dict[int, float | None] = {}
    all_errors: list[float] = []
    for k, intended in intended_by_coverage.items():
        errors = [horizontal_error(f.position, intended) for f in fixes if f.coverage == k]
        handover[k] = bool(errors)
        if errors:
            coverage_stats[k] = compute_error_stats(errors)
            all_errors.extend(errors)
            first_t = min(f.t_s for f in fixes if f.coverage == k)
            latency[k] = first_t - entry_times[k]
        else:
            latency[k] = None
    overall = compute_error_stats(all_errors) if all_errors else None
    return ScenarioResult(
        fixes=tuple(fixes),
        coverage_stats=coverage_stats,
        handover_success=handover,
        first_fix_latency_s=latency,
        overall=overall,
        clock_draws=clock_draws,
        transitions=tuple(transitions),
    )


def _simulator_fix(
    t_s: float, pseudoranges: np.ndarray, sky: SatGeometry, intended: np.ndarray, coverage: int
) -> Fix:
    solution = solve_position(pseudoranges, sky, initial_guess=intended)
    return Fix(t_s, solution.position, solution.clock_bias.seconds, "simulator", coverage)


# ------------------------------------------------------------ timeline engine


@dataclass(frozen=True)
class Segment:
    """A stretch of constant reception: ``steps`` quanta of DT_S.

    ``offset`` is the clock offset the receiver is handed during the
    stretch and that its transition rows record; ``coverage`` is the
    simulator it comes from, None for live sky and blockage.
    """

    steps: int
    signal: bool
    offset: TimeOffset = TimeOffset.zero()
    coverage: int | None = None


def run_timeline(
    segments: Sequence[Segment], profile: rcv.ReceiverProfile, state: rcv.ReceiverState
) -> tuple[list[float], list[list[tuple[int, float]]], list[TransitionRow]]:
    """Step the receiver through ``segments`` in order.

    Returns three lists: the time each segment starts at (the end of the
    previous segment's last step); per segment, the ``(step in segment,
    t)`` of every step that ends in TRACKING, i.e. of every fix; and the
    transition rows, one per mode change, stamped at the end of the step
    that made it. Time advances by repeated addition of DT_S, never by
    whole segments, so every t is the same float however the timeline is
    cut.
    """
    t = 0.0
    last_mode = None
    starts: list[float] = []
    fixes: list[list[tuple[int, float]]] = []
    transitions: list[TransitionRow] = []
    for seg in segments:
        starts.append(t)
        seg_fixes = []
        for j in range(seg.steps):
            t += DT_S
            state = rcv.step(state, profile, seg.signal, seg.offset)
            if state.mode is not last_mode:
                transitions.append(
                    TransitionRow(t, state.mode.value, seg.signal, seg.offset.millis, seg.coverage)
                )
                last_mode = state.mode
            if state.mode is rcv.Mode.TRACKING:
                seg_fixes.append((j, t))
        fixes.append(seg_fixes)
    return starts, fixes, transitions


# ------------------------------------------------------------ static handover


def _handover(
    scope: str,
    seed: int,
    offset: TimeOffset,
    profile: rcv.ReceiverProfile,
    start: rcv.ReceiverState,
    steps: tuple[int, int, int],
    cfg: Config,
    clock_draws: dict[int, ClockDraw],
) -> ScenarioResult:
    """Live sky, blockage, then one simulator transmitting with ``offset``.

    ``steps`` holds the three segment lengths in DT_S quanta; sky and
    noise depend only on (seed, scope). The simulator window is coverage
    0 at the origin; noise and satellite count come from ``cfg.handover``.
    """
    h = cfg.handover
    live_steps, blocked_steps, sim_steps = steps
    sky = random_sky_geometry(stream(seed, scope, "sky"), n_sats=h.n_sats)
    intended = np.zeros(3)
    base_pr = np.linalg.norm(sky.advanced(offset).positions - intended, axis=1)
    pr_noise = stream(seed, scope, "prnoise").normal(0.0, h.pr_noise_m, (sim_steps, h.n_sats))
    live_noise = stream(seed, scope, "live").normal(0.0, LIVE_SKY_SIGMA_M, (live_steps, 2))

    segments = (
        Segment(live_steps, True),
        Segment(blocked_steps, False, offset),
        Segment(sim_steps, True, offset, 0),
    )
    starts, fix_steps, transitions = run_timeline(segments, profile, start)
    fixes = [
        Fix(t, np.array([live_noise[i, 0], live_noise[i, 1], 0.0]), 0.0, "live_sky", None)
        for i, t in fix_steps[0]
    ]
    fixes += [_simulator_fix(t, base_pr + pr_noise[i], sky, intended, 0) for i, t in fix_steps[2]]
    return _finalize(fixes, transitions, {0: intended}, {0: starts[2]}, clock_draws)


def run_static_handover(
    config: ClockConfig,
    profile: rcv.ReceiverProfile = rcv.DEDICATED,
    seed: int = 0,
    cfg: Config = DEFAULTS,
) -> ScenarioResult:
    """Live-sky reception, full blockage, then one simulator coverage.

    The receiver starts tracking live sky at a fixed position. After the
    blockage it reacquires the simulated signal, whose clock error is
    drawn through the configured pipeline, and the fixes over the
    simulator window form the reported statistics (coverage index 0).
    Segment lengths come from ``cfg.handover``.
    """
    h = cfg.handover
    draw = draw_clock(seed, "static", 0, config, cfg)
    steps = (round(h.live_s / DT_S), round(h.blocked_s / DT_S), round(h.sim_s / DT_S))
    return _handover(
        "static", seed, draw.error, profile, rcv.ReceiverState.tracking(), steps, cfg, {0: draw}
    )


@dataclass(frozen=True)
class MatrixCell:
    label: str
    per_trial_p95_m: tuple[float, ...]
    median_p95_m: float
    median_avg_m: float
    max_m: float


@dataclass(frozen=True)
class MatrixResult:
    """A static handover or traversal matrix: one cell per clock configuration."""

    cells: tuple[MatrixCell | TraversalCell, ...]
    trials: int
    ordering_ok_every_trial: bool


def run_static_handover_matrix(
    trials: int | None = None,
    seed: int = 0,
    profile: rcv.ReceiverProfile = rcv.DEDICATED,
    cfg: Config = DEFAULTS,
) -> MatrixResult:
    """All clock configurations over paired trial seeds.

    ``trials`` defaults to ``cfg.handover.trials``. The ordering flag
    records whether every trial kept strictly decreasing p95 along
    ALL_CLOCK_CONFIGS, which runs worst-first.
    """
    if trials is None:
        trials = cfg.handover.trials
    p95s: dict[str, list[float]] = {c.label: [] for c in ALL_CLOCK_CONFIGS}
    avgs: dict[str, list[float]] = {c.label: [] for c in ALL_CLOCK_CONFIGS}
    maxes: dict[str, float] = {c.label: 0.0 for c in ALL_CLOCK_CONFIGS}
    ordering_ok = True
    for trial in range(trials):
        trial_seed = derive_seed(seed, "handover_matrix", trial)
        trial_p95 = []
        for config in ALL_CLOCK_CONFIGS:
            result = run_static_handover(config, profile, trial_seed, cfg)
            stats = result.coverage_stats.get(0)
            if stats is None:
                raise EmptyFixSet(f"no fixes for {config.label} in trial {trial}")
            p95s[config.label].append(stats.p95_m)
            avgs[config.label].append(stats.avg_m)
            maxes[config.label] = max(maxes[config.label], stats.max_m)
            trial_p95.append(stats.p95_m)
        if any(a <= b for a, b in zip(trial_p95, trial_p95[1:])):
            ordering_ok = False

    cells = tuple(
        MatrixCell(
            label=c.label,
            per_trial_p95_m=tuple(p95s[c.label]),
            median_p95_m=float(np.median(p95s[c.label])),
            median_avg_m=float(np.median(avgs[c.label])),
            max_m=maxes[c.label],
        )
        for c in ALL_CLOCK_CONFIGS
    )
    return MatrixResult(cells=cells, trials=trials, ordering_ok_every_trial=ordering_ok)


# --------------------------------------------------------------- offset sweep


@dataclass(frozen=True)
class SweepRow:
    offset_ms: float
    mean_reacq_s: float
    std_reacq_s: float
    mean_error_m: float
    std_error_m: float


@dataclass(frozen=True)
class SweepResult:
    receiver: str
    rows: tuple[SweepRow, ...]
    trials: int


def run_offset_sweep(
    profile: rcv.ReceiverProfile = rcv.DEDICATED,
    trials: int | None = None,
    seed: int = 0,
    cfg: Config = DEFAULTS,
) -> SweepResult:
    """Controlled clock-offset sweep.

    Per trial and offset: transmit with zero offset, block, then transmit
    with the offset under test, SWEEP_WINDOW_S each. Reacquisition time is
    the gap from signal restoration to the first fix; position errors
    cover the fixes of the final window. Sky plots and noise are drawn per
    trial only, so every offset within a trial sees identical randomness
    and rows are directly comparable across the grid. The offset grid
    comes from ``cfg.sweep``, and so does ``trials`` unless given.
    """
    offsets = [TimeOffset.from_millis(ms) for ms in cfg.sweep.offsets_ms()]
    if trials is None:
        trials = cfg.sweep.trials
    steps = (round(SWEEP_WINDOW_S / DT_S),) * 3
    cold = rcv.ReceiverState.cold(profile)
    trial_seeds = [derive_seed(seed, "sweep", trial) for trial in range(trials)]

    rows = []
    for offset in offsets:
        reacq, errors = [], []
        for trial_seed in trial_seeds:
            result = _handover("sweep", trial_seed, offset, profile, cold, steps, cfg, {})
            if 0 not in result.coverage_stats:
                raise EmptyFixSet(f"no reacquisition at offset {offset.millis} ms")
            reacq.append(result.first_fix_latency_s[0])
            errors.append(result.coverage_stats[0].avg_m)
        rows.append(
            SweepRow(
                offset_ms=offset.millis,
                mean_reacq_s=float(np.mean(reacq)),
                std_reacq_s=float(np.std(reacq)),
                mean_error_m=float(np.mean(errors)),
                std_error_m=float(np.std(errors)),
            )
        )
    return SweepResult(receiver=profile.name, rows=tuple(rows), trials=trials)


# ---------------------------------------------------------- dynamic traversal


@dataclass(frozen=True)
class TunnelLayout:
    """Coverages along a path with live sky outside the portals."""

    centers_m: tuple[float, ...]
    radius_m: float
    portal_in_m: float
    portal_out_m: float

    def __post_init__(self) -> None:
        if self.radius_m <= 0:
            raise ValueError(f"radius_m must be positive, got {self.radius_m}")
        centers = list(self.centers_m)
        if centers != sorted(centers):
            raise ValueError("coverage centers must be ascending")
        if self.portal_in_m >= self.portal_out_m:
            raise ValueError("portal_in_m must lie before portal_out_m")

    def coverage_at(self, s_m: float) -> int | None:
        for k, center in enumerate(self.centers_m):
            if abs(s_m - center) <= self.radius_m:
                return k
        return None

    def source_at(self, s_m: float) -> tuple[str, int | None]:
        if s_m < self.portal_in_m or s_m > self.portal_out_m:
            return "live_sky", None
        k = self.coverage_at(s_m)
        if k is None:
            return "blocked", None
        return "simulator", k


@dataclass(frozen=True)
class PathScenario:
    """A traversal: path length, crossing speed, layout, receiver, clock."""

    length_m: float
    speed_ms: float
    layout: TunnelLayout
    profile: rcv.ReceiverProfile = rcv.DEDICATED
    clock: ClockConfig = PRIVATE_CALIBRATED
    pr_noise_m: float = DEFAULTS.handover.pr_noise_m

    def __post_init__(self) -> None:
        if self.length_m <= 0:
            raise ValueError(f"length_m must be positive, got {self.length_m}")
        if self.speed_ms <= 0:
            raise ZeroSpeed(f"speed_ms must be positive, got {self.speed_ms}")


def run_dynamic_traversal(
    scenario: PathScenario, seed: int = 0, cfg: Config = DEFAULTS
) -> ScenarioResult:
    """Drive or walk the path once and collect per-coverage statistics.

    Each coverage has its own simulator host, so each gets an independent
    clock draw under the scenario's configuration. Fixes inside a
    coverage are solved against that simulator's intended position, the
    coverage center; fixes are never attributed to a coverage the path
    position is outside of. A coverage is entered when the last step
    outside it ends, the same instant the static handover restores
    signal at. The satellite count comes from ``cfg.handover``.
    """
    layout = scenario.layout
    n_sats = cfg.handover.n_sats

    # integrate the path first so noise arrays can be sized up front
    positions = []
    s = 0.0
    while s < scenario.length_m:
        s += scenario.speed_ms * DT_S
        positions.append(s)
    n_steps = len(positions)

    draws = {
        k: draw_clock(seed, "dynamic", k, scenario.clock, cfg) for k in range(len(layout.centers_m))
    }
    sky = random_sky_geometry(stream(seed, "dynamic", "sky"), n_sats=n_sats)
    intended = {
        k: np.array([center, 0.0, 0.0]) for k, center in enumerate(layout.centers_m)
    }
    base_pr = {
        k: np.linalg.norm(sky.advanced(draws[k].error).positions - intended[k], axis=1)
        for k in draws
    }
    pr_noise = stream(seed, "dynamic", "prnoise").normal(0.0, scenario.pr_noise_m, (n_steps, n_sats))
    live_noise = stream(seed, "dynamic", "live").normal(0.0, LIVE_SKY_SIGMA_M, (n_steps, 2))

    segments = []
    for (source, k), run in itertools.groupby(layout.source_at(pos) for pos in positions):
        steps = sum(1 for _ in run)
        if source == "simulator":
            segments.append(Segment(steps, True, draws[k].error, k))
        else:
            segments.append(Segment(steps, source == "live_sky"))
    starts, fix_steps, transitions = run_timeline(
        segments, scenario.profile, rcv.ReceiverState.tracking()
    )

    # noise rows are indexed by the global step
    fixes: list[Fix] = []
    entry_times: dict[int, float] = {}
    first_step = 0
    for seg, start, seg_fixes in zip(segments, starts, fix_steps):
        k = seg.coverage
        if k is not None:
            entry_times.setdefault(k, start)
        for j, t in seg_fixes:
            i = first_step + j
            if k is None:
                pos = np.array([positions[i] + live_noise[i, 0], live_noise[i, 1], 0.0])
                fixes.append(Fix(t, pos, 0.0, "live_sky", None))
            else:
                fixes.append(_simulator_fix(t, base_pr[k] + pr_noise[i], sky, intended[k], k))
        first_step += seg.steps

    return _finalize(fixes, transitions, intended, entry_times, draws)


def default_driving_scenario() -> PathScenario:
    """Three coverages 500 m apart crossed at 110 km/h with a timing receiver."""
    return PathScenario(
        length_m=1900.0,
        speed_ms=110.0 * 1000.0 / 3600.0,
        layout=TunnelLayout(
            centers_m=(450.0, 950.0, 1450.0),
            radius_m=80.0,
            portal_in_m=200.0,
            portal_out_m=1700.0,
        ),
        pr_noise_m=2.5,
    )


def default_pedestrian_scenario() -> PathScenario:
    """Walking pace through a tighter layout with a phone-grade receiver.

    Gaps are kept short enough that every inter-coverage blockage stays
    within t_max at 1.4 m/s, so each coverage is entered warm.
    """
    return PathScenario(
        length_m=800.0,
        speed_ms=1.4,
        layout=TunnelLayout(
            centers_m=(165.0, 415.0, 665.0),
            radius_m=80.0,
            portal_in_m=40.0,
            portal_out_m=750.0,
        ),
        profile=rcv.SMARTPHONE,
        pr_noise_m=6.0,
    )


@dataclass(frozen=True)
class TraversalCell:
    label: str
    per_trial_avg_m: tuple[float, ...]
    median_avg_m: float
    handover_success_all: bool


def run_traversal_matrix(
    scenario: PathScenario,
    trials: int | None = None,
    seed: int = 0,
    cfg: Config = DEFAULTS,
) -> MatrixResult:
    """The traversal under TRAVERSAL_CLOCK_CONFIGS, paired per trial.

    ``trials`` defaults to TRAVERSAL_TRIALS.
    """
    if trials is None:
        trials = TRAVERSAL_TRIALS
    avgs: dict[str, list[float]] = {c.label: [] for c in TRAVERSAL_CLOCK_CONFIGS}
    success: dict[str, bool] = {c.label: True for c in TRAVERSAL_CLOCK_CONFIGS}
    ordering_ok = True
    for trial in range(trials):
        trial_seed = derive_seed(seed, "traversal_matrix", trial)
        trial_avgs = []
        for config in TRAVERSAL_CLOCK_CONFIGS:
            result = run_dynamic_traversal(replace(scenario, clock=config), trial_seed, cfg)
            if result.overall is None:
                raise EmptyFixSet(f"no in-coverage fixes for {config.label} in trial {trial}")
            avgs[config.label].append(result.overall.avg_m)
            success[config.label] &= all(result.handover_success.values())
            trial_avgs.append(result.overall.avg_m)
        if any(a <= b for a, b in zip(trial_avgs, trial_avgs[1:])):
            ordering_ok = False
    cells = tuple(
        TraversalCell(
            label=c.label,
            per_trial_avg_m=tuple(avgs[c.label]),
            median_avg_m=float(np.median(avgs[c.label])),
            handover_success_all=success[c.label],
        )
        for c in TRAVERSAL_CLOCK_CONFIGS
    )
    return MatrixResult(cells=cells, trials=trials, ordering_ok_every_trial=ordering_ok)


# ---------------------------------------------------------- outdoor comparison


@dataclass(frozen=True)
class OutdoorComparison:
    """Simulated coverage versus live sky over the same short window."""

    live: ErrorStats
    simulated: ErrorStats
    window_s: float
    threshold_m: float
    fit_for_outdoor_use: bool


def run_outdoor_comparison(seed: int = 0, cfg: Config = DEFAULTS) -> OutdoorComparison:
    """Same reception window under live sky and under a private/calibrated simulator.

    The handover experiment with a zero-step blockage: the receiver
    tracks throughout, so every step of both OUTDOOR_WINDOW_S windows is
    a fix. The fitness flag asks whether the simulated average stays an
    order of magnitude under the default coverage radius, i.e. whether
    simulator reception is positionally indistinguishable from open sky
    at the scale the deployment cares about.
    """
    draw = draw_clock(seed, "outdoor", 0, PRIVATE_CALIBRATED, cfg)
    window = round(OUTDOOR_WINDOW_S / DT_S)
    tracking = rcv.ReceiverState.tracking()
    steps = (window, 0, window)
    result = _handover("outdoor", seed, draw.error, rcv.DEDICATED, tracking, steps, cfg, {0: draw})
    live_stats = compute_error_stats(
        [horizontal_error(f.position, np.zeros(3)) for f in result.fixes if f.coverage is None]
    )
    sim_stats = result.coverage_stats[0]
    return OutdoorComparison(
        live=live_stats,
        simulated=sim_stats,
        window_s=OUTDOOR_WINDOW_S,
        threshold_m=OUTDOOR_THRESHOLD_M,
        fit_for_outdoor_use=sim_stats.avg_m <= OUTDOOR_THRESHOLD_M,
    )
