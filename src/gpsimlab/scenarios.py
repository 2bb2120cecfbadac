"""Handover scenario engine.

Every scenario is one timeline: a plan of segments of live-sky
reception, blockage, and simulator coverage that ``run_timeline``
advances the receiver through a segment at a time, with the clock
offset of each coverage taken from a ``{coverage: offset_ns}`` map,
and one builder, ``_handover``, that runs it under each map it is
given, solves the fixes of all of them against a trial's sky and noise
(``draw_sky``) and turns them into statistics per map. The static
handover, the offset sweep and the outdoor comparison hand it live sky,
blockage and one simulator at the origin; a traversal cuts its path
through the corridor ``placement.corridor_layout`` lays out for a
deployment into segments, one coverage per simulator. The moving parts
come from the other modules: the composed transmit-clock error decides
the receiver's reacquisition time and, through satellite motion, the fix
bias inside a coverage; the solver turns noisy pseudoranges into fixes;
the placement layout decides where signal exists along a path.

Comparisons between clock configurations are paired: random draws that do
not depend on the configuration (sky plot, pseudorange noise, the delay
process, the sync run of a given server type) come from streams keyed
only by seed and role, so two configurations under the same seed differ
exactly where the configuration differs. A segment plan holds no offset,
so each scenario builds one plan for every configuration and every sweep
offset. ``_paired_runs`` pairs the static handover, the traversal and the
outdoor comparison: ``draw_clock`` realizes every configuration of one
host in one call, ``draw_sky`` draws the sky and noise once for all of
them, and ``_handover`` runs each configuration's timeline and solves the
simulator fixes of all of them in one stacked call, so each shared piece
is computed once per trial and host. The sweep keeps one offset per
call: its grid of up to MAX_TRIAL_RUNS runs would stack that many
timelines of fixes. Pseudorange noise is indexed by simulator step, not
by fix count, which keeps the pairing aligned even when reacquisition
delays the first fix.

Default parameters come from ``config.DEFAULTS``. A runner takes a seed
and the whole ``Config`` and nothing that overrides it: trial counts and
the receiver are read from the config, into which the CLI folds its
flags. Everything is deterministic given (scenario, seed, config).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import receiver as rcv
from .calibration import calibrate, measured_delays_ns, true_delay_series
from .config import DEFAULTS, MAX_MATRIX_STEPS, MAX_TIMELINE_STEPS, Config, ConfigError, DeploymentConfig
from .ntp import default_topology, run_disciplined_sync
from .placement import ZeroSpeed, corridor_layout, kmh_to_ms
from .rng import derive_seed, stream
from .solver import SatGeometry, random_sky_geometry, solve_position
from .timebase import NS_PER_MS, ns_from_millis, ns_from_seconds, within_budget

DT_S = rcv.DT_S

# Open-sky consumer receivers average a few meters of horizontal error;
# the live-sky noise model is calibrated so its mean error matches this.
LIVE_SKY_MEAN_ERROR_M = 2.8
LIVE_SKY_SIGMA_M = LIVE_SKY_MEAN_ERROR_M * math.sqrt(2.0 / math.pi)

NTP_WARMUP_S = 640.0
REF_ERROR_BOUND_S = 200e-9

# Each of the sweep's three windows: signal, blockage, signal again.
SWEEP_WINDOW_S = 60.0
# Pseudorange noise of a driving crossing; the pedestrian preset sees more.
DRIVING_PR_NOISE_M = 2.5
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


def horizontal_distances(positions: np.ndarray, intended: np.ndarray) -> np.ndarray:
    """Per row of ``positions``, the x-y distance from ``intended``.

    One dot product per row rounds as ``np.linalg.norm`` of the row does (BLAS
    ``ddot``); ``np.linalg.norm(d, axis=1)`` differs in ~8% of a matrix's fixes.
    """
    d = positions[:, :2] - intended[:2]
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


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
    """One realized transmit-clock error and its three parts, in integer ns."""

    sim_delay_ns: int
    ntp_error_ns: int
    ref_error_ns: int
    ntp_bound_s: float
    within_budget: bool

    @property
    def error_ns(self) -> int:
        """The composed transmit-clock error, the exact sum of the three parts."""
        return self.sim_delay_ns + self.ntp_error_ns + self.ref_error_ns

    def to_dict(self) -> dict:
        return {
            "sim_delay_ms": self.sim_delay_ns / NS_PER_MS,
            "ntp_error_ms": self.ntp_error_ns / NS_PER_MS,
            "ref_error_ms": self.ref_error_ns / NS_PER_MS,
            "composed_ms": self.error_ns / NS_PER_MS,
            "ntp_bound_ms": self.ntp_bound_s * 1e3,
            "within_budget": self.within_budget,
        }


def draw_clock(
    seed: int,
    scope: str,
    coverage: int,
    configs: ClockConfig | Sequence[ClockConfig],
    cfg: Config = DEFAULTS,
) -> ClockDraw | tuple[ClockDraw, ...]:
    """Realize the clock-error chain of one simulator host under each of ``configs``.

    The sync run depends on the server type but not on the calibration
    flag, and the delay process depends on neither, so every piece is
    computed once for all configurations: one sync run per server type,
    one delay walk, one reference error and one calibration. Raw and
    calibrated variants of the same seed therefore share their underlying
    randomness. The delay walk and the calibration run over
    ``cfg.delay_model.sample_count`` samples, and each draw is judged
    against the configured budget. One ClockConfig gives one draw, a
    sequence a tuple of draws in its order.
    """
    single = isinstance(configs, ClockConfig)
    wanted = (configs,) if single else tuple(configs)
    delay = cfg.delay_model
    syncs = {
        server: run_disciplined_sync(
            default_topology("wireless", server),
            NTP_WARMUP_S,
            derive_seed(seed, scope, "ntp", server, coverage),
        ).final
        for server in dict.fromkeys(c.server_type for c in wanted)
    }
    delay_rng = stream(seed, scope, "simdelay", coverage)
    true_delay_ns = ns_from_seconds(float(true_delay_series(delay, delay.sample_count, delay_rng)[-1]))
    ref_rng = stream(seed, scope, "ref", coverage)
    ref_error_ns = ns_from_seconds(ref_rng.uniform(-REF_ERROR_BOUND_S, REF_ERROR_BOUND_S))
    correction_ns = 0
    if any(c.calibrated for c in wanted):
        meas_rng = stream(seed, scope, "calmeas", coverage)
        correction_ns = calibrate(measured_delays_ns(delay, delay.sample_count, meas_rng)).correction_ns
    limit_ns = ns_from_millis(cfg.budget.limit_ms)

    draws = []
    for config in wanted:
        sync = syncs[config.server_type]
        sim_delay_ns = true_delay_ns - correction_ns if config.calibrated else true_delay_ns
        parts = (sim_delay_ns, sync.offset_truth_ns, ref_error_ns)
        draws.append(ClockDraw(*parts, sync.estimated_max_error_s, within_budget(sum(parts), limit_ns)))
    return draws[0] if single else tuple(draws)


# ------------------------------------------------------------------- results


@dataclass(frozen=True)
class TransitionRow:
    t_s: float
    mode: str
    signal: bool
    offset_ms: float
    coverage: int | None


@dataclass(frozen=True)
class ScenarioResult:
    """Per-coverage statistics over the fixes, four columns in time order.

    ``coverage`` holds the simulator each fix was solved against, -1 for a
    live-sky fix, whose ``clock_bias_s`` is 0.
    """

    t_s: np.ndarray
    positions: np.ndarray
    clock_bias_s: np.ndarray
    coverage: np.ndarray
    coverage_stats: dict[int, ErrorStats]
    handover_success: dict[int, bool]
    first_fix_latency_s: dict[int, float | None]
    overall: ErrorStats | None
    clock_draws: dict[int, ClockDraw]
    transitions: tuple[TransitionRow, ...]

    def to_dict(self) -> dict:
        return {
            "fix_count": len(self.t_s),
            "coverage_stats": {str(k): v for k, v in self.coverage_stats.items()},
            "handover_success": {str(k): v for k, v in self.handover_success.items()},
            "first_fix_latency_s": {str(k): v for k, v in self.first_fix_latency_s.items()},
            "overall": self.overall,
            "clock": {str(k): v for k, v in self.clock_draws.items()},
        }


# ------------------------------------------------------------ timeline engine


@dataclass(frozen=True)
class Segment:
    """A stretch of constant reception: ``steps`` quanta of DT_S.

    ``coverage`` is the simulator the signal comes from, None for live sky
    and blockage. A segment carries no clock offset: one segment plan
    serves every clock configuration, and the offset of a simulator
    segment comes from the map of offsets per coverage the plan is run
    with. Live sky and blockage run with offset 0.
    """

    steps: int
    signal: bool
    coverage: int | None = None


def run_timeline(
    segments: Sequence[Segment],
    offsets_ns: Mapping[int, int],
    profile: rcv.ReceiverProfile,
    state: rcv.ReceiverState,
) -> tuple[np.ndarray, np.ndarray, list[TransitionRow]]:
    """Advance the receiver through ``segments`` in order, a segment at a time.

    A simulator segment transmits with ``offsets_ns[seg.coverage]``, which
    its transition rows record. Returns, per step of the whole timeline,
    the time the step ends at and whether it ends in TRACKING, i.e. makes
    a fix; and the transition rows, one per mode change, stamped at the
    end of the step that made it. The end times are one cumulative sum of
    DT_S, which adds step by step, so every t is the same float however
    the timeline is cut.
    """
    t = np.cumsum(np.full(sum(seg.steps for seg in segments), DT_S))
    tracking = np.zeros(t.size, dtype=bool)
    transitions: list[TransitionRow] = []
    last_mode = None
    start = 0
    for seg in segments:
        if seg.steps == 0:
            continue
        offset_ns = 0 if seg.coverage is None else offsets_ns[seg.coverage]
        state, runs = rcv.advance(state, profile, seg.signal, offset_ns, seg.steps)
        for i, mode in runs:
            if mode is not last_mode:
                end = float(t[start + i])
                transitions.append(
                    TransitionRow(end, mode.value, seg.signal, offset_ns / NS_PER_MS, seg.coverage)
                )
                last_mode = mode
        # TRACKING, when reached, is the segment's last run
        first, mode = runs[-1]
        tracking[start + first : start + seg.steps] = mode is rcv.Mode.TRACKING
        start += seg.steps
    return t, tracking, transitions


# ------------------------------------------------------------ scenario builder


def _step_kinds(segments: Sequence[Segment]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per step of the timeline: its coverage (-1 off simulator), whether it is a
    simulator step and whether it is a live-sky one.
    """
    steps = [seg.steps for seg in segments]
    coverage = np.repeat([-1 if seg.coverage is None else seg.coverage for seg in segments], steps)
    simulated = coverage >= 0
    return coverage, simulated, np.repeat([seg.signal for seg in segments], steps) & ~simulated


@dataclass(frozen=True)
class SkyDraw:
    """The sky and noise of one trial, which every clock configuration shares.

    ``pr_noise`` holds one row per simulator step of the timeline and
    ``live_noise`` one per live-sky step, in time order.
    """

    sky: SatGeometry
    pr_noise: np.ndarray
    live_noise: np.ndarray


def draw_sky(scope: str, seed: int, segments: Sequence[Segment], pr_noise_m: float, cfg: Config) -> SkyDraw:
    """Draw the sky plot and noise rows of ``segments`` under (seed, scope).

    Only the segments' lengths and kinds are read, so one draw serves
    every clock configuration of a trial. The satellite count comes from
    ``cfg.handover``.
    """
    n_sats = cfg.handover.n_sats
    _, simulated, live = _step_kinds(segments)
    return SkyDraw(
        random_sky_geometry(stream(seed, scope, "sky"), n_sats=n_sats),
        stream(seed, scope, "prnoise").normal(0.0, pr_noise_m, (simulated.sum(), n_sats)),
        stream(seed, scope, "live").normal(0.0, LIVE_SKY_SIGMA_M, (live.sum(), 2)),
    )


def _handover(
    segments: Sequence[Segment],
    offset_maps: Sequence[Mapping[int, int]],
    centers_m: Sequence[float],
    speed_ms: float,
    profile: rcv.ReceiverProfile,
    start: rcv.ReceiverState,
    drawn: SkyDraw,
    clock_draws: Sequence[dict[int, ClockDraw]],
) -> list[ScenarioResult]:
    """Advance the receiver through ``segments`` once per offset map and solve every fix against ``drawn``.

    Under each of ``offset_maps``, coverage k is a simulator at
    ``(centers_m[k], 0, 0)`` transmitting with that map's offset of k;
    live-sky fixes scatter around the receiver, which moves along x at
    ``speed_ms``. Pseudorange noise rows are indexed by simulator step and
    live-sky rows by live step, both counted across the timeline, so one
    coverage reads what its windows use under every map. The simulator
    fixes of all maps are solved in one stacked call and split back; a row
    solves to the same bits alone or in any stack. Returns one result per
    map, carrying the matching entry of ``clock_draws``.
    """
    sky = drawn.sky
    centers = np.array([[center, 0.0, 0.0] for center in centers_m])
    step_coverage, simulated, live = _step_kinds(segments)
    # a step's noise row counts the steps of its kind before it
    noise_row = np.where(simulated, np.cumsum(simulated), np.cumsum(live)) - 1

    runs = []
    for offsets_ns in offset_maps:
        # the step end times ``t`` are the same under every map
        t, tracking, transitions = run_timeline(segments, offsets_ns, profile, start)
        fix = np.flatnonzero(tracking)
        runs.append((fix, transitions))
    # the simulator fixes of every map in one stacked solve, a map's rows after the previous map's
    sim_fixes = [fix[simulated[fix]] for fix, _ in runs]
    pr = np.empty((sum(steps.size for steps in sim_fixes), len(sky)))
    guess = np.empty((pr.shape[0], 3))
    end = 0
    for offsets_ns, steps in zip(offset_maps, sim_fixes):
        base_pr = np.array(
            [np.linalg.norm(sky.advanced(offsets_ns[k]).positions - c, axis=1) for k, c in enumerate(centers)]
        )
        rows, hosts = slice(end, end + steps.size), step_coverage[steps]
        np.take(base_pr, hosts, axis=0, out=pr[rows])
        pr[rows] += drawn.pr_noise[noise_row[steps]]
        guess[rows] = centers[hosts]
        end = rows.stop
    solved = solve_position(pr, sky, initial_guess=guess)

    # a coverage is entered when the step before its first step ends
    step_start = np.concatenate(([0.0], t[:-1]))
    results = []
    end = 0
    for (fix, transitions), draws in zip(runs, clock_draws):
        t_s, coverage, row = t[fix], step_coverage[fix], noise_row[fix]
        sim = coverage >= 0
        rows = slice(end, end + np.count_nonzero(sim))
        end = rows.stop
        positions, clock_bias_s = np.zeros((fix.size, 3)), np.zeros(fix.size)
        positions[sim], clock_bias_s[sim] = solved.position[rows], solved.clock_bias_s[rows]
        positions[~sim, :2] = drawn.live_noise[row[~sim]]
        positions[~sim, 0] += speed_ms * t_s[~sim]
        stats: dict[int, ErrorStats] = {}
        latency: dict[int, float | None] = dict.fromkeys(range(len(centers)))
        errors = []
        for k, center in enumerate(centers):
            mine = coverage == k
            if mine.any():
                errors.append(horizontal_distances(positions[mine], center))
                stats[k] = compute_error_stats(errors[-1])
                latency[k] = float(t_s[mine][0] - step_start[np.argmax(step_coverage == k)])
        if len(errors) > 1:
            overall = compute_error_stats(np.concatenate(errors))
        else:
            # one coverage's errors are all the errors, so its stats are the overall stats
            overall = next(iter(stats.values()), None)
        results.append(
            ScenarioResult(
                t_s=t_s,
                positions=positions,
                clock_bias_s=clock_bias_s,
                coverage=coverage,
                coverage_stats=stats,
                handover_success={k: k in stats for k in latency},
                first_fix_latency_s=latency,
                overall=overall,
                clock_draws=draws,
                transitions=tuple(transitions),
            )
        )
    return results


def _live_blocked_simulator(live_s: float, blocked_s: float, sim_s: float) -> tuple[Segment, ...]:
    """Live sky, blockage, then simulator 0, each rounded to whole steps of DT_S."""
    return (
        Segment(round(live_s / DT_S), True),
        Segment(round(blocked_s / DT_S), False),
        Segment(round(sim_s / DT_S), True, 0),
    )


def _paired_runs(
    scope: str,
    seed: int,
    configs: Sequence[ClockConfig],
    segments: Sequence[Segment],
    centers_m: Sequence[float],
    speed_ms: float,
    profile: rcv.ReceiverProfile,
    pr_noise_m: float,
    cfg: Config,
) -> list[ScenarioResult]:
    """One segment plan under each of ``configs``, starting from tracking.

    Host k, the simulator at ``centers_m[k]``, draws its clock chain once
    for all configurations under (seed, scope, k); the sky and noise are
    drawn once under (seed, scope). A configuration's run reads only its
    draws' offsets, and one ``_handover`` call solves the fixes of every
    configuration in one stack, so a matrix holds one trial's fixes of all
    its configurations at a time. Returns one result per configuration.
    """
    host_draws = [draw_clock(seed, scope, k, configs, cfg) for k in range(len(centers_m))]
    drawn = draw_sky(scope, seed, segments, pr_noise_m, cfg)
    clock_draws = [dict(enumerate(draws)) for draws in zip(*host_draws)]
    offset_maps = [{k: draw.error_ns for k, draw in draws.items()} for draws in clock_draws]
    tracking = rcv.ReceiverState.tracking()
    return _handover(segments, offset_maps, centers_m, speed_ms, profile, tracking, drawn, clock_draws)


# ------------------------------------------------------------ static handover


def run_static_handover(config: ClockConfig, seed: int = 0, cfg: Config = DEFAULTS) -> ScenarioResult:
    """Live-sky reception, full blockage, then one simulator coverage.

    The receiver starts tracking live sky at a fixed position. After the
    blockage it reacquires the simulated signal, whose clock error is
    drawn through the configured pipeline, and the fixes over the
    simulator window form the reported statistics (coverage index 0).
    Segment lengths come from ``cfg.handover``, the receiver from
    ``cfg.deployment``.
    """
    return _static_handovers((config,), seed, cfg)[0]


def _static_handovers(configs: Sequence[ClockConfig], seed: int, cfg: Config) -> list[ScenarioResult]:
    """The static handover under each of ``configs``, paired by ``_paired_runs``."""
    profile = rcv.PROFILES[cfg.deployment.receiver]
    noise_m = cfg.handover.pr_noise_m
    return _paired_runs("static", seed, configs, _static_plan(cfg), (0.0,), 0.0, profile, noise_m, cfg)


def _static_plan(cfg: Config) -> tuple[Segment, ...]:
    """The static handover's segments, refused past MAX_TIMELINE_STEPS steps before anything is drawn."""
    h = cfg.handover
    if (h.live_s + h.blocked_s + h.sim_s) / DT_S > MAX_TIMELINE_STEPS:
        raise ConfigError(
            f"handover.live_s, handover.blocked_s, handover.sim_s: {h.live_s} + {h.blocked_s} + "
            f"{h.sim_s} s takes more than {MAX_TIMELINE_STEPS} steps of {DT_S} s"
        )
    return _live_blocked_simulator(h.live_s, h.blocked_s, h.sim_s)


def _check_matrix_steps(trials: int, segments: Sequence[Segment], keys: str) -> None:
    """Refuse a matrix of more than MAX_MATRIX_STEPS timeline steps over all its trials."""
    steps = sum(seg.steps for seg in segments)
    if trials * steps > MAX_MATRIX_STEPS:
        raise ConfigError(
            f"handover.trials, {keys}: {trials} trials of {steps} steps of {DT_S} s exceed "
            f"{MAX_MATRIX_STEPS} steps"
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


def _ordered_every_trial(per_config: dict[str, list[float]]) -> bool:
    """Whether each trial's values fall strictly along the configurations, in key order."""
    return not any(a <= b for trial in zip(*per_config.values()) for a, b in zip(trial, trial[1:]))


def run_static_handover_matrix(seed: int = 0, cfg: Config = DEFAULTS) -> MatrixResult:
    """All clock configurations over ``cfg.handover.trials`` paired trial seeds.

    The ordering flag records whether every trial kept strictly decreasing
    p95 along ALL_CLOCK_CONFIGS, which runs worst-first.
    """
    trials = cfg.handover.trials
    _check_matrix_steps(trials, _static_plan(cfg), "handover.live_s, handover.blocked_s, handover.sim_s")
    p95s: dict[str, list[float]] = {c.label: [] for c in ALL_CLOCK_CONFIGS}
    avgs: dict[str, list[float]] = {c.label: [] for c in ALL_CLOCK_CONFIGS}
    maxes: dict[str, float] = {c.label: 0.0 for c in ALL_CLOCK_CONFIGS}
    for trial in range(trials):
        trial_seed = derive_seed(seed, "handover_matrix", trial)
        # only the statistics outlive the trial, not its fixes
        trial_stats = [r.coverage_stats.get(0) for r in _static_handovers(ALL_CLOCK_CONFIGS, trial_seed, cfg)]
        for config, stats in zip(ALL_CLOCK_CONFIGS, trial_stats):
            if stats is None:
                raise EmptyFixSet(f"no fixes for {config.label} in trial {trial}")
            p95s[config.label].append(stats.p95_m)
            avgs[config.label].append(stats.avg_m)
            maxes[config.label] = max(maxes[config.label], stats.max_m)

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
    return MatrixResult(cells=cells, trials=trials, ordering_ok_every_trial=_ordered_every_trial(p95s))


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


def run_offset_sweep(seed: int = 0, cfg: Config = DEFAULTS) -> SweepResult:
    """Controlled clock-offset sweep.

    Per trial and offset: transmit with zero offset, block, then transmit
    with the offset under test, SWEEP_WINDOW_S each. Reacquisition time is
    the gap from signal restoration to the first fix; position errors
    cover the fixes of the final window. Sky plots and noise are drawn per
    trial only, so every offset within a trial sees identical randomness
    and rows are directly comparable across the grid. The offset grid and
    the trial count come from ``cfg.sweep``, the receiver from
    ``cfg.deployment``.
    """
    profile = rcv.PROFILES[cfg.deployment.receiver]
    offsets_ns = [ns_from_millis(ms) for ms in cfg.sweep.offsets_ms()]
    trials = cfg.sweep.trials
    cold = rcv.ReceiverState.cold(profile)
    segments = _live_blocked_simulator(SWEEP_WINDOW_S, SWEEP_WINDOW_S, SWEEP_WINDOW_S)
    reacq: list[list[float]] = [[] for _ in offsets_ns]
    errors: list[list[float]] = [[] for _ in offsets_ns]
    # trials outside offsets: one trial's sky and noise serve its whole grid
    for trial in range(trials):
        drawn = draw_sky("sweep", derive_seed(seed, "sweep", trial), segments, cfg.handover.pr_noise_m, cfg)
        for offset_ns, offset_reacq, offset_errors in zip(offsets_ns, reacq, errors):
            (result,) = _handover(segments, ({0: offset_ns},), (0.0,), 0.0, profile, cold, drawn, ({},))
            if 0 not in result.coverage_stats:
                raise EmptyFixSet(f"no reacquisition at offset {offset_ns / NS_PER_MS} ms")
            offset_reacq.append(result.first_fix_latency_s[0])
            offset_errors.append(result.coverage_stats[0].avg_m)
    rows = [
        SweepRow(
            offset_ms=offset_ns / NS_PER_MS,
            mean_reacq_s=float(np.mean(offset_reacq)),
            std_reacq_s=float(np.std(offset_reacq)),
            mean_error_m=float(np.mean(offset_errors)),
            std_error_m=float(np.std(offset_errors)),
        )
        for offset_ns, offset_reacq, offset_errors in zip(offsets_ns, reacq, errors)
    ]
    return SweepResult(receiver=profile.name, rows=tuple(rows), trials=trials)


# ---------------------------------------------------------- dynamic traversal


@dataclass(frozen=True)
class PathScenario:
    """A crossing of ``deployment``'s corridor at its max speed with its receiver."""

    deployment: DeploymentConfig
    clock: ClockConfig
    pr_noise_m: float


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
    signal at. The satellite count comes from ``cfg.handover``. A crossing
    of more than MAX_TIMELINE_STEPS steps is refused before it starts.
    """
    return _traversals(scenario, _traversal_plan(scenario.deployment), (scenario.clock,), seed, cfg)[0]


def _traversals(
    scenario: PathScenario,
    plan: tuple[list[Segment], Sequence[float], float],
    configs: Sequence[ClockConfig],
    seed: int,
    cfg: Config,
) -> list[ScenarioResult]:
    """The traversal along ``plan``, its deployment's ``_traversal_plan``, under each of
    ``configs`` in place of ``scenario.clock``, via ``_paired_runs``."""
    segments, centers_m, v = plan
    profile, noise_m = rcv.PROFILES[scenario.deployment.receiver], scenario.pr_noise_m
    return _paired_runs("dynamic", seed, configs, segments, centers_m, v, profile, noise_m, cfg)


def _traversal_plan(dep: DeploymentConfig) -> tuple[list[Segment], Sequence[float], float]:
    """The segments of a crossing of ``dep``'s corridor, its coverage centers and its speed.

    A crossing of more than MAX_TIMELINE_STEPS steps is refused before it is cut.
    """
    layout = corridor_layout(dep.radius_m, dep.separation_m)
    v = kmh_to_ms(dep.max_speed_kmh)
    if v <= 0:
        raise ZeroSpeed(f"speed must be positive, got {v} m/s")
    if layout.length_m / DT_S > MAX_TIMELINE_STEPS * v:
        raise ConfigError(
            f"deployment.max_speed_kmh, deployment.separation_m: crossing {layout.length_m} m "
            f"at {v} m/s takes more than {MAX_TIMELINE_STEPS} steps of {DT_S} s"
        )
    sources = []
    s = 0.0
    while s < layout.length_m:
        s += v * DT_S
        sources.append(layout.source_at(s))
    # source_at gives live sky and blockage the coverage None
    segments = [
        Segment(sum(1 for _ in run), source != "blocked", k)
        for (source, k), run in itertools.groupby(sources)
    ]
    return segments, layout.centers_m, v


def default_driving_scenario(cfg: Config = DEFAULTS) -> PathScenario:
    """``cfg.deployment``'s corridor crossed at its max speed with its receiver."""
    return PathScenario(cfg.deployment, PRIVATE_CALIBRATED, DRIVING_PR_NOISE_M)


def default_pedestrian_scenario() -> PathScenario:
    """Walking pace through a tighter corridor with a phone-grade receiver.

    Gaps are kept short enough that every blockage stays within t_max at
    1.4 m/s, so each coverage is entered warm.
    """
    walk = DeploymentConfig(radius_m=80.0, separation_m=250.0, max_speed_kmh=5.04, receiver="smartphone")
    return PathScenario(walk, PRIVATE_CALIBRATED, 6.0)


@dataclass(frozen=True)
class TraversalCell:
    label: str
    per_trial_avg_m: tuple[float, ...]
    median_avg_m: float
    handover_success_all: bool


def run_traversal_matrix(scenario: PathScenario, seed: int = 0, cfg: Config = DEFAULTS) -> MatrixResult:
    """The traversal under TRAVERSAL_CLOCK_CONFIGS over ``cfg.handover.trials`` paired trial seeds."""
    trials = cfg.handover.trials
    # one plan for every trial: cutting a crossing steps through it in Python
    plan = _traversal_plan(scenario.deployment)
    _check_matrix_steps(trials, plan[0], "deployment.max_speed_kmh, deployment.separation_m")
    avgs: dict[str, list[float]] = {c.label: [] for c in TRAVERSAL_CLOCK_CONFIGS}
    success: dict[str, bool] = {c.label: True for c in TRAVERSAL_CLOCK_CONFIGS}
    for trial in range(trials):
        trial_seed = derive_seed(seed, "traversal_matrix", trial)
        # only the statistics outlive the trial, not its fixes
        trial_stats = [
            (r.overall, all(r.handover_success.values()))
            for r in _traversals(scenario, plan, TRAVERSAL_CLOCK_CONFIGS, trial_seed, cfg)
        ]
        for config, (overall, handed_over) in zip(TRAVERSAL_CLOCK_CONFIGS, trial_stats):
            if overall is None:
                raise EmptyFixSet(f"no in-coverage fixes for {config.label} in trial {trial}")
            avgs[config.label].append(overall.avg_m)
            success[config.label] &= handed_over
    cells = tuple(
        TraversalCell(
            label=c.label,
            per_trial_avg_m=tuple(avgs[c.label]),
            median_avg_m=float(np.median(avgs[c.label])),
            handover_success_all=success[c.label],
        )
        for c in TRAVERSAL_CLOCK_CONFIGS
    )
    return MatrixResult(cells=cells, trials=trials, ordering_ok_every_trial=_ordered_every_trial(avgs))


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
    segments = _live_blocked_simulator(OUTDOOR_WINDOW_S, 0.0, OUTDOOR_WINDOW_S)
    noise_m = cfg.handover.pr_noise_m
    (result,) = _paired_runs(
        "outdoor", seed, (PRIVATE_CALIBRATED,), segments, (0.0,), 0.0, rcv.DEDICATED, noise_m, cfg
    )
    live_stats = compute_error_stats(
        horizontal_distances(result.positions[result.coverage < 0], np.zeros(3))
    )
    sim_stats = result.coverage_stats[0]
    return OutdoorComparison(
        live=live_stats,
        simulated=sim_stats,
        window_s=OUTDOOR_WINDOW_S,
        threshold_m=OUTDOOR_THRESHOLD_M,
        fit_for_outdoor_use=sim_stats.avg_m <= OUTDOOR_THRESHOLD_M,
    )
