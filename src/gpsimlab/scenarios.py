"""Handover scenario engine.

Every scenario is one ``Plan``: the scope that keys its random streams,
the segments of live sky, blockage and simulator coverage its receiver
steps through, the simulators' positions, the receiver's speed and
profile, and the pseudorange noise. The static handover, the offset
sweep and the outdoor comparison plan live sky, blockage and one
simulator at the origin. ``traversal_plan`` cuts a crossing of the
corridor ``placement.corridor_layout`` lays out at its edges, one
coverage per simulator: the driving run crosses ``cfg.deployment``, the
pedestrian run PEDESTRIAN_DEPLOYMENT. A plan holds no clock offset:
``run_timeline`` advances the receiver through it a segment at a time
under a ``{coverage: offset_ns}`` map, one per clock configuration or
sweep offset. The composed transmit-clock error decides the
reacquisition time and, through satellite motion, the fix bias inside a
coverage. Time is a count of DT_S steps, stamped in seconds only on a
result: step k, counted from 0, ends at (k + 1) / STEPS_PER_S s.

Comparisons between clock configurations are paired: random draws that do
not depend on the configuration (sky plot, pseudorange noise, the delay
process, the sync run of a given server type) come from streams keyed
only by seed, scope and role. ``_paired_runs(plan, configs, seed, cfg)``
runs the static handover, the traversal and the outdoor comparison:
``draw_clock`` realizes every configuration of one host in one call,
``draw_sky`` draws the sky and noise once for all of them, and
``_handover`` runs each configuration's timeline and solves the simulator
fixes of all of them together: one stacked ``solve_position`` of the
noise-free row of each (configuration, coverage), then ``solve_about``,
which maps every fix about its noise-free one. The static and the traversal
matrix run their paired trials through one loop, ``_trial_stats``. The
sweep calls ``draw_sky`` and ``_handover`` itself with one offset per
call: its grid of up to MAX_TRIAL_RUNS runs would stack that many
timelines of fixes. Pseudorange noise is indexed by simulator step, not
by fix count, which keeps the pairing aligned even when reacquisition
delays the first fix. MAX_TIMELINE_STEPS caps a plan's steps, and
MAX_MATRIX_STEPS trials times them, before anything is drawn.

Default parameters come from ``config.DEFAULTS``. A runner takes a seed
and the whole ``Config`` and nothing that overrides it: trial counts and
the receiver are read from the config, into which the CLI folds its
flags. Everything is deterministic given (scenario, seed, config).
"""

from __future__ import annotations

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
from .solver import SatGeometry, random_sky_geometry, solve_about, solve_position
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
# Pseudorange noise of a driving crossing of cfg.deployment's corridor.
DRIVING_PR_NOISE_M = 2.5
# The pedestrian preset: walking pace through a tighter corridor with a
# phone-grade receiver, which sees more noise. Gaps are kept short enough
# that every blockage stays within t_max at 1.4 m/s, so each coverage is
# entered warm.
PEDESTRIAN_DEPLOYMENT = DeploymentConfig(radius_m=80.0, separation_m=250.0, max_speed_kmh=5.04, receiver="smartphone")
PEDESTRIAN_PR_NOISE_M = 6.0
OUTDOOR_WINDOW_S = 5.0
OUTDOOR_THRESHOLD_M = 8.0

# the config keys that set a static and a crossing timeline's steps, which a refusal names
_STATIC_KEYS = "handover.live_s, handover.blocked_s, handover.sim_s"
_CROSSING_KEYS = "deployment.max_speed_kmh, deployment.separation_m"


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
        ).samples[-1]
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
        ntp_error_ns, ntp_bound_s = syncs[config.server_type]
        sim_delay_ns = true_delay_ns - correction_ns if config.calibrated else true_delay_ns
        parts = (sim_delay_ns, ntp_error_ns, ref_error_ns)
        draws.append(ClockDraw(*parts, ntp_bound_s, within_budget(sum(parts), limit_ns)))
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
    live-sky fix, whose ``clock_bias_s`` is 0. ``first_fix_steps`` counts
    each coverage's steps from its entry through its first fix.
    """

    t_s: np.ndarray
    positions: np.ndarray
    clock_bias_s: np.ndarray
    coverage: np.ndarray
    coverage_stats: dict[int, ErrorStats]
    first_fix_steps: dict[int, int | None]
    overall: ErrorStats | None
    clock_draws: dict[int, ClockDraw]
    transitions: tuple[TransitionRow, ...]

    @property
    def handover_success(self) -> dict[int, bool]:
        return {k: n is not None for k, n in self.first_fix_steps.items()}

    @property
    def first_fix_latency_s(self) -> dict[int, float | None]:
        return {k: None if n is None else n / rcv.STEPS_PER_S for k, n in self.first_fix_steps.items()}

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
    """A stretch of constant reception: ``steps`` quanta of DT_S, possibly none.

    ``coverage`` is the simulator the signal comes from, None for live sky
    and blockage, which run with offset 0. A segment carries no offset: a
    simulator segment takes its coverage's from the map the plan runs with.
    """

    steps: int
    signal: bool
    coverage: int | None = None


def run_timeline(
    segments: Sequence[Segment],
    offsets_ns: Mapping[int, int],
    profile: rcv.ReceiverProfile,
    state: rcv.ReceiverState,
) -> tuple[np.ndarray, list[TransitionRow]]:
    """Advance the receiver through ``segments`` in order, a segment at a time.

    A simulator segment transmits with ``offsets_ns[seg.coverage]``, which
    its transition rows record. Returns, per step of the whole timeline,
    whether it ends in TRACKING, i.e. makes a fix; and the transition
    rows, one per mode change, stamped at the end of the step that made it.
    """
    tracking = np.zeros(sum(seg.steps for seg in segments), dtype=bool)
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
                end_s = (start + i + 1) / rcv.STEPS_PER_S
                transitions.append(TransitionRow(end_s, mode.value, seg.signal, offset_ns / NS_PER_MS, seg.coverage))
                last_mode = mode
        # TRACKING, when reached, is the segment's last run
        first, mode = runs[-1]
        tracking[start + first : start + seg.steps] = mode is rcv.Mode.TRACKING
        start += seg.steps
    return tracking, transitions


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
class Plan:
    """What defines a run under any clock configuration.

    ``scope`` keys its random streams. Coverage k of ``segments`` is a
    simulator at ``(centers_m[k], 0, 0)``; live-sky fixes scatter around the
    receiver, which moves along x at ``speed_ms``.
    """

    scope: str
    segments: tuple[Segment, ...]
    centers_m: tuple[float, ...]
    speed_ms: float
    profile: rcv.ReceiverProfile
    pr_noise_m: float

    @property
    def steps(self) -> int:
        """The timeline's DT_S steps, the count both step caps read."""
        return sum(seg.steps for seg in self.segments)


@dataclass(frozen=True)
class SkyDraw:
    """The sky and noise of one trial, which every clock configuration shares.

    ``pr_noise`` holds one row per simulator step of the timeline and
    ``live_noise`` one per live-sky step, in time order.
    """

    sky: SatGeometry
    pr_noise: np.ndarray
    live_noise: np.ndarray


def draw_sky(plan: Plan, seed: int, cfg: Config) -> SkyDraw:
    """Draw the sky plot and noise rows of ``plan`` under (seed, plan.scope).

    Only the segments' lengths and kinds are read, so one draw serves
    every clock configuration of a trial. The satellite count comes from
    ``cfg.handover``.
    """
    n_sats = cfg.handover.n_sats
    _, simulated, live = _step_kinds(plan.segments)
    return SkyDraw(
        random_sky_geometry(stream(seed, plan.scope, "sky"), n_sats=n_sats),
        stream(seed, plan.scope, "prnoise").normal(0.0, plan.pr_noise_m, (simulated.sum(), n_sats)),
        stream(seed, plan.scope, "live").normal(0.0, LIVE_SKY_SIGMA_M, (live.sum(), 2)),
    )


def _handover(
    plan: Plan,
    offset_maps: Sequence[Mapping[int, int]],
    start: rcv.ReceiverState,
    drawn: SkyDraw,
    clock_draws: Sequence[dict[int, ClockDraw]],
) -> list[ScenarioResult]:
    """Advance the receiver through ``plan`` once per offset map and solve every fix against ``drawn``.

    Under each of ``offset_maps``, coverage k transmits with that map's
    offset of k. Pseudorange noise rows are indexed by simulator step and
    live-sky rows by live step, both counted across the timeline, so one
    coverage reads what its windows use under every map. A simulator fix
    is its (map, coverage)'s noise-free row plus its noise row. The
    noise-free rows of every (map, coverage) that has fixes are solved from
    their coverage centers in one stacked call, the fixes of
    ``solver.position_error_from_clock_offset``; ``solve_about`` solves the
    fixes of all maps about them in one call, and they are split back. A
    row solves to the same bits alone or in any stack. Returns one result
    per map, carrying the matching entry of ``clock_draws``.
    """
    sky = drawn.sky
    centers = np.array([[center, 0.0, 0.0] for center in plan.centers_m])
    step_coverage, simulated, live = _step_kinds(plan.segments)
    # a step's noise row counts the steps of its kind before it
    noise_row = np.where(simulated, np.cumsum(simulated), np.cumsum(live)) - 1

    timelines = (run_timeline(plan.segments, offsets_ns, plan.profile, start) for offsets_ns in offset_maps)
    runs = [(np.flatnonzero(tracking), transitions) for tracking, transitions in timelines]
    # the simulator fixes of every map in one stacked solve, a map's rows after the previous map's;
    # group m·K + k, map m's coverage k, is a noise-free row that its fixes scatter about
    sim_fixes = [fix[simulated[fix]] for fix, _ in runs]
    groups = np.concatenate([m * len(centers) + step_coverage[steps] for m, steps in enumerate(sim_fixes)])
    used, groups = np.unique(groups, return_inverse=True)
    maps, hosts = np.divmod(used, len(centers))
    noise_free = np.empty((used.size, len(sky)))
    for row, m, k in zip(noise_free, maps, hosts):
        row[:] = np.linalg.norm(sky.advanced(offset_maps[m][k]).positions - centers[k], axis=1)
    base = solve_position(noise_free, sky, initial_guess=centers[hosts])
    pr = noise_free[groups] + drawn.pr_noise[np.concatenate([noise_row[steps] for steps in sim_fixes])]
    solved = solve_about(pr, sky, base, groups, centers[hosts[groups]])

    results = []
    end = 0
    for (fix, transitions), draws in zip(runs, clock_draws):
        t_s, coverage, row = (fix + 1) / rcv.STEPS_PER_S, step_coverage[fix], noise_row[fix]
        sim = coverage >= 0
        rows = slice(end, end + np.count_nonzero(sim))
        end = rows.stop
        positions, clock_bias_s = np.zeros((fix.size, 3)), np.zeros(fix.size)
        positions[sim], clock_bias_s[sim] = solved.position[rows], solved.clock_bias_s[rows]
        positions[~sim, :2] = drawn.live_noise[row[~sim]]
        positions[~sim, 0] += plan.speed_ms * t_s[~sim]
        stats: dict[int, ErrorStats] = {}
        latency: dict[int, int | None] = dict.fromkeys(range(len(centers)))
        errors = []
        for k, center in enumerate(centers):
            mine = coverage == k
            if mine.any():
                errors.append(horizontal_distances(positions[mine], center))
                stats[k] = compute_error_stats(errors[-1])
                # a coverage is entered when the step before its first step ends
                latency[k] = int(fix[mine][0] + 1 - np.argmax(step_coverage == k))
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
                first_fix_steps=latency,
                overall=overall,
                clock_draws=draws,
                transitions=tuple(transitions),
            )
        )
    return results


def _one_simulator_plan(
    scope: str, windows_s: tuple[float, float, float], profile: rcv.ReceiverProfile, pr_noise_m: float
) -> Plan:
    """Live sky, blockage, then simulator 0 at the origin, standing still.

    ``windows_s`` holds the three windows' seconds, each counted as its
    nearest whole number of DT_S steps, an exact half step rounding up. A
    window longer than MAX_TIMELINE_STEPS counts one step past it, which
    keeps any finite length countable and refused.
    """
    live, blocked, sim = (
        math.floor(min(w * rcv.STEPS_PER_S, MAX_TIMELINE_STEPS + 1) + 0.5) for w in windows_s
    )
    segments = (Segment(live, True), Segment(blocked, False), Segment(sim, True, 0))
    return Plan(scope, segments, (0.0,), 0.0, profile, pr_noise_m)


def _check_timeline_steps(steps: float, what: str) -> None:
    """Refuse a timeline of more than MAX_TIMELINE_STEPS steps; ``what`` names the keys and length that set it."""
    if steps > MAX_TIMELINE_STEPS:
        raise ConfigError(f"{what} takes more than {MAX_TIMELINE_STEPS} steps of {DT_S} s")


def _paired_runs(plan: Plan, configs: Sequence[ClockConfig], seed: int, cfg: Config) -> list[ScenarioResult]:
    """``plan`` under each of ``configs``, starting from tracking.

    Host k, the simulator at ``plan.centers_m[k]``, draws its clock chain
    once for all configurations under (seed, plan.scope, k); the sky and
    noise are drawn once under (seed, plan.scope). A configuration's run
    reads only its draws' offsets, and one ``_handover`` call solves the
    fixes of every configuration in one stack, so a matrix holds one
    trial's fixes of all its configurations at a time. Returns one result
    per configuration.
    """
    host_draws = [draw_clock(seed, plan.scope, k, configs, cfg) for k in range(len(plan.centers_m))]
    drawn = draw_sky(plan, seed, cfg)
    clock_draws = [dict(enumerate(draws)) for draws in zip(*host_draws)]
    offset_maps = [{k: draw.error_ns for k, draw in draws.items()} for draws in clock_draws]
    return _handover(plan, offset_maps, rcv.ReceiverState.tracking(), drawn, clock_draws)


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
    return _paired_runs(_static_plan(cfg), (config,), seed, cfg)[0]


def _static_plan(cfg: Config) -> Plan:
    """The static handover's plan, refused past MAX_TIMELINE_STEPS steps before anything is drawn."""
    h = cfg.handover
    profile = rcv.PROFILES[cfg.deployment.receiver]
    plan = _one_simulator_plan("static", (h.live_s, h.blocked_s, h.sim_s), profile, h.pr_noise_m)
    _check_timeline_steps(plan.steps, f"{_STATIC_KEYS}: {h.live_s} + {h.blocked_s} + {h.sim_s} s")
    return plan


def _trial_stats(
    plan: Plan, configs: Sequence[ClockConfig], scope: str, keys: str, seed: int, cfg: Config
) -> dict[str, list[tuple[ErrorStats, bool]]]:
    """``plan`` under ``configs`` over ``cfg.handover.trials`` paired trial seeds, derived under ``scope``.

    Per configuration label, each trial's overall statistics and whether it
    handed over in every coverage. A matrix of more than MAX_MATRIX_STEPS
    timeline steps over all its trials is refused before anything is
    drawn; ``keys`` names the config keys that set a trial's steps.
    """
    trials = cfg.handover.trials
    if trials * plan.steps > MAX_MATRIX_STEPS:
        raise ConfigError(
            f"handover.trials, {keys}: {trials} trials of {plan.steps} steps of {DT_S} s exceed "
            f"{MAX_MATRIX_STEPS} steps"
        )
    stats: dict[str, list[tuple[ErrorStats, bool]]] = {c.label: [] for c in configs}
    for trial in range(trials):
        # only the statistics outlive the trial, not its fixes
        for config, r in zip(configs, _paired_runs(plan, configs, derive_seed(seed, scope, trial), cfg)):
            if r.overall is None:
                raise EmptyFixSet(f"no in-coverage fixes for {config.label} in trial {trial}")
            stats[config.label].append((r.overall, all(r.handover_success.values())))
    return stats


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


def _ordered_every_trial(per_config: dict[str, Sequence[float]]) -> bool:
    """Whether each trial's values fall strictly along the configurations, in key order."""
    return not any(a <= b for trial in zip(*per_config.values()) for a, b in zip(trial, trial[1:]))


def run_static_handover_matrix(seed: int = 0, cfg: Config = DEFAULTS) -> MatrixResult:
    """All clock configurations over ``cfg.handover.trials`` paired trial seeds.

    The ordering flag records whether every trial kept strictly decreasing
    p95 along ALL_CLOCK_CONFIGS, which runs worst-first.
    """
    stats = _trial_stats(_static_plan(cfg), ALL_CLOCK_CONFIGS, "handover_matrix", _STATIC_KEYS, seed, cfg)
    p95s = {label: tuple(s.p95_m for s, _ in per_trial) for label, per_trial in stats.items()}
    cells = tuple(
        MatrixCell(
            label=label,
            per_trial_p95_m=p95s[label],
            median_p95_m=float(np.median(p95s[label])),
            median_avg_m=float(np.median([s.avg_m for s, _ in per_trial])),
            max_m=max(s.max_m for s, _ in per_trial),
        )
        for label, per_trial in stats.items()
    )
    return MatrixResult(cells=cells, trials=cfg.handover.trials, ordering_ok_every_trial=_ordered_every_trial(p95s))


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
    plan = _one_simulator_plan("sweep", (SWEEP_WINDOW_S,) * 3, profile, cfg.handover.pr_noise_m)
    reacq: list[list[int]] = [[] for _ in offsets_ns]
    errors: list[list[float]] = [[] for _ in offsets_ns]
    # trials outside offsets: one trial's sky and noise serve its whole grid
    for trial in range(trials):
        drawn = draw_sky(plan, derive_seed(seed, "sweep", trial), cfg)
        for offset_ns, offset_reacq, offset_errors in zip(offsets_ns, reacq, errors):
            (result,) = _handover(plan, ({0: offset_ns},), cold, drawn, ({},))
            if 0 not in result.coverage_stats:
                raise EmptyFixSet(f"no reacquisition at offset {offset_ns / NS_PER_MS} ms")
            offset_reacq.append(result.first_fix_steps[0])
            offset_errors.append(result.coverage_stats[0].avg_m)
    rows = [
        SweepRow(
            offset_ms=offset_ns / NS_PER_MS,
            # over whole steps, so equal reacquisitions average to their own time
            mean_reacq_s=float(np.mean(offset_reacq)) / rcv.STEPS_PER_S,
            std_reacq_s=float(np.std(offset_reacq)) / rcv.STEPS_PER_S,
            mean_error_m=float(np.mean(offset_errors)),
            std_error_m=float(np.std(offset_errors)),
        )
        for offset_ns, offset_reacq, offset_errors in zip(offsets_ns, reacq, errors)
    ]
    return SweepResult(receiver=profile.name, rows=tuple(rows), trials=trials)


# ---------------------------------------------------------- dynamic traversal


def traversal_plan(dep: DeploymentConfig, pr_noise_m: float) -> Plan:
    """A crossing of ``dep``'s corridor at its max speed with its receiver, in steps of v DT_S.

    Its ceil(length_m / (v DT_S)) steps are checked against MAX_TIMELINE_STEPS before
    ``Corridor.crossing_runs`` cuts it at its edges, so no crossing is too slow to refuse at once;
    a speed that is not positive raises ZeroSpeed.
    """
    layout = corridor_layout(dep.radius_m, dep.separation_m)
    v = kmh_to_ms(dep.max_speed_kmh)
    if v <= 0:
        raise ZeroSpeed(f"speed must be positive, got {v} m/s")
    step_m = v * DT_S
    steps = layout.length_m / step_m if step_m else math.inf  # a step rounded to 0 m never ends it
    _check_timeline_steps(steps, f"{_CROSSING_KEYS}: crossing {layout.length_m} m at {v} m/s")
    segments = tuple(Segment(*run) for run in layout.crossing_runs(step_m))
    return Plan("dynamic", segments, layout.centers_m, v, rcv.PROFILES[dep.receiver], pr_noise_m)


def run_dynamic_traversal(plan: Plan, clock: ClockConfig, seed: int = 0, cfg: Config = DEFAULTS) -> ScenarioResult:
    """Cross ``plan``, a ``traversal_plan``, once under ``clock`` and collect per-coverage statistics.

    Each coverage has its own simulator host, so each gets an independent
    clock draw under ``clock``. Fixes inside a coverage are solved against
    that simulator's intended position, the coverage center; fixes are
    never attributed to a coverage the path position is outside of. A
    coverage is entered when the last step outside it ends, the same
    instant the static handover restores signal at. The satellite count
    comes from ``cfg.handover``.
    """
    return _paired_runs(plan, (clock,), seed, cfg)[0]


@dataclass(frozen=True)
class TraversalCell:
    label: str
    per_trial_avg_m: tuple[float, ...]
    median_avg_m: float
    handover_success_all: bool


def run_traversal_matrix(plan: Plan, seed: int = 0, cfg: Config = DEFAULTS) -> MatrixResult:
    """``plan``, a ``traversal_plan``, under TRAVERSAL_CLOCK_CONFIGS over ``cfg.handover.trials`` paired seeds."""
    stats = _trial_stats(plan, TRAVERSAL_CLOCK_CONFIGS, "traversal_matrix", _CROSSING_KEYS, seed, cfg)
    avgs = {label: tuple(s.avg_m for s, _ in per_trial) for label, per_trial in stats.items()}
    cells = tuple(
        TraversalCell(
            label=label,
            per_trial_avg_m=avgs[label],
            median_avg_m=float(np.median(avgs[label])),
            handover_success_all=all(ok for _, ok in per_trial),
        )
        for label, per_trial in stats.items()
    )
    return MatrixResult(cells=cells, trials=cfg.handover.trials, ordering_ok_every_trial=_ordered_every_trial(avgs))


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
    windows_s = (OUTDOOR_WINDOW_S, 0.0, OUTDOOR_WINDOW_S)
    plan = _one_simulator_plan("outdoor", windows_s, rcv.DEDICATED, cfg.handover.pr_noise_m)
    (result,) = _paired_runs(plan, (PRIVATE_CALIBRATED,), seed, cfg)
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
