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
only by seed, scope and role. Paired trials run in two passes over a
batch of trials. In the first, ``_paired_trial`` realizes every
configuration of one host in one ``draw_clock`` call, draws the sky once
for all of them and runs each configuration's timeline; ``_handover``
then solves the noise-free row of each (trial, configuration, coverage)
that has fixes in one stacked ``solve_position``, each row under its own
trial's sky. In the second, a trial at a time, it draws the trial's
pseudorange noise and ``solve_about`` maps every fix about its noise-free
one. A batch holds as many trials as fit in MAX_TIMELINE_STEPS steps, and
the first pass holds only skies, offsets and tracking flags, so memory
does not grow with the trial count. ``_paired_runs`` runs the static
handover, the traversal and the outdoor comparison as a one-trial batch
and builds their full results; the static and the traversal matrix run
their trials through ``_trial_stats``, which keeps only each trial's
statistics. The sweep feeds every (trial, offset) run through the same
batches, a trial's runs sharing its sky and noise. Pseudorange noise is
indexed by simulator step, not by fix count, which keeps the pairing
aligned even when reacquisition delays the first fix. MAX_TIMELINE_STEPS
caps a plan's steps, and MAX_MATRIX_STEPS trials times them, before
anything is drawn.

Default parameters come from ``config.DEFAULTS``. A runner takes a seed
and the whole ``Config`` and nothing that overrides it: trial counts and
the receiver are read from the config, into which the CLI folds its
flags. Everything is deterministic given (scenario, seed, config).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import receiver as rcv
from .calibration import calibrate, measured_delays_ns, true_delay_series
from .config import DEFAULTS, MAX_MATRIX_STEPS, MAX_TIMELINE_STEPS, Config, ConfigError, DeploymentConfig
from .ntp import default_topology, run_disciplined_sync
from .placement import ZeroSpeed, corridor_layout, kmh_to_ms
from .rng import derive_seed, stream
from .solver import PvtSolution, SatGeometry, random_sky_geometry, solve_about, solve_position
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


def nearest_rank_p95(errors: Sequence[float] | np.ndarray) -> float:
    """95th percentile by nearest rank: the ceil(0.95 n)-th smallest value."""
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        raise EmptyFixSet("p95 of an empty error set")
    rank = math.ceil(0.95 * errors.size)
    return float(np.partition(errors, rank - 1)[rank - 1])


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
        p95_m=nearest_rank_p95(errors),
        max_m=float(errors.max()),
    )


def horizontal_distances(positions: np.ndarray, intended: np.ndarray) -> np.ndarray:
    """Per row of ``positions``, the x-y distance from ``intended``, one point (3,) or one per row (F, 3).

    One dot product per row rounds as ``np.linalg.norm`` of the row does (BLAS
    ``ddot``); ``np.linalg.norm(d, axis=1)`` differs in ~8% of a matrix's fixes.
    """
    d = positions[:, :2] - intended[..., :2]
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


def draw_sky(plan: Plan, seed: int, cfg: Config) -> SatGeometry:
    """The sky of ``plan``'s trial at ``seed``: ``cfg.handover.n_sats`` satellites drawn under (seed, plan.scope)."""
    return random_sky_geometry(stream(seed, plan.scope, "sky"), n_sats=cfg.handover.n_sats)


@dataclass(frozen=True)
class Trial:
    """A trial whose timelines have run: its sky, its offset maps and, per map, which simulator steps end in a fix.

    ``seed`` keys its pseudorange noise under the plan's scope. It holds no
    noise row and no fix, which ``_handover`` draws and solves a trial at a
    time.
    """

    seed: int
    sky: SatGeometry
    offset_maps: tuple[Mapping[int, int], ...]
    tracking: np.ndarray


@dataclass(frozen=True)
class TrialFixes:
    """A trial's simulator fixes under each of its offset maps, in time order within a map.

    Map m's fixes are rows ``bounds[m]`` to ``bounds[m + 1]``; ``errors`` are
    their horizontal distances from their coverage centers.
    ``first_fix_steps[m, k]`` counts coverage k's steps from its entry
    through its first fix under map m, -1 where it made none.
    """

    bounds: np.ndarray
    position: np.ndarray
    clock_bias_s: np.ndarray
    errors: np.ndarray
    first_fix_steps: np.ndarray

    def map_rows(self, m: int) -> slice:
        """The rows of map ``m``."""
        return slice(self.bounds[m], self.bounds[m + 1])

    def overall(self, m: int) -> ErrorStats | None:
        """Statistics over every fix of map ``m`` in time order, which is coverage order, None if it made none."""
        errors = self.errors[self.map_rows(m)]
        return compute_error_stats(errors) if errors.size else None

    def handed_over(self, m: int) -> bool:
        """Whether map ``m`` made a fix in every coverage."""
        return bool((self.first_fix_steps[m] >= 0).all())


def _handover(plan: Plan, trials: Iterable[Trial]) -> Iterator[TrialFixes]:
    """Solve the simulator fixes of ``trials``, each of them a ``Trial`` of ``plan``, in order.

    Under a trial's map m, coverage k transmits with that map's offset of k,
    and a simulator fix is its (map, coverage)'s noise-free row plus the
    noise row of its step. Noise rows are indexed by simulator step, counted
    across the timeline, so one coverage reads what its windows use under
    every map. Trials are taken a batch at a time, as many as fit in
    MAX_TIMELINE_STEPS steps, in two passes:

    1. per trial, the noise-free row of each (map, coverage) that has fixes,
       ranges from its coverage center to the sky advanced by the offset;
       then one stacked ``solve_position`` of every trial's rows, each
       under its trial's sky: the fixes of
       ``solver.position_error_from_clock_offset``;
    2. per trial, its noise rows, drawn under (seed, plan.scope), and one
       ``solve_about`` of its fixes under every map about its base fixes.

    A row solves to the same bits alone or in any stack, so batching shows
    in no fix. The first pass holds a trial's sky, offsets and tracking, no
    noise row and no fix; trials that share a seed, as the sweep's offsets
    do, share their noise rows.
    """
    n_cov = len(plan.centers_m)
    centers = np.array([[center, 0.0, 0.0] for center in plan.centers_m])
    step_coverage, simulated, _ = _step_kinds(plan.segments)
    # simulator step i, counted across the timeline, reads noise row i
    sim_steps = np.flatnonzero(simulated)
    sim_coverage = step_coverage[sim_steps]
    # coverage k is entered when the step before its first step ends
    entry = np.array([np.argmax(step_coverage == k) for k in range(n_cov)])

    def sim_fixes(tracking: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(map, simulator step) of every fix, map-major in time order, and its group m·K + k."""
        maps, steps = np.nonzero(tracking)
        return maps, steps, maps * n_cov + sim_coverage[steps]

    def first_pass(trial: Trial) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``trial``'s groups with fixes, first-fix counts per (map, coverage) and noise-free rows of its groups."""
        _, steps, groups = sim_fixes(trial.tracking)
        used, first = np.unique(groups, return_index=True)
        first_fix = np.full(len(trial.offset_maps) * n_cov, -1)
        first_fix[used] = sim_steps[steps[first]] + 1 - entry[used % n_cov]
        noise_free = np.empty((used.size, len(trial.sky)))
        for row, m, k in zip(noise_free, *np.divmod(used, n_cov)):
            row[:] = np.linalg.norm(trial.sky.advanced(trial.offset_maps[m][k]).positions - centers[k], axis=1)
        return used, first_fix.reshape(-1, n_cov), noise_free

    def second_pass(trial: Trial, first: tuple[np.ndarray, ...], own: PvtSolution, noise: np.ndarray) -> TrialFixes:
        """The fixes of ``trial``, whose ``first_pass`` is ``first``, solved about ``own``, its groups' base fixes."""
        used, first_fix, noise_free = first
        maps, steps, groups = sim_fixes(trial.tracking)
        groups = np.searchsorted(used, groups)
        guess = centers[sim_coverage[steps]]
        solved = solve_about(noise_free[groups] + noise[steps], trial.sky, own, groups, guess)
        errors = horizontal_distances(solved.position, guess)
        bounds = np.searchsorted(maps, np.arange(len(trial.offset_maps) + 1))
        return TrialFixes(bounds, solved.position, solved.clock_bias_s, errors, first_fix)

    def solve_batch(batch: list[Trial]) -> Iterator[TrialFixes]:
        """Each trial's first pass, one stacked solve of every noise-free row, then each trial's fixes."""
        firsts = [first_pass(trial) for trial in batch]
        used = [first[0] for first in firsts]
        base = solve_position(
            np.concatenate([first[2] for first in firsts]),
            np.repeat([trial.sky.positions for trial in batch], [u.size for u in used], axis=0),
            initial_guess=centers[np.concatenate(used) % n_cov],
        )
        end, noise_seed, noise = 0, None, None
        for trial, first in zip(batch, firsts):
            mine = slice(end, end + first[0].size)
            end = mine.stop
            if trial.seed != noise_seed:
                noise_seed = trial.seed
                noise = stream(trial.seed, plan.scope, "prnoise").normal(
                    0.0, plan.pr_noise_m, (sim_steps.size, len(trial.sky))
                )
            own = PvtSolution(base.position[mine], base.clock_bias_s[mine], base.residual_norm[mine], base.iterations)
            yield second_pass(trial, first, own, noise)

    trials = iter(trials)
    while batch := list(itertools.islice(trials, max(1, MAX_TIMELINE_STEPS // max(plan.steps, 1)))):
        yield from solve_batch(batch)
        # let go of this batch's trials before the next batch's first pass
        del batch


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


def _paired_trial(
    plan: Plan, configs: Sequence[ClockConfig], seed: int, cfg: Config
) -> tuple[Trial, list[dict[int, ClockDraw]], list[tuple[np.ndarray, list[TransitionRow]]]]:
    """The first pass of ``plan`` under each of ``configs`` at ``seed``, starting from tracking.

    Host k, the simulator at ``plan.centers_m[k]``, draws its clock chain
    once for all configurations under (seed, plan.scope, k), and the sky is
    drawn once under (seed, plan.scope). A configuration's timeline reads
    only its draws' offsets. Returns the trial, and per configuration its
    clock draws and ``run_timeline``'s result.
    """
    host_draws = [draw_clock(seed, plan.scope, k, configs, cfg) for k in range(len(plan.centers_m))]
    clock_draws = [dict(enumerate(draws)) for draws in zip(*host_draws)]
    offset_maps = tuple({k: draw.error_ns for k, draw in draws.items()} for draws in clock_draws)
    runs = [run_timeline(plan.segments, m, plan.profile, rcv.ReceiverState.tracking()) for m in offset_maps]
    simulated = _step_kinds(plan.segments)[1]
    trial = Trial(seed, draw_sky(plan, seed, cfg), offset_maps, np.array([tracking[simulated] for tracking, _ in runs]))
    return trial, clock_draws, runs


def _paired_runs(plan: Plan, configs: Sequence[ClockConfig], seed: int, cfg: Config) -> list[ScenarioResult]:
    """``plan`` under each of ``configs``, starting from tracking: a one-trial batch of ``_handover``.

    Live-sky fixes scatter around the receiver by noise rows drawn under
    (seed, plan.scope), one per live step. Returns one result per
    configuration.
    """
    trial, clock_draws, runs = _paired_trial(plan, configs, seed, cfg)
    (fixes,) = _handover(plan, (trial,))
    step_coverage, _, live = _step_kinds(plan.segments)
    live_noise = stream(seed, plan.scope, "live").normal(0.0, LIVE_SKY_SIGMA_M, (live.sum(), 2))
    live_row = np.cumsum(live) - 1
    results = []
    for m, (draws, (tracking, rows)) in enumerate(zip(clock_draws, runs)):
        fix = np.flatnonzero(tracking)
        t_s, coverage = (fix + 1) / rcv.STEPS_PER_S, step_coverage[fix]
        sim, mine = coverage >= 0, fixes.map_rows(m)
        positions, clock_bias_s = np.zeros((fix.size, 3)), np.zeros(fix.size)
        positions[sim], clock_bias_s[sim] = fixes.position[mine], fixes.clock_bias_s[mine]
        positions[~sim, :2] = live_noise[live_row[fix[~sim]]]
        positions[~sim, 0] += plan.speed_ms * t_s[~sim]
        errors, first_fix = fixes.errors[mine], fixes.first_fix_steps[m]
        stats = {k: compute_error_stats(errors[coverage[sim] == k]) for k in np.flatnonzero(first_fix >= 0).tolist()}
        # one coverage's errors are all the errors, so its stats are the overall stats
        overall = fixes.overall(m) if len(stats) > 1 else next(iter(stats.values()), None)
        results.append(
            ScenarioResult(
                t_s=t_s,
                positions=positions,
                clock_bias_s=clock_bias_s,
                coverage=coverage,
                coverage_stats=stats,
                first_fix_steps={k: None if n < 0 else n for k, n in enumerate(first_fix.tolist())},
                overall=overall,
                clock_draws=draws,
                transitions=tuple(rows),
            )
        )
    return results


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
    first_passes = (_paired_trial(plan, configs, derive_seed(seed, scope, trial), cfg)[0] for trial in range(trials))
    # only the statistics outlive a trial: map lets go of its fixes before the next trial is solved
    per_trial = map(
        lambda fixes: [(fixes.overall(m), fixes.handed_over(m)) for m in range(len(configs))],
        _handover(plan, first_passes),
    )
    for trial, per_config in enumerate(per_trial):
        for config, (overall, handed_over) in zip(configs, per_config):
            if overall is None:
                raise EmptyFixSet(f"no in-coverage fixes for {config.label} in trial {trial}")
            stats[config.label].append((overall, handed_over))
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
    simulated = _step_kinds(plan.segments)[1]

    def runs() -> Iterator[Trial]:
        # trials outside offsets: one trial's sky and noise serve its whole grid
        for trial in range(trials):
            trial_seed = derive_seed(seed, "sweep", trial)
            sky = draw_sky(plan, trial_seed, cfg)
            for offset_ns in offsets_ns:
                offset_map = {0: offset_ns}
                tracking, _ = run_timeline(plan.segments, offset_map, profile, cold)
                yield Trial(trial_seed, sky, (offset_map,), tracking[None, simulated])

    per_run = map(lambda fixes: (fixes.overall(0), int(fixes.first_fix_steps[0, 0])), _handover(plan, runs()))
    for run, (stats, first_fix_steps) in enumerate(per_run):
        i = run % len(offsets_ns)
        if stats is None:
            raise EmptyFixSet(f"no reacquisition at offset {offsets_ns[i] / NS_PER_MS} ms")
        reacq[i].append(first_fix_steps)
        errors[i].append(stats.avg_m)
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
