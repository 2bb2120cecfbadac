"""Coverage placement rules for simulator transmitters along a corridor.

The deployment model is one-dimensional: circular coverages of radius r
are centered on the travel path with center-to-center separation d, the
user crosses each coverage on a chord through the center at speed v, the
signal is continuous inside a coverage and absent in the gaps between
them. All rules below are exact closed forms in those quantities.

Two regimes let a receiver produce a fix inside a coverage. The fast path
requires the blockage between coverages to stay short enough for
reacquisition (t_blk <= t_max) and the crossing to outlast the
reacquisition time (t_reacq <= t_rcp). The slow path drops the blockage
condition but must fit a cold acquisition into the crossing (v <= 2r/t_acq).
Boundary equalities count as feasible throughout.

Speeds are meters per second internally. Configuration speeds given in
km/h convert with the exact factor 1000/3600.
"""

from __future__ import annotations

from dataclasses import dataclass

KMH_TO_MS = 1000.0 / 3600.0

POWER_NOTE = (
    "The smallest feasible coverage radius minimizes required transmitter "
    "power; radii above the minimum trade power for margin."
)


class ZeroSpeed(ValueError):
    """Crossing or gap speed must be strictly positive."""


class OverlappingCoverage(ValueError):
    """Coverage separation smaller than one diameter leaves no gap."""


def kmh_to_ms(speed_kmh: float) -> float:
    return speed_kmh * KMH_TO_MS


def ms_to_kmh(speed_ms: float) -> float:
    # multiply by 3.6 rather than divide by the inexact 1000/3600
    return speed_ms * 3.6


@dataclass(frozen=True)
class TimingProfile:
    """Receiver timing margins used for planning.

    t_reacq_s bounds the warm reacquisition time, t_max_s is the longest
    blockage after which warm reacquisition still works, t_acq_s bounds a
    cold acquisition.
    """

    t_reacq_s: float
    t_max_s: float
    t_acq_s: float

    def __post_init__(self) -> None:
        for name in ("t_reacq_s", "t_max_s", "t_acq_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.t_reacq_s > self.t_acq_s:
            raise ValueError(
                f"t_reacq_s ({self.t_reacq_s}) must not exceed t_acq_s ({self.t_acq_s})"
            )


def reception_time(radius_m: float, speed_ms: float) -> float:
    """Time spent inside one coverage: t_rcp = 2r / v."""
    if speed_ms <= 0:
        raise ZeroSpeed(f"speed must be positive, got {speed_ms}")
    return 2.0 * radius_m / speed_ms


def blockage_time(separation_m: float, radius_m: float, speed_ms: float) -> float:
    """Time without signal between adjacent coverages: t_blk = (d - 2r) / v."""
    if separation_m < 2 * radius_m:
        raise OverlappingCoverage(
            f"separation_m ({separation_m}) is below one diameter ({2 * radius_m})"
        )
    if speed_ms <= 0:
        raise ZeroSpeed(f"speed must be positive, got {speed_ms}")
    return (separation_m - 2.0 * radius_m) / speed_ms


def min_coverage_radius(v_max_ms: float, t_reacq_s: float) -> float:
    """Smallest radius that fits a warm reacquisition: r = v * t_reacq / 2."""
    if v_max_ms <= 0:
        raise ZeroSpeed(f"speed must be positive, got {v_max_ms}")
    return v_max_ms * t_reacq_s / 2.0


def slow_path_speed_bound(radius_m: float, t_acq_s: float) -> float:
    """Fastest crossing that still fits a cold acquisition: v = 2r / t_acq."""
    return 2.0 * radius_m / t_acq_s


def max_separation(radius_m: float, timing: TimingProfile) -> float:
    """Largest separation with a position update in every coverage.

    Independent of speed: d = 2r (1 + t_max / t_acq). Faster crossings
    shorten the blockage, slower ones open the cold-acquisition path.
    """
    return 2.0 * radius_m * (1.0 + timing.t_max_s / timing.t_acq_s)


def separation_radius_floor(separation_m: float, timing: TimingProfile) -> float:
    """Smallest radius whose max_separation reaches d: r = d / (2 (1 + t_max/t_acq))."""
    return separation_m / (2.0 * (1.0 + timing.t_max_s / timing.t_acq_s))


def min_radius_for_separation(
    separation_m: float, timing: TimingProfile, v_max_ms: float
) -> float:
    """Smallest radius serving a given separation at speeds up to v_max.

    Binding constraints: the separation floor and reacquisition
    r >= v_max * t_reacq / 2.
    """
    r_reacq = min_coverage_radius(v_max_ms, timing.t_reacq_s)
    return max(separation_radius_floor(separation_m, timing), r_reacq)


WARM = "warm reacquisition"
COLD = "cold acquisition"


def gap_path(
    speed_ms: float, radius_m: float, blockage_s: float, timing: TimingProfile
) -> str | None:
    """How fixes resume after a gap: WARM, COLD, or None when neither fits.

    Warm reacquisition needs t_blk <= t_max; cold acquisition needs the
    crossing to fit it, v <= 2r/t_acq. Warm wins when both hold.
    """
    if blockage_s <= timing.t_max_s:
        return WARM
    if speed_ms <= slow_path_speed_bound(radius_m, timing.t_acq_s):
        return COLD
    return None


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of one update-feasibility check with the binding reason."""

    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


def can_update(
    speed_ms: float, radius_m: float, separation_m: float, timing: TimingProfile
) -> FeasibilityResult:
    """Whether a receiver crossing at ``speed_ms`` gets a fix in each coverage.

    Feasible iff gap_path finds a path and t_reacq <= t_rcp, with
    boundary equalities feasible. Overlapping coverages raise
    OverlappingCoverage, a non-positive speed ZeroSpeed.
    """
    t_rcp = reception_time(radius_m, speed_ms)
    t_blk = blockage_time(separation_m, radius_m, speed_ms)
    path = gap_path(speed_ms, radius_m, t_blk, timing)
    if path is None:
        return FeasibilityResult(
            False,
            f"blockage {t_blk:.2f} s exceeds t_max {timing.t_max_s:.2f} s and speed "
            f"{speed_ms:.2f} m/s exceeds the cold-acquisition bound "
            f"{slow_path_speed_bound(radius_m, timing.t_acq_s):.2f} m/s",
        )
    if timing.t_reacq_s > t_rcp:
        return FeasibilityResult(
            False,
            f"reacquisition {timing.t_reacq_s:.2f} s does not fit the crossing "
            f"time {t_rcp:.2f} s",
        )
    return FeasibilityResult(True, f"update feasible via {path}")


@dataclass(frozen=True)
class CoverageCheck:
    index: int
    center_m: float
    speed_ms: float
    reception_s: float
    ok: bool
    reason: str


@dataclass(frozen=True)
class GapCheck:
    index: int
    gap_start_m: float
    gap_end_m: float
    speed_ms: float
    blockage_s: float
    ok: bool
    reason: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    coverages: tuple[CoverageCheck, ...]
    gaps: tuple[GapCheck, ...]
    suggested_min_radius_m: float
    suggested_max_gap_m: float
    note: str = POWER_NOTE


def validate_deployment(
    centers_m: list[float] | tuple[float, ...],
    radius_m: float,
    speed_ms: float,
    timing: TimingProfile,
) -> ValidationReport:
    """Check every coverage and every gap of an explicit layout crossed at ``speed_ms``.

    Suggestions give the radius that would fix all reception failures
    and the gap length that would fix all blockage failures at that
    speed.
    """
    if radius_m <= 0:
        raise ValueError(f"radius_m must be positive, got {radius_m}")
    centers = tuple(float(c) for c in centers_m)
    if not centers:
        raise ValueError("layout needs at least one coverage center")
    if list(centers) != sorted(centers):
        raise ValueError("coverage centers must be ascending along the path")
    for a, b in zip(centers, centers[1:]):
        if b - a < 2 * radius_m:
            raise OverlappingCoverage(
                f"centers at {a} m and {b} m are closer than one diameter ({2 * radius_m} m)"
            )

    # one speed, so every coverage shares the same crossing
    t_rcp = reception_time(radius_m, speed_ms)
    fits = timing.t_reacq_s <= t_rcp
    reason = (
        f"reacquisition fits the {t_rcp:.2f} s crossing"
        if fits
        else f"reacquisition {timing.t_reacq_s:.2f} s exceeds the {t_rcp:.2f} s crossing"
    )
    coverages = tuple(
        CoverageCheck(i, center, speed_ms, t_rcp, fits, reason) for i, center in enumerate(centers)
    )

    gaps = []
    for i, (a, b) in enumerate(zip(centers, centers[1:])):
        gap_start, gap_end = a + radius_m, b - radius_m
        t_blk = (gap_end - gap_start) / speed_ms
        path = gap_path(speed_ms, radius_m, t_blk, timing)
        if path == WARM:
            reason = f"blockage {t_blk:.2f} s within t_max {timing.t_max_s:.2f} s"
        elif path == COLD:
            reason = f"blockage long but {speed_ms:.2f} m/s admits cold acquisition"
        else:
            reason = (
                f"blockage {t_blk:.2f} s exceeds t_max {timing.t_max_s:.2f} s and "
                f"{speed_ms:.2f} m/s is too fast for cold acquisition"
            )
        gaps.append(GapCheck(i, gap_start, gap_end, speed_ms, t_blk, path is not None, reason))

    return ValidationReport(
        ok=fits and all(g.ok for g in gaps),
        coverages=coverages,
        gaps=tuple(gaps),
        suggested_min_radius_m=min_coverage_radius(speed_ms, timing.t_reacq_s),
        suggested_max_gap_m=timing.t_max_s * speed_ms,
    )
