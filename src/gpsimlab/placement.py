"""Coverage placement rules for simulator transmitters along a corridor.

The deployment model is one-dimensional: circular coverages of radius r
are centered on the travel path with center-to-center separation d, the
user crosses each coverage on a chord through the center at speed v, the
signal is continuous inside a coverage and absent in the gaps between
them. All rules below are exact closed forms in those quantities; a
``Corridor`` cuts a crossing into whole steps from its edges alone.

Two regimes let a receiver produce a fix inside a coverage. The fast path
requires the blockage between coverages to stay short enough for
reacquisition (t_blk <= t_max) and the crossing to outlast the
reacquisition time (t_reacq <= t_rcp). The slow path drops the blockage
condition but must fit a cold acquisition into the crossing (v <= 2r/t_acq).
Boundary equalities count as feasible throughout.

The rules read a receiver's planning triple from its ReceiverProfile:
t_reacq_s, the bound on warm reacquisition, t_max_s and t_acq_s.

Speeds are meters per second internally. Configuration speeds given in
km/h convert with the exact factor 1000/3600.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .receiver import ReceiverProfile

KMH_TO_MS = 1000.0 / 3600.0

CORRIDOR_COVERAGES = 3
LIVE_LEAD_M = 200.0

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


@dataclass(frozen=True)
class Corridor:
    """Coverage centers along a path; the portals sit at LIVE_LEAD_M and ``portal_out_m``."""

    centers_m: tuple[float, ...]
    radius_m: float
    portal_out_m: float

    @property
    def length_m(self) -> float:
        return self.portal_out_m + LIVE_LEAD_M

    def crossing_runs(self, step_m: float) -> list[tuple[int, bool, int | None]]:
        """A crossing in steps of ``step_m``: (steps, signal, coverage) per stretch, in path order.

        Step k, counted from 1, ends at k * step_m and hears that point: live sky before the entry
        portal and after the exit portal, coverage k within radius_m of its center, blockage
        elsewhere; portals and edges are inside. A stretch no step ends in has 0 steps.
        """
        # each stretch up to the exit portal, its far edge, and whether a step ending on that edge is in it
        stretches = [(True, None, LIVE_LEAD_M, False)]
        for k, center in enumerate(self.centers_m):
            stretches += [(False, None, center - self.radius_m, False), (True, k, center + self.radius_m, True)]
        stretches.append((False, None, self.portal_out_m, True))
        runs, done = [], 0
        for signal, k, edge_m, inside in stretches:
            end = math.floor(edge_m / step_m) if inside else math.ceil(edge_m / step_m) - 1
            runs.append((max(end - done, 0), signal, k))
            done = max(done, end)
        # live sky again, up to the first step that ends at or past length_m
        return runs + [(math.ceil(self.length_m / step_m) - done, True, None)]


def corridor_layout(radius_m: float, separation_m: float) -> Corridor:
    """A deployment's corridor, positions counted from the start of the entry lead.

    Live sky for LIVE_LEAD_M, a portal, the coverages with a portal half a
    separation outside each end center, then live sky again.
    """
    if radius_m <= 0:
        raise ValueError(f"radius_m must be positive, got {radius_m}")
    if separation_m < 2 * radius_m:
        raise OverlappingCoverage(f"separation_m ({separation_m}) is below one diameter ({2 * radius_m})")
    first_m = LIVE_LEAD_M + separation_m / 2.0
    centers = tuple(first_m + i * separation_m for i in range(CORRIDOR_COVERAGES))
    return Corridor(centers, radius_m, centers[-1] + separation_m / 2.0)


def min_coverage_radius(v_max_ms: float, t_reacq_s: float) -> float:
    """Smallest radius that fits a warm reacquisition: r = v * t_reacq / 2."""
    if v_max_ms <= 0:
        raise ZeroSpeed(f"speed must be positive, got {v_max_ms}")
    return v_max_ms * t_reacq_s / 2.0


def slow_path_speed_bound(radius_m: float, t_acq_s: float) -> float:
    """Fastest crossing that still fits a cold acquisition: v = 2r / t_acq."""
    return 2.0 * radius_m / t_acq_s


def max_separation(radius_m: float, timing: ReceiverProfile) -> float:
    """Largest separation with a position update in every coverage.

    Independent of speed: d = 2r (1 + t_max / t_acq). Faster crossings
    shorten the blockage, slower ones open the cold-acquisition path.
    """
    return 2.0 * radius_m * (1.0 + timing.t_max_s / timing.t_acq_s)


def separation_radius_floor(separation_m: float, timing: ReceiverProfile) -> float:
    """Smallest radius whose max_separation reaches d: r = d / (2 (1 + t_max/t_acq))."""
    return separation_m / (2.0 * (1.0 + timing.t_max_s / timing.t_acq_s))


def min_radius_for_separation(
    separation_m: float, timing: ReceiverProfile, v_max_ms: float
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
    speed_ms: float, radius_m: float, blockage_s: float, timing: ReceiverProfile
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


def crossing_fits(radius_m: float, speed_ms: float, timing: ReceiverProfile) -> bool:
    """Whether a warm reacquisition fits one crossing: t_reacq <= t_rcp, boundary inclusive.

    Judged as min_coverage_radius <= r, so the radius plan derives fits itself:
    at 110 km/h, 2r/v of that radius rounds to 4.999999999999999 s.
    """
    return min_coverage_radius(speed_ms, timing.t_reacq_s) <= radius_m


@dataclass(frozen=True)
class ValidationReport:
    """One crossing verdict and one gap verdict, each with its reason.

    ``gap_path`` is how fixes resume after a gap: WARM, COLD or None.
    """

    ok: bool
    crossing_ok: bool
    crossing: str
    gap_path: str | None
    gap: str
    suggested_max_gap_m: float
    note: str = POWER_NOTE


def validate_deployment(
    radius_m: float, separation_m: float, speed_ms: float, timing: ReceiverProfile
) -> ValidationReport:
    """Judge a corridor of equal coverages ``separation_m`` apart, crossed at one speed.

    Every coverage shares one crossing and every gap one blockage_time, so
    one crossing_fits and one gap_path verdict judge them all. The
    deployment is feasible iff the crossing fits and gap_path finds a path,
    with boundary equalities feasible; overlapping coverages raise
    OverlappingCoverage, a non-positive speed ZeroSpeed. The suggested gap
    is the longest a warm reacquisition spans at that speed.
    """
    if radius_m <= 0:
        raise ValueError(f"radius_m must be positive, got {radius_m}")
    t_rcp = reception_time(radius_m, speed_ms)
    t_blk = blockage_time(separation_m, radius_m, speed_ms)

    fits = crossing_fits(radius_m, speed_ms, timing)
    crossing = (
        f"reacquisition fits the {t_rcp:.2f} s crossing"
        if fits
        else f"reacquisition {timing.t_reacq_s:.2f} s exceeds the {t_rcp:.2f} s crossing"
    )

    path = gap_path(speed_ms, radius_m, t_blk, timing)
    if path == WARM:
        gap = f"blockage {t_blk:.2f} s within t_max {timing.t_max_s:.2f} s"
    elif path == COLD:
        gap = f"blockage long but {speed_ms:.2f} m/s admits cold acquisition"
    else:
        gap = (
            f"blockage {t_blk:.2f} s exceeds t_max {timing.t_max_s:.2f} s and "
            f"{speed_ms:.2f} m/s is too fast for cold acquisition"
        )

    return ValidationReport(
        ok=fits and path is not None,
        crossing_ok=fits,
        crossing=crossing,
        gap_path=path,
        gap=gap,
        suggested_max_gap_m=timing.t_max_s * speed_ms,
    )
