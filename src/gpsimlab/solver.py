"""Pseudorange least-squares position solver.

Works in a local level frame, x east, y north, z up, meters. Ranges are
straight lines, which is adequate for the meter-scale questions asked
here. The receiver clock bias is estimated jointly with position, so any
delay common to all satellites moves the bias estimate and leaves the
position untouched. Position error from a transmit-clock offset therefore
comes only from satellite motion over that offset, which is exactly how
``position_error_from_clock_offset`` models it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .timebase import NS_PER_S

SPEED_OF_LIGHT = 299_792_458.0

MAX_ITERATIONS = 20
CONVERGENCE_M = 1e-4
# rows a solve iterates together; a longer stack is solved a block at a time,
# which bounds the iterations' temporaries
SOLVE_BLOCK_ROWS = 4096

# random_sky_geometry's constellation
SAT_RANGE_M = 2.02e7
SAT_SPEED_MS = 3900.0
MAX_LOS_RATE_MS = 350.0
MIN_ELEVATION_DEG = 15.0
MAX_ELEVATION_DEG = 75.0


class SingularGeometry(ValueError):
    """Too few satellites or rank-deficient sight-line set."""


class NoConvergence(RuntimeError):
    """Gauss-Newton failed to settle within the iteration cap."""


@dataclass(frozen=True)
class SatGeometry:
    """Satellite positions and velocities, row i describing satellite i."""

    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        vel = np.asarray(self.velocities, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {pos.shape}")
        if vel.shape != pos.shape:
            raise ValueError(f"velocities shape {vel.shape} must match positions {pos.shape}")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "velocities", vel)

    def __len__(self) -> int:
        return self.positions.shape[0]

    def advanced(self, offset_ns: int) -> "SatGeometry":
        """Geometry with every satellite moved along its velocity for ``offset_ns``."""
        return SatGeometry(self.positions + self.velocities * (offset_ns / NS_PER_S), self.velocities)


@dataclass(frozen=True)
class PvtSolution:
    """Fixes of one solve: one row per pseudorange row, or unstacked for one vector.

    ``clock_bias_s`` is quantized to whole nanoseconds, as every offset is.
    ``iterations`` counts the Gauss-Newton iterations the slowest row took.
    """

    position: np.ndarray
    clock_bias_s: float | np.ndarray
    residual_norm: float | np.ndarray
    iterations: int


@dataclass(frozen=True)
class DopValues:
    gdop: float
    pdop: float
    hdop: float


def _design_matrix(positions: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sight-line matrix and ranges from ``points`` (3,) or (F, 3) to every satellite."""
    diff = positions - points[..., None, :]
    ranges = np.linalg.norm(diff, axis=-1)
    if np.any(ranges <= 0):
        raise SingularGeometry("satellite coincides with the evaluation point")
    units = diff / ranges[..., None]
    return np.concatenate([-units, np.ones(ranges.shape + (1,))], axis=-1), ranges


def _normal_inverse(h: np.ndarray) -> np.ndarray:
    """(HᵀH)⁻¹ of sight-line matrices ``h``, (N, 4) or (F, N, 4): the step operator and DOP matrix.

    Raises SingularGeometry where a system is exactly singular or where
    κ = ‖HᵀH‖_F·‖(HᵀH)⁻¹‖_F meets κ·eps·N ≥ 1, gelsd's rcond rule applied
    to HᵀH. Since κ ≥ cond(H)², this refuses cond(H) above about 10⁷
    (2.4e7 for N = 8); gelsd on H refused only above 1/(eps·N), 5.6e14.
    """
    normal = h.swapaxes(-1, -2) @ h
    try:
        q = np.linalg.inv(normal)
    except np.linalg.LinAlgError:
        raise SingularGeometry("sight lines do not span the solution space") from None
    kappa = np.linalg.norm(normal, axis=(-2, -1)) * np.linalg.norm(q, axis=(-2, -1))
    # written so that a NaN κ, from an inverse that overflowed, is refused too
    if not np.all(kappa * (np.finfo(float).eps * h.shape[-2]) < 1.0):
        raise SingularGeometry(f"sight lines do not span the solution space (kappa {np.max(kappa):.3g})")
    return q


def solve_position(
    pseudoranges: np.ndarray,
    geometry: SatGeometry,
    initial_guess: np.ndarray | None = None,
    max_iterations: int = MAX_ITERATIONS,
) -> PvtSolution:
    """Solve position and clock bias from pseudoranges by Gauss-Newton.

    A stack of F pseudorange rows is solved SOLVE_BLOCK_ROWS rows at a
    time. Each iteration takes the step of every row of a block still
    moving from its 4×4 normal equations, dx = (HᵀH)⁻¹·Hᵀdy, batched over
    the rows, and a row leaves the active set once its position step
    falls below CONVERGENCE_M. Where every row of a block starts from one
    point, its first iteration forms that point's H and (HᵀH)⁻¹ once for
    all of them. Every row takes the steps, and so reaches the fix, bit
    for bit, that a one-row solve takes, whatever stack or block it comes
    in. The normal equations lose accuracy as cond(H)², not cond(H); the
    rank rule of ``_normal_inverse`` bounds that loss.

    Args:
        pseudoranges: Measured ranges in meters, (N,) for one fix or
            (F, N) for F fixes against the same satellites.
        geometry: Satellite states; at least four independent sight lines.
        initial_guess: Starting position, (3,) for every row or (F, 3) one
            per row; defaults to the frame origin.
        max_iterations: Iteration cap before giving up.

    Returns:
        PvtSolution with positions (3,) or (F, 3), clock biases in whole
        nanoseconds of seconds and residual norms, scalars or (F,), and the
        iteration count of the slowest row.

    Raises:
        SingularGeometry: fewer than four satellites, or sight lines of any
            row that fail ``_normal_inverse``'s rank rule at any iteration.
        NoConvergence: a row's position step never fell below the
            tolerance, or its iterate left the finite range.
    """
    pr = np.asarray(pseudoranges, dtype=float)
    stacked = pr.ndim == 2
    prs = pr if stacked else pr[None, :]
    if prs.ndim != 2 or prs.shape[1] != len(geometry):
        raise ValueError(f"expected {len(geometry)} pseudoranges per row, got shape {pr.shape}")
    if len(geometry) < 4:
        raise SingularGeometry(f"need at least 4 satellites, got {len(geometry)}")

    rows = prs.shape[0]
    guess = np.zeros(3) if initial_guess is None else np.asarray(initial_guess, dtype=float)
    x = np.array(np.broadcast_to(guess, (rows, 3)))
    bias_m = np.zeros(rows)
    residual = np.empty(rows)
    iterations = 0
    for start in range(0, rows, SOLVE_BLOCK_ROWS):
        active = np.arange(start, min(start + SOLVE_BLOCK_ROWS, rows))
        # every row from one point: the first step's H and (HᵀH)⁻¹ are that point's, formed once
        shared = bool((x[active] == x[start]).all())
        iteration = 0
        while active.size:
            if iteration == max_iterations:
                raise NoConvergence(f"no convergence after {max_iterations} iterations")
            iteration += 1
            h, ranges = _design_matrix(geometry.positions, x[start] if shared else x[active])
            shared = False
            dy = prs[active] - (ranges + bias_m[active, None])
            if not (np.isfinite(h).all() and np.isfinite(dy).all()):
                raise NoConvergence(f"iterate left the finite range at iteration {iteration}")
            dx = (_normal_inverse(h) @ (h.swapaxes(-1, -2) @ dy[..., None]))[..., 0]
            if not np.isfinite(dx).all():
                raise NoConvergence(f"least-squares step failed at iteration {iteration}")
            x[active] += dx[:, :3]
            bias_m[active] += dx[:, 3]
            done = np.linalg.norm(dx[:, :3], axis=1) < CONVERGENCE_M
            settled = active[done]
            # a settled row's residual needs its ranges only, not its sight lines
            ranges = np.linalg.norm(geometry.positions - x[settled, None, :], axis=-1)
            residual[settled] = np.linalg.norm(prs[settled] - (ranges + bias_m[settled, None]), axis=1)
            active = active[~done]
        iterations = max(iterations, iteration)

    # whole nanoseconds, rounded half-even exactly as timebase.ns_from_seconds;
    # adding 0.0 turns the -0.0 that rint leaves for small negatives into 0.0
    clock_bias_s = (np.rint(bias_m / SPEED_OF_LIGHT * NS_PER_S) + 0.0) / NS_PER_S
    if stacked:
        return PvtSolution(x, clock_bias_s, residual, iterations)
    return PvtSolution(x[0], float(clock_bias_s[0]), float(residual[0]), iterations)


def dilution_of_precision(geometry: SatGeometry, position: np.ndarray) -> DopValues:
    """GDOP, PDOP and horizontal DOP of the sight-line set at ``position``."""
    if len(geometry) < 4:
        raise SingularGeometry(f"need at least 4 satellites, got {len(geometry)}")
    h, _ = _design_matrix(geometry.positions, np.asarray(position, dtype=float))
    diag = np.diag(_normal_inverse(h))
    return DopValues(
        gdop=float(np.sqrt(diag.sum())),
        pdop=float(np.sqrt(diag[:3].sum())),
        hdop=float(np.sqrt(diag[:2].sum())),
    )


def position_error_from_clock_offset(
    geometry: SatGeometry,
    offset_ns: int,
    true_position: np.ndarray,
) -> np.ndarray:
    """Position error caused by a transmit clock running ``offset_ns`` early.

    Pseudoranges are generated from satellites advanced along their
    velocities by the offset, then solved against the unshifted geometry.
    The common part of the range change is absorbed by the bias estimate;
    only the differential part displaces the fix. Zero satellite velocity
    gives zero error no matter the offset. Returns the 3-vector solved
    position minus ``true_position``.
    """
    true_position = np.asarray(true_position, dtype=float)
    shifted = geometry.advanced(offset_ns)
    pr = np.linalg.norm(shifted.positions - true_position, axis=1)
    solution = solve_position(pr, geometry, initial_guess=true_position)
    return solution.position - true_position


def random_sky_geometry(rng: np.random.Generator, n_sats: int = DEFAULTS.handover.n_sats) -> SatGeometry:
    """Synthetic mid-latitude sky plot around the frame origin.

    Azimuths are uniform, elevations uniform between MIN_ELEVATION_DEG
    and MAX_ELEVATION_DEG. Velocity magnitude is fixed at SAT_SPEED_MS but
    its line-of-sight component is capped at MAX_LOS_RATE_MS: satellites
    mostly move across the sky, not along the sight line, which keeps the
    range-rate spectrum realistic for medium-orbit constellations.
    """
    az = rng.uniform(0.0, 2.0 * np.pi, n_sats)
    el = rng.uniform(np.radians(MIN_ELEVATION_DEG), np.radians(MAX_ELEVATION_DEG), n_sats)
    units = np.column_stack(
        [np.cos(el) * np.sin(az), np.cos(el) * np.cos(az), np.sin(el)]
    )
    positions = units * SAT_RANGE_M

    los_rate = rng.uniform(-MAX_LOS_RATE_MS, MAX_LOS_RATE_MS, n_sats)
    # a tangent direction in the plane orthogonal to each sight line
    probes = np.where((np.abs(units[:, 0]) < 0.9)[:, None], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    t1 = np.cross(units, probes)
    # one dot product per row, rounding as np.linalg.norm of that row does
    t1 /= np.sqrt((t1[:, None, :] @ t1[:, :, None])[:, 0])
    t2 = np.cross(units, t1)
    phase = rng.uniform(0.0, 2.0 * np.pi, n_sats)
    tangents = np.cos(phase)[:, None] * t1 + np.sin(phase)[:, None] * t2
    # squared per satellite: the whole array squared rounds differently in rare skies
    cross_speed = np.sqrt([max(SAT_SPEED_MS**2 - r**2, 0.0) for r in los_rate])
    velocities = los_rate[:, None] * units + cross_speed[:, None] * tangents
    return SatGeometry(positions, velocities)
