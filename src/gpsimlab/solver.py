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
from .timebase import TimeOffset

SPEED_OF_LIGHT = 299_792_458.0

MAX_ITERATIONS = 20
CONVERGENCE_M = 1e-4

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

    def advanced(self, offset: TimeOffset) -> "SatGeometry":
        """Geometry with every satellite moved along its velocity for ``offset``."""
        dt = offset.seconds
        return SatGeometry(self.positions + self.velocities * dt, self.velocities)


@dataclass(frozen=True)
class PvtSolution:
    position: np.ndarray
    clock_bias: TimeOffset
    residual_norm: float
    iterations: int


@dataclass(frozen=True)
class DopValues:
    gdop: float
    pdop: float
    hdop: float


def _design_matrix(positions: np.ndarray, point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    diff = positions - point
    ranges = np.linalg.norm(diff, axis=1)
    if np.any(ranges <= 0):
        raise SingularGeometry("satellite coincides with the evaluation point")
    units = diff / ranges[:, None]
    return np.hstack([-units, np.ones((len(ranges), 1))]), ranges


def solve_position(
    pseudoranges: np.ndarray,
    geometry: SatGeometry,
    initial_guess: np.ndarray | None = None,
    max_iterations: int = MAX_ITERATIONS,
) -> PvtSolution:
    """Solve position and clock bias from pseudoranges by Gauss-Newton.

    Args:
        pseudoranges: Measured ranges in meters, one per satellite.
        geometry: Satellite states; at least four independent sight lines.
        initial_guess: Starting position, defaults to the frame origin.
        max_iterations: Iteration cap before giving up.

    Returns:
        PvtSolution with the converged position, the clock bias expressed
        as a time offset, the final residual norm, and the iteration count.

    Raises:
        SingularGeometry: fewer than four satellites, or sight lines that
            do not span the solution space.
        NoConvergence: the position step never fell below the tolerance.
    """
    pr = np.asarray(pseudoranges, dtype=float)
    if pr.shape != (len(geometry),):
        raise ValueError(f"expected {len(geometry)} pseudoranges, got shape {pr.shape}")
    if len(geometry) < 4:
        raise SingularGeometry(f"need at least 4 satellites, got {len(geometry)}")

    x = np.zeros(3) if initial_guess is None else np.asarray(initial_guess, dtype=float).copy()
    bias_m = 0.0
    for iteration in range(1, max_iterations + 1):
        h, ranges = _design_matrix(geometry.positions, x)
        dy = pr - (ranges + bias_m)
        dx, _, rank, _ = np.linalg.lstsq(h, dy, rcond=None)
        if rank < 4:
            raise SingularGeometry(f"sight-line matrix rank {rank} < 4")
        x += dx[:3]
        bias_m += dx[3]
        if np.linalg.norm(dx[:3]) < CONVERGENCE_M:
            _, ranges = _design_matrix(geometry.positions, x)
            residual = float(np.linalg.norm(pr - (ranges + bias_m)))
            return PvtSolution(
                position=x,
                clock_bias=TimeOffset.from_seconds(bias_m / SPEED_OF_LIGHT),
                residual_norm=residual,
                iterations=iteration,
            )
    raise NoConvergence(f"no convergence after {max_iterations} iterations")


def dilution_of_precision(geometry: SatGeometry, position: np.ndarray) -> DopValues:
    """GDOP, PDOP and horizontal DOP of the sight-line set at ``position``."""
    if len(geometry) < 4:
        raise SingularGeometry(f"need at least 4 satellites, got {len(geometry)}")
    h, _ = _design_matrix(geometry.positions, np.asarray(position, dtype=float))
    normal = h.T @ h
    if np.linalg.matrix_rank(h) < 4:
        raise SingularGeometry("sight lines do not span the solution space")
    q = np.linalg.inv(normal)
    diag = np.diag(q)
    return DopValues(
        gdop=float(np.sqrt(diag.sum())),
        pdop=float(np.sqrt(diag[:3].sum())),
        hdop=float(np.sqrt(diag[:2].sum())),
    )


def position_error_from_clock_offset(
    geometry: SatGeometry,
    offset: TimeOffset,
    true_position: np.ndarray,
) -> np.ndarray:
    """Position error caused by a transmit clock running ``offset`` early.

    Pseudoranges are generated from satellites advanced along their
    velocities by the offset, then solved against the unshifted geometry.
    The common part of the range change is absorbed by the bias estimate;
    only the differential part displaces the fix. Zero satellite velocity
    gives zero error no matter the offset. Returns the 3-vector solved
    position minus ``true_position``.
    """
    true_position = np.asarray(true_position, dtype=float)
    shifted = geometry.advanced(offset)
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
    velocities = np.empty_like(positions)
    for i, u in enumerate(units):
        # pick a tangent direction in the plane orthogonal to the sight line
        probe = np.array([1.0, 0.0, 0.0]) if abs(u[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        t1 = np.cross(u, probe)
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(u, t1)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        tangent = np.cos(phase) * t1 + np.sin(phase) * t2
        cross_speed = np.sqrt(max(SAT_SPEED_MS**2 - los_rate[i] ** 2, 0.0))
        velocities[i] = los_rate[i] * u + cross_speed * tangent
    return SatGeometry(positions, velocities)
