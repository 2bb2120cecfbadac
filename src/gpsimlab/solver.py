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
# solve_about's bounds on a linear fix: the contraction estimate κ(H̄ᵀH̄)·|x₁ − x̄|/(smallest
# range) a row may reach, and the rank ratio κ·eps·N of its group, half the rank rule's limit;
# on the step test alone, a 4-satellite sky at PDOP 540 kept a fix 2.5 cm from solve_position's
LINEAR_CONTRACTION = 1e-3
LINEAR_RANK_RATIO = 0.5

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


def _normal_inverse(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(HᵀH)⁻¹ of sight-line matrices ``h``, (N, 4) or (F, N, 4), and each system's rank ratio.

    The inverse is the step operator and DOP matrix. The rank ratio is
    κ·eps·N, where κ = ‖HᵀH‖_F·‖(HᵀH)⁻¹‖_F. Raises SingularGeometry where a
    system is exactly singular or its ratio reaches 1, gelsd's rcond rule
    applied to HᵀH. Since κ ≥ cond(H)², this refuses cond(H) above about
    10⁷ (2.4e7 for N = 8); gelsd on H refused only above 1/(eps·N), 5.6e14.
    """
    normal = h.swapaxes(-1, -2) @ h
    try:
        q = np.linalg.inv(normal)
    except np.linalg.LinAlgError:
        raise SingularGeometry("sight lines do not span the solution space") from None
    kappa = np.linalg.norm(normal, axis=(-2, -1)) * np.linalg.norm(q, axis=(-2, -1))
    ratio = kappa * (np.finfo(float).eps * h.shape[-2])
    # written so that a NaN κ, from an inverse that overflowed, is refused too
    if not np.all(ratio < 1.0):
        raise SingularGeometry(f"sight lines do not span the solution space (kappa {np.max(kappa):.3g})")
    return q, ratio


def _whole_ns(bias_m: np.ndarray) -> np.ndarray:
    """Clock biases of ``bias_m`` meters in seconds of whole nanoseconds.

    Rounded half-even exactly as timebase.ns_from_seconds; adding 0.0 turns
    the -0.0 that rint leaves for small negatives into 0.0.
    """
    return (np.rint(bias_m / SPEED_OF_LIGHT * NS_PER_S) + 0.0) / NS_PER_S


def solve_position(
    pseudoranges: np.ndarray,
    geometry: SatGeometry | np.ndarray,
    initial_guess: np.ndarray | None = None,
    max_iterations: int = MAX_ITERATIONS,
) -> PvtSolution:
    """Solve position and clock bias from pseudoranges by Gauss-Newton.

    A stack of F pseudorange rows is solved SOLVE_BLOCK_ROWS rows at a
    time. Each iteration takes the step of every row of a block still
    moving from its 4×4 normal equations, dx = (HᵀH)⁻¹·Hᵀdy, batched over
    the rows, and a row leaves the active set once its position step
    falls below CONVERGENCE_M. Where every row of a block starts from one
    point under one sky, its first iteration forms that point's H and
    (HᵀH)⁻¹ once for all of them. Every row takes the steps, and so
    reaches the fix, bit for bit, that a one-row solve under its own sky
    takes, whatever stack or block it comes in. The normal equations lose
    accuracy as cond(H)², not cond(H); the rank rule of
    ``_normal_inverse`` bounds that loss.

    Args:
        pseudoranges: Measured ranges in meters, (N,) for one fix or
            (F, N) for F fixes.
        geometry: Satellite states that every row sees, or an (F, N, 3)
            array of satellite positions, one sky per row of a stack; at
            least four independent sight lines.
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
    sats = geometry.positions if isinstance(geometry, SatGeometry) else np.asarray(geometry, dtype=float)
    # one sky per row: a row's satellites are sats[row], gathered with the rows they serve
    per_row = sats.ndim == 3
    n_sats = sats.shape[-2]
    if prs.ndim != 2 or prs.shape[1] != n_sats:
        raise ValueError(f"expected {n_sats} pseudoranges per row, got shape {pr.shape}")
    if per_row and (not stacked or sats.shape != (prs.shape[0], n_sats, 3)):
        raise ValueError(f"expected one (N, 3) sky per pseudorange row, got skies {sats.shape} for {pr.shape}")
    if n_sats < 4:
        raise SingularGeometry(f"need at least 4 satellites, got {n_sats}")

    rows = prs.shape[0]
    guess = np.zeros(3) if initial_guess is None else np.asarray(initial_guess, dtype=float)
    x = np.array(np.broadcast_to(guess, (rows, 3)))
    bias_m = np.zeros(rows)
    residual = np.empty(rows)
    iterations = 0
    for start in range(0, rows, SOLVE_BLOCK_ROWS):
        active = np.arange(start, min(start + SOLVE_BLOCK_ROWS, rows))
        # every row from one point under one sky: the first step's H and (HᵀH)⁻¹ are that point's, formed once
        shared = not per_row and bool((x[active] == x[start]).all())
        iteration = 0
        while active.size:
            if iteration == max_iterations:
                raise NoConvergence(f"no convergence after {max_iterations} iterations")
            iteration += 1
            h, ranges = _design_matrix(sats[active] if per_row else sats, x[start] if shared else x[active])
            shared = False
            dy = prs[active] - (ranges + bias_m[active, None])
            if not (np.isfinite(h).all() and np.isfinite(dy).all()):
                raise NoConvergence(f"iterate left the finite range at iteration {iteration}")
            dx = (_normal_inverse(h)[0] @ (h.swapaxes(-1, -2) @ dy[..., None]))[..., 0]
            if not np.isfinite(dx).all():
                raise NoConvergence(f"least-squares step failed at iteration {iteration}")
            x[active] += dx[:, :3]
            bias_m[active] += dx[:, 3]
            done = np.linalg.norm(dx[:, :3], axis=1) < CONVERGENCE_M
            settled = active[done]
            # a settled row's residual needs its ranges only, not its sight lines
            ranges = np.linalg.norm((sats[settled] if per_row else sats) - x[settled, None, :], axis=-1)
            residual[settled] = np.linalg.norm(prs[settled] - (ranges + bias_m[settled, None]), axis=1)
            active = active[~done]
        iterations = max(iterations, iteration)

    clock_bias_s = _whole_ns(bias_m)
    if stacked:
        return PvtSolution(x, clock_bias_s, residual, iterations)
    return PvtSolution(x[0], float(clock_bias_s[0]), float(residual[0]), iterations)


def solve_about(
    pseudoranges: np.ndarray, geometry: SatGeometry, base: PvtSolution, groups: np.ndarray, guess: np.ndarray
) -> PvtSolution:
    """Solve an (F, N) stack of noisy copies of known noise-free rows: one linear map and one checked step a row.

    Row f copies the noise-free row that ``base``, a stacked
    ``solve_position``, solved to its row ``groups[f]``, and ``guess[f]``
    is its own start. At each base fix x̄, H̄ and Q = (H̄ᵀH̄)⁻¹, under the
    rank rule, map a row to x₁ = x̄ + Q·H̄ᵀ(pr − ρ̄ − b̄), the Gauss-Newton
    linearisation about a nominal fix; a whole-ns b̄ moves only x₁'s bias,
    since H̄'s column of ones gives Q·H̄ᵀ·1 = e₄. One step at the row's own
    sight lines, s = Q·H(x₁)ᵀ(pr − ρ(x₁) − b₁), aims at its own
    least-squares fix. A row keeps x₁ + s if |s| < CONVERGENCE_M, its
    κ(H̄ᵀH̄)·|x₁ − x̄|/(smallest range) is at most LINEAR_CONTRACTION and its
    group's rank ratio at most LINEAR_RANK_RATIO, so that its own κ cannot
    reach the rank rule's limit; ``solve_position`` solves every other row
    from its guess. Rows go SOLVE_BLOCK_ROWS at a time, and a row's fix
    does not depend on the rows stacked with it.

    Returns a stacked PvtSolution whose ``iterations`` is the base solve's
    plus the checked step, or a fallback row's if more. Raises as
    ``solve_position`` does, and SingularGeometry where a base fix fails
    the rank rule.
    """
    prs = np.asarray(pseudoranges, dtype=float)
    rows = prs.shape[0]
    if rows == 0:
        return PvtSolution(np.empty((0, 3)), np.empty(0), np.empty(0), 0)
    h_bar, ranges_bar = _design_matrix(geometry.positions, base.position)
    q, ratio = _normal_inverse(h_bar)
    gain = q @ h_bar.swapaxes(-1, -2)
    # rows are columns from here on: (4, F) fixes and (3, F, N) satellite-minus-fix offsets,
    # so that every reduction below runs along a contiguous axis
    fix_bar = np.vstack([base.position.T, base.clock_bias_s * SPEED_OF_LIGHT])
    expected_bar = ranges_bar + fix_bar[3][:, None]
    # how far a row's x₁ may land from x̄: LINEAR_CONTRACTION of the smallest range over κ(H̄ᵀH̄),
    # and NaN, which no distance is within, past LINEAR_RANK_RATIO
    kappa = ratio / (np.finfo(float).eps * len(geometry))
    reach_m = np.where(ratio <= LINEAR_RANK_RATIO, LINEAR_CONTRACTION * ranges_bar.min(axis=1) / kappa, np.nan)
    sats = np.ascontiguousarray(geometry.positions.T)[:, None, :]

    x = np.empty((4, rows))
    residual = np.empty(rows)
    linear = np.zeros(rows, dtype=bool)
    # a row that overflows here falls back, and there warns or fails as solve_position does
    with np.errstate(all="ignore"):
        for start in range(0, rows, SOLVE_BLOCK_ROWS):
            block = slice(start, start + SOLVE_BLOCK_ROWS)
            mine = groups[block]
            residual_bar = prs[block] - np.take(expected_bar, mine, axis=0)
            moved = np.einsum("fij,fj->if", np.take(gain, mine, axis=0), residual_bar)
            x1 = np.take(fix_bar, mine, axis=1) + moved
            d = sats - x1[:3, :, None]
            ranges = np.sqrt(np.einsum("kfn,kfn->fn", d, d))
            dy = prs[block] - (ranges + x1[3][:, None])
            # Hᵀdy, H's rows being the sight lines -d/ρ and a one
            hty = np.vstack([-np.einsum("kfn,fn->kf", d, dy / ranges), np.einsum("fn->f", dy)])
            step = np.einsum("fij,jf->if", np.take(q, mine, axis=0), hty)
            x[:, block] = x1 + step
            # written so that a NaN step or distance sends its row to the fallback
            linear[block] = (np.einsum("kf,kf->f", step[:3], step[:3]) < CONVERGENCE_M**2) & (
                np.einsum("kf,kf->f", moved[:3], moved[:3]) <= reach_m[mine] ** 2
            )
            # the residual at x₁ + s, whose ranges moved by -d·s/ρ: for a kept row, with
            # |s| < CONVERGENCE_M, that is exact to |s|²/ρ, far below rounding
            dy += np.einsum("kfn,kf->fn", d, step[:3]) / ranges - step[3][:, None]
            residual[block] = np.sqrt(np.einsum("fn,fn->f", dy, dy))

    position, clock_bias_s = x[:3].T, _whole_ns(x[3])
    iterations = base.iterations + 1
    others = np.flatnonzero(~linear)
    if others.size:
        fallback = solve_position(prs[others], geometry, initial_guess=guess[others])
        position[others], clock_bias_s[others], residual[others] = (
            fallback.position,
            fallback.clock_bias_s,
            fallback.residual_norm,
        )
        iterations = max(iterations, fallback.iterations)
    return PvtSolution(position, clock_bias_s, residual, iterations)


def dilution_of_precision(geometry: SatGeometry, position: np.ndarray) -> DopValues:
    """GDOP, PDOP and horizontal DOP of the sight-line set at ``position``."""
    if len(geometry) < 4:
        raise SingularGeometry(f"need at least 4 satellites, got {len(geometry)}")
    h, _ = _design_matrix(geometry.positions, np.asarray(position, dtype=float))
    diag = np.diag(_normal_inverse(h)[0])
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


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``a × b`` of (N, 3) arrays: the products and differences ``np.cross`` forms,
    without its generic axis handling."""
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    return np.column_stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


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
    t1 = _cross(units, probes)
    # one dot product per row, rounding as np.linalg.norm of that row does
    t1 /= np.sqrt((t1[:, None, :] @ t1[:, :, None])[:, 0])
    t2 = _cross(units, t1)
    phase = rng.uniform(0.0, 2.0 * np.pi, n_sats)
    tangents = np.cos(phase)[:, None] * t1 + np.sin(phase)[:, None] * t2
    # squared per satellite: the whole array squared rounds differently in rare skies
    cross_speed = np.sqrt([max(SAT_SPEED_MS**2 - r**2, 0.0) for r in los_rate])
    velocities = los_rate[:, None] * units + cross_speed[:, None] * tangents
    return SatGeometry(positions, velocities)
