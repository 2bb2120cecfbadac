import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpsimlab import solver
from gpsimlab.rng import stream
from gpsimlab.solver import (
    CONVERGENCE_M,
    SOLVE_BLOCK_ROWS,
    SPEED_OF_LIGHT,
    NoConvergence,
    SatGeometry,
    SingularGeometry,
    dilution_of_precision,
    position_error_from_clock_offset,
    random_sky_geometry,
    solve_position,
)
from gpsimlab.timebase import NS_PER_S, ns_from_millis, ns_from_seconds

RANGE_M = 2.02e7
ORACLE_AGREEMENT_M = 1e-6


def tetrahedron_geometry() -> SatGeometry:
    # four unit directions summing to zero: the DOP matrix is diagonal
    dirs = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    ) / math.sqrt(3.0)
    return SatGeometry(positions=dirs * RANGE_M, velocities=np.zeros((4, 3)))


def reference_solve(pseudoranges, positions, x0):
    """Independent plain-python Gauss-Newton used as an oracle."""
    x = np.array([x0[0], x0[1], x0[2], 0.0], dtype=float)
    for _ in range(50):
        ranges = np.linalg.norm(positions - x[:3], axis=1)
        residuals = pseudoranges - (ranges + x[3])
        H = np.hstack([-(positions - x[:3]) / ranges[:, None], np.ones((len(ranges), 1))])
        dx, *_ = np.linalg.lstsq(H, residuals, rcond=None)
        x += dx
        if np.linalg.norm(dx[:3]) < 1e-9:
            break
    return x


def one_system_gauss_newton(pseudoranges, positions, x0):
    """Gauss-Newton on one 2-D system per step, each step from its normal
    equations (HᵀH)⁻¹·Hᵀdy, with solve_position's stopping rule."""
    x, bias_m = np.array(x0, dtype=float), 0.0
    while True:
        diff = positions - x
        ranges = np.linalg.norm(diff, axis=1)
        H = np.hstack([-diff / ranges[:, None], np.ones((len(ranges), 1))])
        dx = np.linalg.inv(H.T @ H) @ (H.T @ (pseudoranges - (ranges + bias_m)))
        x += dx[:3]
        bias_m += dx[3]
        if np.linalg.norm(dx[:3]) < CONVERGENCE_M:
            return x, bias_m


def random_case(seed):
    rng = stream(seed, "solver", "case")
    geometry = random_sky_geometry(rng)
    true_pos = rng.uniform(-50.0, 50.0, 3)
    bias_m = rng.uniform(-1e5, 1e5)
    pr = np.linalg.norm(geometry.positions - true_pos, axis=1) + bias_m
    return geometry, true_pos, bias_m, pr


class TestSolve:
    @pytest.mark.parametrize("seed", range(8))
    def test_recovers_position_and_bias(self, seed):
        geometry, true_pos, bias_m, pr = random_case(seed)
        sol = solve_position(pr, geometry)
        assert np.linalg.norm(sol.position - true_pos) < 1e-3
        # clock bias is quantized to whole nanoseconds, c * 0.5 ns of slack
        assert sol.clock_bias_s * SPEED_OF_LIGHT == pytest.approx(bias_m, abs=0.2)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_solver(self, seed):
        geometry, true_pos, _, pr = random_case(seed)
        noisy = pr + stream(seed, "solver", "noise").normal(0.0, 3.0, len(pr))
        sol = solve_position(noisy, geometry, initial_guess=np.zeros(3))
        ref = reference_solve(noisy, geometry.positions, np.zeros(3))
        assert np.linalg.norm(sol.position - ref[:3]) < 1e-3

    def test_common_bias_moves_only_clock(self):
        geometry, _, _, pr = random_case(3)
        base = solve_position(pr, geometry)
        shifted = solve_position(pr + 123.456, geometry)
        assert np.linalg.norm(shifted.position - base.position) < 1e-6
        delta_m = (shifted.clock_bias_s - base.clock_bias_s) * SPEED_OF_LIGHT
        assert delta_m == pytest.approx(123.456, abs=0.4)  # two quantized biases

    def test_too_few_satellites(self):
        geometry, _, _, pr = random_case(0)
        three = SatGeometry(geometry.positions[:3], geometry.velocities[:3])
        with pytest.raises(SingularGeometry):
            solve_position(pr[:3], three)

    def test_degenerate_geometry(self):
        # all satellites in one spot: the design matrix loses rank
        pos = np.tile([[0.0, 0.0, RANGE_M]], (5, 1))
        degenerate = SatGeometry(pos, np.zeros((5, 3)))
        pr = np.full(5, RANGE_M)
        with pytest.raises(SingularGeometry):
            solve_position(pr, degenerate)

    def test_no_convergence_reported(self):
        geometry, _, _, pr = random_case(1)
        with pytest.raises(NoConvergence):
            solve_position(pr, geometry, max_iterations=1)

    def test_jacobian_matches_central_differences(self):
        from gpsimlab.solver import _design_matrix

        geometry, _, _, _ = random_case(5)
        x = np.array([10.0, -20.0, 5.0])
        H, _ = _design_matrix(geometry.positions, x)
        h = 1e-2
        for j in range(3):
            dx = np.zeros(3)
            dx[j] = h
            rp = np.linalg.norm(geometry.positions - (x + dx), axis=1)
            rm = np.linalg.norm(geometry.positions - (x - dx), axis=1)
            fd = (rp - rm) / (2.0 * h)
            np.testing.assert_allclose(H[:, j], fd, rtol=1e-6, atol=1e-9)
        assert (H[:, 3] == 1.0).all()


class TestStackedSolve:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_sats=st.integers(min_value=4, max_value=32),
        rows=st.integers(min_value=1, max_value=9),
        noise_m=st.floats(min_value=0.0, max_value=10.0),
        guess_kind=st.sampled_from(["origin", "equal-rows", "per-row"]),
        block_rows=st.sampled_from([1, 2, 4, SOLVE_BLOCK_ROWS]),
    )
    @settings(derandomize=True, max_examples=90, deadline=None)
    def test_every_row_matches_the_oracle_and_a_one_row_solve(
        self, seed, n_sats, rows, noise_m, guess_kind, block_rows
    ):
        rng = np.random.default_rng(seed)
        geometry = random_sky_geometry(rng, n_sats=n_sats)
        truth = rng.uniform(-100.0, 100.0, (rows, 3))
        bias_m = rng.uniform(-1e3, 1e3, rows)
        ranges = np.linalg.norm(geometry.positions - truth[:, None, :], axis=2)
        prs = ranges + bias_m[:, None] + rng.normal(0.0, noise_m, (rows, n_sats))
        # (3,) and equal (F, 3) rows share their first iteration; per-row guesses do not
        guess = {
            "origin": np.zeros(3),
            "equal-rows": np.tile(rng.uniform(-20.0, 20.0, 3), (rows, 1)),
            "per-row": truth + rng.uniform(-20.0, 20.0, (rows, 3)),
        }[guess_kind]

        # blocks of fewer rows than the stack: every row count spans several
        with mock.patch.object(solver, "SOLVE_BLOCK_ROWS", block_rows):
            stacked = solve_position(prs, geometry, initial_guess=guess)
        assert stacked.position.shape == (rows, 3)
        assert type(stacked.iterations) is int
        for i in range(rows):
            x0 = guess if guess.ndim == 1 else guess[i]
            ref = reference_solve(prs[i], geometry.positions, x0)
            # a 2e7 m range rounds to 3.7e-9 m, so two Gauss-Newton solvers
            # settle up to DOP times that apart (~1e-7 m seen at 5-12
            # satellites, at most ~7e-9 m per unit PDOP over 4-32); 1e-6 m
            # bounds it below a PDOP of 100
            pdop = dilution_of_precision(geometry, ref[:3]).pdop
            bound_m = max(ORACLE_AGREEMENT_M, pdop * 1e-8)
            assert np.linalg.norm(stacked.position[i] - ref[:3]) < bound_m
            # whole nanoseconds: within c * 0.5 ns of the oracle's bias
            assert abs(stacked.clock_bias_s[i] * SPEED_OF_LIGHT - ref[3]) <= 0.16
            # bit for bit: a row takes the steps a one-system solve takes
            x, bias_m = one_system_gauss_newton(prs[i], geometry.positions, x0)
            assert np.array_equal(stacked.position[i], x)
            assert stacked.clock_bias_s[i] == ns_from_seconds(bias_m / SPEED_OF_LIGHT) / NS_PER_S
            one = solve_position(prs[i], geometry, initial_guess=x0)
            assert np.array_equal(stacked.position[i], one.position)
            assert stacked.clock_bias_s[i] == one.clock_bias_s
            assert stacked.residual_norm[i] == pytest.approx(one.residual_norm, abs=1e-9)
            assert one.iterations <= stacked.iterations

    def test_rows_past_one_block_solve_as_one_block(self):
        # two and a half blocks of rows, half of them from one shared guess:
        # blocking changes which rows iterate together, never a row's bits
        geometry, true_pos, bias_m, pr = random_case(3)
        rows = SOLVE_BLOCK_ROWS * 5 // 2
        prs = pr + stream(3, "solver", "blocks").normal(0.0, 3.0, (rows, len(pr)))
        guess = np.zeros((rows, 3))
        guess[rows // 2 :] = stream(3, "solver", "guess").uniform(-20.0, 20.0, (rows - rows // 2, 3))
        blocked = solve_position(prs, geometry, initial_guess=guess)
        with mock.patch.object(solver, "SOLVE_BLOCK_ROWS", rows):
            whole = solve_position(prs, geometry, initial_guess=guess)
        assert np.array_equal(blocked.position, whole.position)
        assert np.array_equal(blocked.clock_bias_s, whole.clock_bias_s)
        assert np.array_equal(blocked.residual_norm, whole.residual_norm)
        assert blocked.iterations == whole.iterations
        for i in (0, SOLVE_BLOCK_ROWS - 1, SOLVE_BLOCK_ROWS, rows // 2, rows - 1):
            one = solve_position(prs[i], geometry, initial_guess=guess[i])
            assert np.array_equal(blocked.position[i], one.position)
            assert blocked.clock_bias_s[i] == one.clock_bias_s

    def test_peak_memory_is_bounded_by_the_block(self):
        # 100,000 rows of 8 satellites: solved as one unblocked stack they
        # peaked at ~1.4 kB a row; blocked, a row costs its own outputs and a
        # block's working set stays the same whatever the row count
        geometry, _, _, pr = random_case(4)
        rows = 100_000
        assert rows >= 4 * SOLVE_BLOCK_ROWS
        prs = pr + stream(4, "solver", "peak").normal(0.0, 3.0, (rows, len(pr)))
        tracemalloc.start()
        try:
            solve_position(prs, geometry)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # per row: eight float64 of position, bias, residual, clock bias and
        # their temporaries; per row and satellite of a block: 24 float64
        bound = rows * 8 * 8 + SOLVE_BLOCK_ROWS * len(pr) * 24 * 8
        assert peak < bound

    def test_clock_bias_rounds_like_a_time_offset(self):
        # biases within a few ns of zero: no row may keep a negative zero,
        # which an integer nanosecond count cannot hold and a CSV would print as -0.0
        geometry, true_pos, _, _ = random_case(6)
        ranges = np.linalg.norm(geometry.positions - true_pos, axis=1)
        prs = ranges + np.linspace(-1.0, 1.0, 41)[:, None]
        for b in solve_position(prs, geometry).clock_bias_s.tolist():
            assert repr(b) == repr(ns_from_seconds(b) / NS_PER_S)

    def test_empty_stack(self):
        geometry, _, _, _ = random_case(0)
        solution = solve_position(np.empty((0, len(geometry))), geometry, initial_guess=np.empty((0, 3)))
        assert solution.position.shape == (0, 3)
        assert solution.iterations == 0

    def test_row_length_must_match_the_satellites(self):
        geometry, _, _, pr = random_case(0)
        with pytest.raises(ValueError):
            solve_position(np.tile(pr[:-1], (2, 1)), geometry)

    def test_degenerate_geometry_in_a_stack(self):
        pos = np.tile([[0.0, 0.0, RANGE_M]], (5, 1))
        degenerate = SatGeometry(pos, np.zeros((5, 3)))
        with pytest.raises(SingularGeometry):
            solve_position(np.full((3, 5), RANGE_M), degenerate)

    def test_one_row_that_degenerates_fails_the_stack(self):
        # a row 1e12 m off drives its iterate so far out that every sight
        # line points the same way; the rank test runs at every iteration
        geometry, _, _, pr = random_case(2)
        prs = np.tile(pr, (4, 1))
        prs[2] += stream(2, "solver", "far").normal(0.0, 1e12, len(pr))
        with pytest.raises(SingularGeometry):
            solve_position(prs, geometry)
        solve_position(np.delete(prs, 2, axis=0), geometry)

    def test_exactly_singular_row_fails_the_stack(self):
        # transmitters in the plane y = 0: seen from a point of that plane no
        # sight line has a y component, so that row's HᵀH is exactly singular
        # and its inverse fails outright, where the other row's is regular
        geometry = SatGeometry(
            np.array([[3e3, 0.0, 4e3], [-4e3, 0.0, 3e3], [0.0, 0.0, 5e3], [1e3, 0.0, 2e3], [-2e3, 0.0, 6e3]]),
            np.zeros((5, 3)),
        )
        truth = np.array([0.0, 3e3, 0.0])
        pr = np.linalg.norm(geometry.positions - truth, axis=1)
        guess = np.array([[0.0, 0.0, 0.0], [10.0, 2.9e3, 0.0]])
        with pytest.raises(SingularGeometry):
            solve_position(np.tile(pr, (2, 1)), geometry, initial_guess=guess)
        fix = solve_position(pr, geometry, initial_guess=guess[1])
        assert np.linalg.norm(fix.position - truth) < 1e-6

    def test_no_convergence_reported(self):
        geometry, _, _, pr = random_case(1)
        with pytest.raises(NoConvergence):
            solve_position(np.tile(pr, (3, 1)), geometry, max_iterations=1)

    def test_non_finite_pseudorange_is_no_convergence(self):
        geometry, _, _, pr = random_case(1)
        prs = np.tile(pr, (2, 1))
        prs[1, 0] = np.inf
        with pytest.raises(NoConvergence):
            solve_position(prs, geometry)


class TestRankRule:
    # five sight lines squeezed toward the zenith: the tilt sets cond(H),
    # about 1/tilt², and the rule refuses where κ = ‖HᵀH‖_F·‖(HᵀH)⁻¹‖_F,
    # at least cond(H)², reaches 1/(eps·5)
    SPREAD = np.array([[0.3, 0.1, 0.9], [-0.5, 0.4, 0.7], [0.2, -0.8, 0.5], [-0.1, -0.3, 0.95], [0.7, 0.6, 0.4]])

    def squeezed(self, tilt):
        units = np.array([0.0, 0.0, 1.0]) + tilt * self.SPREAD
        units /= np.linalg.norm(units, axis=1)[:, None]
        # transmitters 10 km away: a range rounds to 2e-12 m, so a fix this
        # ill-conditioned still settles below CONVERGENCE_M
        return SatGeometry(units * 1e4, np.zeros((5, 3)))

    def cond_squared_eps_n(self, geometry):
        h = np.hstack([-geometry.positions / 1e4, np.ones((5, 1))])
        return np.linalg.cond(h) ** 2 * np.finfo(float).eps * 5

    def test_refused_just_past_the_rule(self):
        geometry = self.squeezed(6.5e-4)
        assert 1.0 < self.cond_squared_eps_n(geometry) < 2.0
        pr = np.linalg.norm(geometry.positions, axis=1)
        with pytest.raises(SingularGeometry):
            solve_position(pr, geometry, initial_guess=np.array([0.1, 0.1, 0.0]))
        with pytest.raises(SingularGeometry):
            dilution_of_precision(geometry, np.zeros(3))

    def test_solved_just_inside_the_rule(self):
        geometry = self.squeezed(8e-4)
        assert 0.5 < self.cond_squared_eps_n(geometry) < 1.0
        pr = np.linalg.norm(geometry.positions, axis=1)
        fix = solve_position(pr, geometry, initial_guess=np.array([0.1, 0.1, 0.0]))
        assert np.linalg.norm(fix.position) < 1e-5
        assert dilution_of_precision(geometry, np.zeros(3)).pdop > 1e6


class TestDop:
    def test_tetrahedral_closed_form(self):
        # for unit vectors summing to zero with sum(uu^T) = 4/3 I the DOP
        # matrix is diag(3/4, 3/4, 3/4, 1/4)
        dop = dilution_of_precision(tetrahedron_geometry(), np.zeros(3))
        assert dop.pdop == pytest.approx(1.5, abs=1e-9)
        assert dop.gdop == pytest.approx(math.sqrt(2.5), abs=1e-9)
        assert dop.hdop == pytest.approx(math.sqrt(1.5), abs=1e-9)

    def test_more_satellites_do_not_worsen_gdop(self):
        rng = stream(2, "dop")
        few = random_sky_geometry(rng, n_sats=5)
        extra_rng = stream(2, "dop", "extra")
        more_sats = random_sky_geometry(extra_rng, n_sats=12)
        dop_few = dilution_of_precision(few, np.zeros(3))
        dop_more = dilution_of_precision(more_sats, np.zeros(3))
        assert dop_more.gdop < dop_few.gdop * 2.0  # sanity scale, not exact


class TestClockOffsetError:
    def test_zero_velocity_means_zero_error(self):
        geometry = tetrahedron_geometry()
        err = position_error_from_clock_offset(geometry, ns_from_millis(200), np.zeros(3))
        assert np.linalg.norm(err) < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_independent_resolve(self, seed):
        # oracle: advance satellites by v*eps, rebuild pseudoranges, solve
        # with the reference implementation, difference to truth
        rng = stream(seed, "offset", "sky")
        geometry = random_sky_geometry(rng)
        eps_ns = ns_from_millis(80)
        true_pos = np.zeros(3)
        err = position_error_from_clock_offset(geometry, eps_ns, true_pos)

        moved = geometry.positions + geometry.velocities * (eps_ns / NS_PER_S)
        pr = np.linalg.norm(moved - true_pos, axis=1)
        ref = reference_solve(pr, geometry.positions, true_pos)
        np.testing.assert_allclose(err, ref[:3] - true_pos, atol=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_error_scales_linearly_in_offset(self, seed):
        rng = stream(seed, "offset", "lin")
        geometry = random_sky_geometry(rng)
        e1 = position_error_from_clock_offset(geometry, ns_from_millis(20), np.zeros(3))
        e2 = position_error_from_clock_offset(geometry, ns_from_millis(40), np.zeros(3))
        assert np.linalg.norm(e2) == pytest.approx(2.0 * np.linalg.norm(e1), rel=0.05)

    def test_sign_flip_mirrors_error(self):
        rng = stream(7, "offset", "sign")
        geometry = random_sky_geometry(rng)
        plus = position_error_from_clock_offset(geometry, ns_from_millis(30), np.zeros(3))
        minus = position_error_from_clock_offset(geometry, ns_from_millis(-30), np.zeros(3))
        np.testing.assert_allclose(plus, -minus, atol=0.05 * np.linalg.norm(plus))


def per_satellite_sky(rng, n_sats):
    """random_sky_geometry's draw with each satellite's velocity built in turn."""
    az = rng.uniform(0.0, 2.0 * np.pi, n_sats)
    el = rng.uniform(np.radians(15.0), np.radians(75.0), n_sats)
    units = np.column_stack([np.cos(el) * np.sin(az), np.cos(el) * np.cos(az), np.sin(el)])
    los_rate = rng.uniform(-350.0, 350.0, n_sats)
    velocities = np.empty_like(units)
    for i, u in enumerate(units):
        probe = np.array([1.0, 0.0, 0.0]) if abs(u[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        t1 = np.cross(u, probe)
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(u, t1)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        tangent = np.cos(phase) * t1 + np.sin(phase) * t2
        cross_speed = np.sqrt(max(3900.0**2 - los_rate[i] ** 2, 0.0))
        velocities[i] = los_rate[i] * u + cross_speed * tangent
    return units * RANGE_M, velocities


class TestRandomSky:
    @pytest.mark.parametrize("n_sats", [4, 8, 32])
    def test_equals_the_per_satellite_draw(self, n_sats):
        # seed 1252 at 8 satellites: squaring the line-of-sight rates as one
        # array, not one rate at a time, rounds one cross speed differently
        for seed in (*range(300), 1252):
            geometry = random_sky_geometry(np.random.default_rng(seed), n_sats=n_sats)
            positions, velocities = per_satellite_sky(np.random.default_rng(seed), n_sats)
            assert np.array_equal(geometry.positions, positions), seed
            assert np.array_equal(geometry.velocities, velocities), seed

    @pytest.mark.parametrize("seed", range(4))
    def test_elevation_band_and_speeds(self, seed):
        geometry = random_sky_geometry(stream(seed, "sky"))
        ranges = np.linalg.norm(geometry.positions, axis=1)
        np.testing.assert_allclose(ranges, 2.02e7, rtol=1e-12)
        elevations = np.degrees(np.arcsin(geometry.positions[:, 2] / ranges))
        assert (elevations >= 15.0 - 1e-9).all()
        assert (elevations <= 75.0 + 1e-9).all()
        speeds = np.linalg.norm(geometry.velocities, axis=1)
        np.testing.assert_allclose(speeds, 3900.0, rtol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_los_rate_capped(self, seed):
        geometry = random_sky_geometry(stream(seed, "sky", "rate"))
        units = geometry.positions / np.linalg.norm(geometry.positions, axis=1)[:, None]
        los_rates = np.einsum("ij,ij->i", geometry.velocities, units)
        assert (np.abs(los_rates) <= 350.0 + 1e-6).all()

    def test_advanced_moves_by_velocity_times_offset(self):
        geometry = random_sky_geometry(stream(0, "sky", "adv"))
        moved = geometry.advanced(ns_from_millis(50))
        np.testing.assert_allclose(
            moved.positions, geometry.positions + geometry.velocities * 0.05
        )
        np.testing.assert_allclose(moved.velocities, geometry.velocities)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SatGeometry(np.zeros((4, 2)), np.zeros((4, 3)))
        with pytest.raises(ValueError):
            SatGeometry(np.zeros((4, 3)), np.zeros((3, 3)))
