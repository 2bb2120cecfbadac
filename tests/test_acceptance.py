"""End-to-end acceptance checks.

One test per shipping criterion. Every test prints a single
"ACCEPTANCE n [name]: PASS|FAIL" line (also to the live terminal, since
pytest captures stdout), and all tolerances are pinned here as module
constants rather than spread through the assertions.
"""

import filecmp
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpsimlab import scenarios as sc
from gpsimlab.cli import EXIT_OK, main
from gpsimlab.config import Config, DeploymentConfig, HandoverConfig, SweepConfig
from gpsimlab.ntp import run_sync_comparison
from gpsimlab.placement import kmh_to_ms, max_separation, min_coverage_radius, min_radius_for_separation, ms_to_kmh, slow_path_speed_bound
from gpsimlab.receiver import DEDICATED, SMARTPHONE
from gpsimlab.rng import stream
from gpsimlab.solver import SatGeometry, _design_matrix, position_error_from_clock_offset, random_sky_geometry, solve_position
from gpsimlab.timebase import ns_from_millis, within_budget

# ---- pinned tolerances and targets ----------------------------------------

GOLDEN_ABS_M = 0.05          # placement closed forms
GOLDEN_ABS_KMH = 0.05

SYNC_TARGET_MS = {           # worst-case settled sync error per cell
    ("wired", "private"): 1.0,
    ("wired", "public"): 15.0,
    ("wireless", "private"): 20.0,
    ("wireless", "public"): 75.0,
}
SYNC_REL_TOL = 0.30
SYNC_DURATION_S = 1800.0
SYNC_TIME_LIMIT_S = 30.0

SWEEP_TIME_LIMIT_S = 60.0
SWEEP_FLAT_REL_TOL = 0.10    # reacq within 10% of base inside +-50 ms
SWEEP_QUANTUM_S = 0.1        # fix cadence adds one step of slack

MATRIX_TRIALS = 50
MATRIX_TIME_LIMIT_S = 120.0
STATIC_P95_TARGET_M = 2.95   # private/calibrated reference point
FACTOR_OF_TWO = 2.0

TRAVERSAL_TRIALS = 5
TRAVERSAL_TIME_LIMIT_S = 120.0
DYNAMIC_AVG_TARGET_M = 3.7   # private/calibrated reference point
PEDESTRIAN_FIRST_FIX_S = (3.5, 4.5)

SOLVER_CASES = 100
POSITION_INVARIANCE_M = 1e-6
JACOBIAN_REL_TOL = 1e-6
ZERO_VELOCITY_ERROR_M = 1e-12

# ----------------------------------------------------------------------------


@pytest.fixture
def criterion(capfd):
    """Context manager printing one PASS/FAIL line per criterion.

    Emits through capfd.disabled() so the line reaches the real terminal
    even under pytest's default fd-level capture, and also into the
    captured stream so failure reports carry it.
    """

    @contextmanager
    def _criterion(num: int, name: str):
        passed = False
        try:
            yield
            passed = True
        finally:
            line = f"ACCEPTANCE {num} [{name}]: {'PASS' if passed else 'FAIL'}"
            with capfd.disabled():
                print(line, flush=True)
            print(line)

    return _criterion


def test_criterion_1_placement_closed_forms(criterion):
    with criterion(1, "placement closed forms"):
        timing = DEDICATED
        assert (timing.t_reacq_s, timing.t_max_s, timing.t_acq_s) == (5.0, 135.0, 30.0)
        v = kmh_to_ms(110.0)
        assert min_coverage_radius(v, timing.t_reacq_s) == pytest.approx(76.39, abs=GOLDEN_ABS_M)
        assert max_separation(80.0, timing) == 880.0
        assert ms_to_kmh(slow_path_speed_bound(80.0, timing.t_acq_s)) == pytest.approx(
            19.2, abs=GOLDEN_ABS_KMH
        )
        assert min_radius_for_separation(500.0, timing, kmh_to_ms(30.0)) == pytest.approx(
            45.45, abs=GOLDEN_ABS_M
        )


def test_criterion_2_clock_error_composition(criterion):
    with criterion(2, "clock error composition"):
        ns_values = st.integers(min_value=-(10**14), max_value=10**14)

        limit_ns = ns_from_millis(sc.DEFAULTS.budget.limit_ms)

        def composed(sim_ns, ntp_ns, ref_ns):
            return sc.ClockDraw(sim_ns, ntp_ns, ref_ns, ntp_bound_s=0.0, within_budget=True).error_ns

        @given(ns_values, ns_values, ns_values)
        @settings(max_examples=300)
        def composition_is_exact_and_symmetric(a, b, c):
            total = composed(a, b, c)
            assert total == a + b + c
            assert within_budget(total, limit_ns) == (abs(a + b + c) <= 50_000_000)
            assert within_budget(total, limit_ns) == within_budget(-total, limit_ns)

        composition_is_exact_and_symmetric()

        # boundary is inclusive in both directions
        edge = ns_from_millis(50)
        assert within_budget(edge, limit_ns) and within_budget(-edge, limit_ns)
        assert not within_budget(edge + 1, limit_ns)

        # a 30 ms transmit path plus 19 ms of sync error fits the budget;
        # one more millisecond of sync error does not
        inside = composed(ns_from_millis(30), ns_from_millis(19), 0)
        outside = composed(ns_from_millis(30), ns_from_millis(20), 1)
        assert within_budget(inside, limit_ns)
        assert not within_budget(outside, limit_ns)


def test_criterion_3_sync_error_matrix(criterion):
    with criterion(3, "sync error matrix"):
        start = time.monotonic()
        cells = run_sync_comparison(duration_s=SYNC_DURATION_S, seed=0)
        elapsed = time.monotonic() - start
        assert elapsed < SYNC_TIME_LIMIT_S, f"sync matrix took {elapsed:.1f} s"
        assert len(cells) == 4
        for cell in cells:
            target = SYNC_TARGET_MS[(cell.connection_type, cell.server_type)]
            low, high = target * (1 - SYNC_REL_TOL), target * (1 + SYNC_REL_TOL)
            assert low <= cell.est_max_ntp_error_ms <= high, (
                f"{cell.connection_type}/{cell.server_type}: {cell.est_max_ntp_error_ms:.3f} ms "
                f"outside [{low:.3f}, {high:.3f}]"
            )
            # the advertised bound must dominate the true offset throughout
            assert cell.bound_held


def test_criterion_4_offset_sweep_shape(criterion):
    with criterion(4, "offset sweep shape"):
        start = time.monotonic()
        for profile in (DEDICATED, SMARTPHONE):
            cfg = Config(deployment=DeploymentConfig(receiver=profile.name), sweep=SweepConfig(trials=3))
            result = sc.run_offset_sweep(seed=0, cfg=cfg)
            rows = {round(r.offset_ms): r for r in result.rows}
            assert len(rows) == 11
            base = profile.t_reacq_base_s
            for ms in (50, 100, 150, 200, 250):
                assert rows[ms].mean_reacq_s == rows[-ms].mean_reacq_s, f"asymmetry at {ms}"
            for ms in (-50, 0, 50):
                assert abs(rows[ms].mean_reacq_s - base) <= SWEEP_FLAT_REL_TOL * base + SWEEP_QUANTUM_S
            arm = [rows[ms].mean_reacq_s for ms in (50, 100, 150, 200, 250)]
            assert all(a < b for a, b in zip(arm, arm[1:])), f"not increasing: {arm}"
            errors = [rows[ms].mean_error_m for ms in (0, 50, 100, 150, 200, 250)]
            assert all(a < b for a, b in zip(errors, errors[1:])), f"not increasing: {errors}"
        elapsed = time.monotonic() - start
        assert elapsed < SWEEP_TIME_LIMIT_S, f"sweeps took {elapsed:.1f} s"


def test_criterion_5_static_handover_matrix(criterion):
    with criterion(5, "static handover matrix"):
        start = time.monotonic()
        matrix = sc.run_static_handover_matrix(seed=0, cfg=Config(handover=HandoverConfig(trials=MATRIX_TRIALS)))
        elapsed = time.monotonic() - start
        assert elapsed < MATRIX_TIME_LIMIT_S, f"matrix took {elapsed:.1f} s"
        assert matrix.trials >= 50
        # worst-to-best p95 ordering must hold inside every paired trial
        assert matrix.ordering_ok_every_trial
        by_label = {c.label: c for c in matrix.cells}
        best = by_label["private/calibrated"]
        low = STATIC_P95_TARGET_M / FACTOR_OF_TWO
        high = STATIC_P95_TARGET_M * FACTOR_OF_TWO
        assert low <= best.median_p95_m <= high, (
            f"private/calibrated median p95 {best.median_p95_m:.2f} m outside "
            f"[{low:.2f}, {high:.2f}]"
        )


def test_criterion_6_dynamic_traversals(criterion):
    with criterion(6, "dynamic traversals"):
        start = time.monotonic()
        cfg = Config(handover=HandoverConfig(trials=TRAVERSAL_TRIALS))
        driving = sc.traversal_plan(cfg.deployment, sc.DRIVING_PR_NOISE_M)
        matrix = sc.run_traversal_matrix(driving, seed=0, cfg=cfg)
        assert matrix.ordering_ok_every_trial
        assert all(cell.handover_success_all for cell in matrix.cells)
        best = {c.label: c for c in matrix.cells}["private/calibrated"]
        low = DYNAMIC_AVG_TARGET_M / FACTOR_OF_TWO
        high = DYNAMIC_AVG_TARGET_M * FACTOR_OF_TWO
        assert low <= best.median_avg_m <= high, (
            f"private/calibrated median avg {best.median_avg_m:.2f} m outside "
            f"[{low:.2f}, {high:.2f}]"
        )

        walking = sc.traversal_plan(sc.PEDESTRIAN_DEPLOYMENT, sc.PEDESTRIAN_PR_NOISE_M)
        pedestrian = sc.run_dynamic_traversal(walking, sc.PRIVATE_CALIBRATED, seed=0)
        assert all(pedestrian.handover_success.values())
        for k, latency in pedestrian.first_fix_latency_s.items():
            assert latency is not None
            assert PEDESTRIAN_FIRST_FIX_S[0] <= latency <= PEDESTRIAN_FIRST_FIX_S[1], (
                f"coverage {k} first fix {latency:.2f} s"
            )
        elapsed = time.monotonic() - start
        assert elapsed < TRAVERSAL_TIME_LIMIT_S, f"traversals took {elapsed:.1f} s"


def test_criterion_7_solver_properties(criterion):
    with criterion(7, "solver properties"):
        for case in range(SOLVER_CASES):
            rng = stream(case, "acceptance", "solver")
            geometry = random_sky_geometry(rng)
            true_pos = rng.uniform(-30.0, 30.0, 3)
            pr = np.linalg.norm(geometry.positions - true_pos, axis=1)

            base = solve_position(pr, geometry, initial_guess=true_pos)
            shifted = solve_position(pr + 250.0, geometry, initial_guess=true_pos)
            assert np.linalg.norm(shifted.position - base.position) < POSITION_INVARIANCE_M

            H, _ = _design_matrix(geometry.positions, true_pos)
            # step large enough that the difference of ~2e7 m ranges is not
            # dominated by their own rounding (a few ulp ~ 1e-8 m), small
            # enough that curvature stays orders below the tolerance
            h = 100.0
            for j in range(3):
                dx = np.zeros(3)
                dx[j] = h
                rp = np.linalg.norm(geometry.positions - (true_pos + dx), axis=1)
                rm = np.linalg.norm(geometry.positions - (true_pos - dx), axis=1)
                fd = (rp - rm) / (2.0 * h)
                np.testing.assert_allclose(H[:, j], fd, rtol=JACOBIAN_REL_TOL, atol=1e-9)

            frozen = SatGeometry(geometry.positions, np.zeros_like(geometry.velocities))
            err = position_error_from_clock_offset(frozen, ns_from_millis(200), true_pos)
            assert np.linalg.norm(err) <= ZERO_VELOCITY_ERROR_M


def test_criterion_8_deterministic_cli_reruns(criterion, tmp_path):
    with criterion(8, "deterministic cli reruns"):
        cfg_path = tmp_path / "acceptance_config.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "sync": {"duration_s": 480.0},
                    "sweep": {"min_offset_ms": -100.0, "max_offset_ms": 100.0, "step_ms": 100.0, "trials": 1},
                    "handover": {"trials": 2},
                }
            )
        )
        commands = [
            ["plan"],
            ["sync-compare"],
            ["calibrate"],
            ["simulate", "--scenario", "outdoor"],
            ["simulate", "--scenario", "static"],
            ["simulate", "--scenario", "static", "--clock", "private/calibrated"],
            ["simulate", "--scenario", "driving", "--trials", "1"],
            ["simulate", "--scenario", "pedestrian"],
            ["sweep"],
        ]
        dirs = (tmp_path / "first", tmp_path / "second")
        for out in dirs:
            for argv in commands:
                code = main(argv + ["--config", str(cfg_path), "--out", str(out)])
                assert code == EXIT_OK, f"{argv} exited {code}"
        first_files = sorted(p.name for p in dirs[0].iterdir())
        second_files = sorted(p.name for p in dirs[1].iterdir())
        assert first_files == second_files and first_files
        match, mismatch, errors = filecmp.cmpfiles(*dirs, common=first_files, shallow=False)
        assert not mismatch, f"artifacts differ between reruns: {mismatch}"
        assert not errors
