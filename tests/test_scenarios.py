import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpsimlab import scenarios as sc
from gpsimlab.config import Config, SweepConfig
from gpsimlab.placement import ZeroSpeed, validate_deployment
from gpsimlab.receiver import DEDICATED, SMARTPHONE, planning_timing
from gpsimlab.reports import write_json
from gpsimlab.rng import derive_seed

error_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False), min_size=1, max_size=200
)


class TestErrorStats:
    @given(error_lists)
    def test_nearest_rank_p95_brute_force(self, errors):
        ordered = sorted(errors)
        rank = math.ceil(0.95 * len(ordered))
        assert sc.nearest_rank_p95(errors) == ordered[rank - 1]

    @given(error_lists)
    @settings(max_examples=60)
    def test_moments_and_identity(self, errors):
        stats = sc.compute_error_stats(errors)
        arr = np.asarray(errors)
        assert stats.count == len(errors)
        assert stats.avg_m == pytest.approx(arr.mean(), rel=1e-9, abs=1e-9)
        assert stats.max_m == arr.max()
        # rms^2 = avg^2 + population stddev^2, the reason both are kept
        assert stats.rms_m**2 == pytest.approx(
            stats.avg_m**2 + stats.stddev_m**2, rel=1e-9, abs=1e-6
        )

    def test_sample_vs_population_stddev(self):
        stats = sc.compute_error_stats([1.0, 2.0, 3.0, 4.0])
        assert stats.stddev_m == pytest.approx(float(np.std([1, 2, 3, 4])))
        assert stats.stddev_sample_m == pytest.approx(float(np.std([1, 2, 3, 4], ddof=1)))

    def test_single_value(self):
        stats = sc.compute_error_stats([2.5])
        assert stats.stddev_m == 0.0
        assert stats.stddev_sample_m == 0.0
        assert stats.p95_m == 2.5

    def test_empty_rejected(self):
        with pytest.raises(sc.EmptyFixSet):
            sc.compute_error_stats([])
        with pytest.raises(sc.EmptyFixSet):
            sc.nearest_rank_p95([])

    def test_horizontal_error_ignores_height(self):
        assert sc.horizontal_error(np.array([3.0, 4.0, 100.0]), np.zeros(3)) == 5.0


class TestClockDraw:
    def test_raw_and_calibrated_share_randomness(self):
        raw = sc.draw_clock(9, "static", 0, sc.PRIVATE_RAW)
        cal = sc.draw_clock(9, "static", 0, sc.PRIVATE_CALIBRATED)
        # same sync run and same delay process; only the correction differs
        assert raw.chain.ntp_error == cal.chain.ntp_error
        assert raw.chain.ref_error == cal.chain.ref_error
        correction = raw.chain.sim_delay - cal.chain.sim_delay
        assert correction.millis == pytest.approx(30.0, abs=3.0)

    def test_error_is_component_sum(self):
        draw = sc.draw_clock(4, "static", 0, sc.PUBLIC_RAW)
        parts = draw.chain
        assert draw.error.ns == parts.sim_delay.ns + parts.ntp_error.ns + parts.ref_error.ns

    def test_server_type_changes_sync_draw(self):
        pub = sc.draw_clock(2, "static", 0, sc.PUBLIC_RAW)
        prv = sc.draw_clock(2, "static", 0, sc.PRIVATE_RAW)
        assert pub.chain.ntp_error != prv.chain.ntp_error
        assert pub.chain.sim_delay == prv.chain.sim_delay

    def test_calibration_brings_error_inside_budget(self):
        for seed in range(5):
            draw = sc.draw_clock(seed, "static", 0, sc.PRIVATE_CALIBRATED)
            assert draw.within_budget
            assert abs(draw.error.millis) < 10.0

    def test_label_round_trip(self):
        for config in sc.ALL_CLOCK_CONFIGS:
            assert sc.CLOCK_CONFIGS_BY_LABEL[config.label] == config
        with pytest.raises(ValueError):
            sc.ClockConfig("corporate", True)


class TestStaticHandover:
    def test_timeline_and_fix_attribution(self):
        result = sc.run_static_handover(sc.PRIVATE_CALIBRATED, DEDICATED, seed=0)
        live = [f for f in result.fixes if f.source == "live_sky"]
        simulated = [f for f in result.fixes if f.source == "simulator"]
        assert live and simulated
        assert all(f.coverage is None for f in live)
        assert all(f.coverage == 0 for f in simulated)
        assert max(f.t_s for f in live) <= 30.0 + 1e-9
        assert min(f.t_s for f in simulated) >= 60.0
        # no fixes at all during the blocked half minute
        assert not [f for f in result.fixes if 30.0 + 1e-9 < f.t_s < 60.0 + 0.35]

    def test_first_fix_latency_matches_quantized_target(self):
        result = sc.run_static_handover(sc.PRIVATE_CALIBRATED, DEDICATED, seed=1)
        # small offset: base 0.4 s target, fixes every 0.1 s step
        latency = result.first_fix_latency_s[0]
        assert latency == pytest.approx(0.4, abs=0.1 + 1e-6)

    def test_handover_succeeds_and_stats_populated(self):
        result = sc.run_static_handover(sc.PRIVATE_RAW, DEDICATED, seed=2)
        assert result.handover_success[0]
        stats = result.coverage_stats[0]
        assert stats.count == len([f for f in result.fixes if f.coverage == 0])
        assert stats.p95_m >= stats.avg_m > 0.0

    def test_deterministic(self):
        a = sc.run_static_handover(sc.PUBLIC_RAW, DEDICATED, seed=5)
        b = sc.run_static_handover(sc.PUBLIC_RAW, DEDICATED, seed=5)
        assert a.to_dict() == b.to_dict()
        assert [f.t_s for f in a.fixes] == [f.t_s for f in b.fixes]

    def test_transitions_logged_in_order(self):
        result = sc.run_static_handover(sc.PRIVATE_CALIBRATED, DEDICATED, seed=3)
        times = [r.t_s for r in result.transitions]
        assert times == sorted(times)
        modes = [r.mode for r in result.transitions]
        assert "BLOCKED" in modes
        assert "REACQUISITION" in modes

    @pytest.mark.parametrize("seed", [0, 11, 23])
    def test_per_trial_p95_ordering(self, seed):
        p95 = {}
        for config in sc.ALL_CLOCK_CONFIGS:
            result = sc.run_static_handover(config, DEDICATED, seed=seed)
            p95[config.label] = result.coverage_stats[0].p95_m
        assert (
            p95["public/raw"]
            > p95["public/calibrated"]
            > p95["private/raw"]
            > p95["private/calibrated"]
        )

    def test_matrix_aggregates(self):
        matrix = sc.run_static_handover_matrix(trials=4, seed=0)
        assert matrix.trials == 4
        assert [c.label for c in matrix.cells] == [c.label for c in sc.ALL_CLOCK_CONFIGS]
        for cell in matrix.cells:
            assert len(cell.per_trial_p95_m) == 4
            assert cell.median_p95_m == pytest.approx(float(np.median(cell.per_trial_p95_m)))
        assert matrix.ordering_ok_every_trial


class TestOffsetSweep:
    def test_shape_and_symmetry(self):
        cfg = Config(sweep=SweepConfig(min_offset_ms=-100.0, max_offset_ms=100.0, step_ms=50.0))
        result = sc.run_offset_sweep(DEDICATED, trials=2, seed=0, cfg=cfg)
        rows = {r.offset_ms: r for r in result.rows}
        assert len(result.rows) == 5
        # reacquisition depends on |offset| only
        assert rows[-100.0].mean_reacq_s == rows[100.0].mean_reacq_s
        assert rows[-50.0].mean_reacq_s == rows[50.0].mean_reacq_s
        # flat base region, then growth
        assert rows[0.0].mean_reacq_s == pytest.approx(0.4)
        assert rows[50.0].mean_reacq_s == pytest.approx(0.4)
        assert rows[100.0].mean_reacq_s > rows[50.0].mean_reacq_s
        # position error is smallest with a true clock
        assert rows[0.0].mean_error_m < rows[50.0].mean_error_m < rows[100.0].mean_error_m

    def test_default_grid_is_eleven_points(self):
        offsets = SweepConfig().offsets_ms()
        assert len(offsets) == 11
        assert offsets[0] == -250.0
        assert offsets[-1] == 250.0

    def test_smartphone_reacquires_slower(self):
        cfg = Config(sweep=SweepConfig(min_offset_ms=0.0, max_offset_ms=0.0))
        fast = sc.run_offset_sweep(DEDICATED, trials=1, seed=1, cfg=cfg)
        slow = sc.run_offset_sweep(SMARTPHONE, trials=1, seed=1, cfg=cfg)
        assert slow.rows[0].mean_reacq_s > fast.rows[0].mean_reacq_s


class TestTunnelLayout:
    LAYOUT = sc.TunnelLayout(
        centers_m=(450.0, 950.0, 1450.0), radius_m=80.0, portal_in_m=200.0, portal_out_m=1700.0
    )

    def test_source_mapping(self):
        assert self.LAYOUT.source_at(0.0) == ("live_sky", None)
        assert self.LAYOUT.source_at(1900.0) == ("live_sky", None)
        assert self.LAYOUT.source_at(300.0) == ("blocked", None)
        assert self.LAYOUT.source_at(450.0) == ("simulator", 0)
        assert self.LAYOUT.source_at(530.0) == ("simulator", 0)  # boundary inclusive
        assert self.LAYOUT.source_at(531.0) == ("blocked", None)
        assert self.LAYOUT.source_at(1450.0) == ("simulator", 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            sc.TunnelLayout((500.0, 100.0), 80.0, 0.0, 1000.0)
        with pytest.raises(ValueError):
            sc.TunnelLayout((100.0,), -1.0, 0.0, 1000.0)
        with pytest.raises(ValueError):
            sc.TunnelLayout((100.0,), 10.0, 900.0, 400.0)


class TestDynamicTraversal:
    @pytest.mark.parametrize("make", [sc.default_driving_scenario, sc.default_pedestrian_scenario])
    def test_builtin_layouts_plan_warm_at_their_speed(self, make):
        scenario = make()
        layout, timing = scenario.layout, planning_timing(scenario.profile)
        report = validate_deployment(layout.centers_m, layout.radius_m, scenario.speed_ms, timing)
        assert report.ok
        # every gap stays within t_max, so each coverage is entered warm
        assert all(g.blockage_s <= timing.t_max_s for g in report.gaps)

    def test_non_positive_speed_rejected(self):
        with pytest.raises(ZeroSpeed):
            dataclasses.replace(sc.default_driving_scenario(), speed_ms=0.0)

    def test_driving_defaults_succeed(self):
        result = sc.run_dynamic_traversal(sc.default_driving_scenario(), seed=0)
        assert set(result.handover_success) == {0, 1, 2}
        assert all(result.handover_success.values())
        assert result.overall is not None
        assert result.overall.count > 100

    def test_fixes_only_inside_their_coverage(self):
        scenario = sc.default_driving_scenario()
        result = sc.run_dynamic_traversal(scenario, seed=4)
        v = scenario.speed_ms
        for fix in result.fixes:
            if fix.coverage is None:
                continue
            center = scenario.layout.centers_m[fix.coverage]
            path_pos = v * fix.t_s
            # fix is emitted at the end of a step taken inside the coverage
            assert abs(path_pos - center) <= scenario.layout.radius_m + v * sc.DT_S + 1e-6

    def test_coverages_have_independent_clock_draws(self):
        result = sc.run_dynamic_traversal(sc.default_driving_scenario(), seed=0)
        errors = [d.error.ns for d in result.clock_draws.values()]
        assert len(set(errors)) == len(errors)

    def test_pedestrian_first_fix_near_four_seconds(self):
        result = sc.run_dynamic_traversal(sc.default_pedestrian_scenario(), seed=0)
        for k, latency in result.first_fix_latency_s.items():
            assert latency is not None, f"coverage {k} never produced a fix"
            assert 3.5 <= latency <= 4.5

    def test_first_fix_latency_counts_from_signal_restoration(self):
        # latency runs from the end of the last step outside a coverage, as
        # in the static handover, so it cannot undercut the base
        # reacquisition time; the slack only absorbs float rounding of t
        for scenario in (sc.default_pedestrian_scenario(), sc.default_driving_scenario()):
            result = sc.run_dynamic_traversal(scenario, seed=0)
            for latency in result.first_fix_latency_s.values():
                assert latency >= scenario.profile.t_reacq_base_s - 1e-9

    def test_pedestrian_blockages_stay_warm(self):
        # gaps of 90 m at 1.4 m/s: about 64 s of blockage, well under
        # t_max, so no cold acquisition should ever appear
        result = sc.run_dynamic_traversal(sc.default_pedestrian_scenario(), seed=2)
        assert "ACQUISITION" not in [r.mode for r in result.transitions]

    @pytest.mark.parametrize("seed", [0, 7])
    def test_traversal_ordering_by_clock_quality(self, seed):
        scenario = sc.default_driving_scenario()
        avgs = []
        for config in (sc.PUBLIC_RAW, sc.PRIVATE_RAW, sc.PRIVATE_CALIBRATED):
            result = sc.run_dynamic_traversal(
                dataclasses.replace(scenario, clock=config), seed=seed
            )
            avgs.append(result.overall.avg_m)
        assert avgs[0] > avgs[1] > avgs[2]

    def test_matrix_runs_paired_trials(self):
        matrix = sc.run_traversal_matrix(sc.default_driving_scenario(), trials=3, seed=0)
        assert matrix.trials == 3
        assert matrix.ordering_ok_every_trial
        labels = [c.label for c in matrix.cells]
        assert labels == ["public/raw", "private/raw", "private/calibrated"]
        assert all(c.handover_success_all for c in matrix.cells)


class TestOutdoorComparison:
    def test_live_model_matches_its_calibration(self):
        comparison = sc.run_outdoor_comparison(seed=0, window_s=60.0)
        # mean of the live-sky noise model is tuned to the open-sky error level
        assert comparison.live.avg_m == pytest.approx(sc.LIVE_SKY_MEAN_ERROR_M, abs=0.6)

    def test_simulated_fit_for_outdoor_use(self):
        for seed in range(3):
            comparison = sc.run_outdoor_comparison(seed=seed)
            assert comparison.fit_for_outdoor_use
            assert comparison.simulated.avg_m <= comparison.threshold_m

    def test_to_dict_round_trip_keys(self, tmp_path):
        write_json(tmp_path / "outdoor.json", sc.run_outdoor_comparison(seed=1))
        payload = json.loads((tmp_path / "outdoor.json").read_text())
        assert set(payload["live"]) == {
            "count", "avg_m", "stddev_m", "stddev_sample_m", "rms_m", "p95_m", "max_m"
        }
        assert set(payload) == {
            "live",
            "simulated",
            "window_s",
            "threshold_m",
            "fit_for_outdoor_use",
        }


class TestSeedDerivation:
    def test_trial_seeds_are_paired_across_configs(self):
        # the matrix derives one seed per trial, shared by every config
        seed_a = derive_seed(0, "handover_matrix", 0)
        raw = sc.run_static_handover(sc.PRIVATE_RAW, DEDICATED, seed_a)
        cal = sc.run_static_handover(sc.PRIVATE_CALIBRATED, DEDICATED, seed_a)
        # identical live segments prove the shared noise streams
        live_raw = [f for f in raw.fixes if f.source == "live_sky"]
        live_cal = [f for f in cal.fixes if f.source == "live_sky"]
        assert [f.t_s for f in live_raw] == [f.t_s for f in live_cal]
        for a, b in zip(live_raw, live_cal):
            np.testing.assert_array_equal(a.position, b.position)
