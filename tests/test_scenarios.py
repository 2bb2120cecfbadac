import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpsimlab import scenarios as sc
from gpsimlab.config import MAX_MATRIX_STEPS, Config, ConfigError, DeploymentConfig, HandoverConfig, SweepConfig
from gpsimlab.placement import (
    COLD,
    WARM,
    OverlappingCoverage,
    ZeroSpeed,
    can_update,
    corridor_layout,
    coverage_centers,
    gap_path,
    kmh_to_ms,
    ms_to_kmh,
    validate_deployment,
)
from gpsimlab.receiver import (
    DEDICATED,
    PROFILES,
    SMARTPHONE,
    Mode,
    ReceiverState,
    step,
)
from gpsimlab.reports import write_json
from gpsimlab.rng import derive_seed
from gpsimlab.timebase import NS_PER_MS, ns_from_millis

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
        positions = np.array([[3.0, 4.0, 100.0], [-3.0, 4.0, -7.0]])
        assert sc.horizontal_distances(positions, np.zeros(3)).tolist() == [5.0, 5.0]

    def test_horizontal_distances_round_as_the_per_row_norm(self):
        # the artifacts were computed one np.linalg.norm per fix; the stacked
        # form must round every row the same, which norm(axis=1) does not
        rng = np.random.default_rng(0)
        positions = rng.normal(0.0, 1e3, (50_000, 3))
        intended = rng.normal(0.0, 1e3, 3)
        per_row = [float(np.linalg.norm(p[:2] - intended[:2])) for p in positions]
        assert sc.horizontal_distances(positions, intended).tolist() == per_row


def stepped_timeline(segments, offsets_ns, profile, state):
    """``run_timeline``'s result from one ``step`` per quantum and a running sum of DT_S."""
    ends, tracking, rows = [], [], []
    running, last_mode = 0.0, None
    for seg in (seg for seg in segments for _ in range(seg.steps)):
        offset_ns = offsets_ns.get(seg.coverage, 0)
        state = step(state, profile, seg.signal, offset_ns)
        running += sc.DT_S
        if state.mode is not last_mode:
            rows.append((running, state.mode.value, seg.signal, offset_ns / NS_PER_MS, seg.coverage))
            last_mode = state.mode
        ends.append(running)
        tracking.append(state.mode is Mode.TRACKING)
    return ends, tracking, rows


def jumped_timeline(segments, offsets_ns, profile, state):
    t, tracking, transitions = sc.run_timeline(segments, offsets_ns, profile, state)
    return t.tolist(), tracking.tolist(), [dataclasses.astuple(r) for r in transitions]


def part_way(state, profile, quanta, offset_ns):
    """The state up to ``quanta`` quanta of signal after ``state``, stopping short of TRACKING."""
    for _ in range(quanta):
        following = step(state, profile, True, offset_ns)
        if following.mode is Mode.TRACKING:
            break
        state = following
    return state


@st.composite
def timelines(draw):
    """Segments, their offset map, a profile and a start state, cold, warm, at the t_max edge or part-way."""
    profile = draw(st.sampled_from(sorted(PROFILES.values(), key=lambda p: p.name)))
    # offsets run past SLOW_OFFSET_S, 250 ms, where the reacquisition map stops rising
    offsets = st.floats(min_value=0.0, max_value=300.0).map(ns_from_millis)
    segments = draw(
        st.lists(
            st.builds(sc.Segment, st.integers(0, 400), st.booleans(), st.sampled_from([None, 0, 1])),
            min_size=1,
            max_size=6,
        )
    )
    offsets_ns = {0: draw(offsets), 1: draw(offsets)}
    cold = ReceiverState.cold(profile)
    blocked = ReceiverState(Mode.BLOCKED, quanta=1)
    state = draw(
        st.one_of(
            st.sampled_from([ReceiverState.tracking(), cold]),
            # t_max is 1,350 quanta of blockage
            st.sampled_from([1349, 1350, 1351]).map(lambda quanta: ReceiverState(Mode.BLOCKED, quanta)),
            # part-way through a warm reacquisition or a cold acquisition
            st.builds(
                part_way, st.sampled_from([blocked, cold]), st.just(profile), st.integers(1, 300), offsets
            ),
        )
    )
    return segments, offsets_ns, profile, state


class TestTimeline:
    @given(timelines())
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_jumped_segments_match_stepping_every_quantum(self, timeline):
        assert jumped_timeline(*timeline) == stepped_timeline(*timeline)

    def test_blockage_split_across_segments_reaching_t_max_enters_warm(self):
        # 700 + 650 quanta of blockage is t_max of the dedicated profile exactly
        offsets_ns = {0: ns_from_millis(20.0)}
        segments = (
            sc.Segment(10, True),
            sc.Segment(700, False),
            sc.Segment(650, False),
            sc.Segment(30, True, 0),
        )
        assert 1350 * sc.DT_S == pytest.approx(DEDICATED.t_max_s)
        result = jumped_timeline(segments, offsets_ns, DEDICATED, ReceiverState.tracking())
        assert result == stepped_timeline(segments, offsets_ns, DEDICATED, ReceiverState.tracking())
        assert [row[1] for row in result[2]] == ["TRACKING", "BLOCKED", "REACQUISITION", "TRACKING"]

    def test_zero_step_segment_leaves_a_tracking_receiver_tracking(self):
        segments = (
            sc.Segment(3, True),
            sc.Segment(0, False),
            sc.Segment(4, True, 0),
        )
        t, tracking, transitions = sc.run_timeline(
            segments, {0: ns_from_millis(20.0)}, DEDICATED, ReceiverState.tracking()
        )
        # the zero-step segment adds no step: the simulator starts at 3 DT_S
        assert t.tolist() == pytest.approx([(i + 1) * sc.DT_S for i in range(7)])
        assert tracking.tolist() == [True] * 7
        # the only row is the first step's; nothing logs BLOCKED
        assert [r.mode for r in transitions] == ["TRACKING"]

    def test_step_times_repeat_the_running_sum_bit_for_bit(self):
        steps = 100_000
        t, tracking, _ = sc.run_timeline((sc.Segment(steps, True),), {}, DEDICATED, ReceiverState.tracking())
        expected, running = [], 0.0
        for _ in range(steps):
            running += sc.DT_S
            expected.append(running)
        assert t.tolist() == expected
        assert tracking.all()


class TestTransitionRows:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_blocked_rows_record_no_offset(self, seed):
        static = sc.run_static_handover(sc.PRIVATE_CALIBRATED, seed=seed)
        traversal = sc.run_dynamic_traversal(sc.default_driving_scenario(), seed=seed)
        for result in (static, traversal):
            blocked = [r for r in result.transitions if r.mode == "BLOCKED"]
            assert blocked and all(r.offset_ms == 0.0 for r in blocked)
            # a simulator's offset shows where the receiver latches it
            reacquired = [r for r in result.transitions if r.mode == "REACQUISITION" and r.coverage is not None]
            assert reacquired
            for row in reacquired:
                assert row.offset_ms == result.clock_draws[row.coverage].error_ns / NS_PER_MS != 0.0


class TestClockDraw:
    def test_raw_and_calibrated_share_randomness(self):
        raw = sc.draw_clock(9, "static", 0, sc.PRIVATE_RAW)
        cal = sc.draw_clock(9, "static", 0, sc.PRIVATE_CALIBRATED)
        # same sync run and same delay process; only the correction differs
        assert raw.ntp_error_ns == cal.ntp_error_ns
        assert raw.ref_error_ns == cal.ref_error_ns
        correction_ns = raw.sim_delay_ns - cal.sim_delay_ns
        assert correction_ns / NS_PER_MS == pytest.approx(30.0, abs=3.0)

    def test_error_is_component_sum(self):
        draw = sc.draw_clock(4, "static", 0, sc.PUBLIC_RAW)
        assert draw.error_ns == draw.sim_delay_ns + draw.ntp_error_ns + draw.ref_error_ns
        assert draw.to_dict()["composed_ms"] == draw.error_ns / NS_PER_MS

    def test_server_type_changes_sync_draw(self):
        pub = sc.draw_clock(2, "static", 0, sc.PUBLIC_RAW)
        prv = sc.draw_clock(2, "static", 0, sc.PRIVATE_RAW)
        assert pub.ntp_error_ns != prv.ntp_error_ns
        assert pub.sim_delay_ns == prv.sim_delay_ns

    def test_calibration_brings_error_inside_budget(self):
        for seed in range(5):
            draw = sc.draw_clock(seed, "static", 0, sc.PRIVATE_CALIBRATED)
            assert draw.within_budget
            assert abs(draw.error_ns) / NS_PER_MS < 10.0

    @pytest.mark.parametrize(
        "seed, scope, coverage", [(0, "static", 0), (7, "dynamic", 2), (29, "outdoor", 1)]
    )
    def test_shared_draw_equals_independent_draws(self, seed, scope, coverage):
        shared = sc.draw_clock(seed, scope, coverage, sc.ALL_CLOCK_CONFIGS)
        assert len(shared) == len(sc.ALL_CLOCK_CONFIGS)
        for config, draw in zip(sc.ALL_CLOCK_CONFIGS, shared):
            alone = sc.draw_clock(seed, scope, coverage, config)
            for field in dataclasses.fields(sc.ClockDraw):
                assert getattr(draw, field.name) == getattr(alone, field.name), (config.label, field.name)

    def test_shared_draw_keeps_the_requested_order(self):
        configs = (sc.PRIVATE_CALIBRATED, sc.PUBLIC_RAW)
        shared = sc.draw_clock(3, "static", 0, configs)
        assert shared == tuple(sc.draw_clock(3, "static", 0, c) for c in configs)

    def test_label_round_trip(self):
        for config in sc.ALL_CLOCK_CONFIGS:
            assert sc.CLOCK_CONFIGS_BY_LABEL[config.label] == config
        with pytest.raises(ValueError):
            sc.ClockConfig("corporate", True)


class TestStaticHandover:
    def test_timeline_and_fix_attribution(self):
        result = sc.run_static_handover(sc.PRIVATE_CALIBRATED, seed=0)
        live, simulated = result.t_s[result.coverage < 0], result.t_s[result.coverage >= 0]
        assert live.size and simulated.size
        assert set(result.coverage.tolist()) == {-1, 0}
        # live-sky fixes carry no receiver clock bias
        assert not result.clock_bias_s[result.coverage < 0].any()
        assert live.max() <= 30.0 + 1e-9
        assert simulated.min() >= 60.0
        # no fixes at all during the blocked half minute
        assert not ((30.0 + 1e-9 < result.t_s) & (result.t_s < 60.0 + 0.35)).any()

    def test_first_fix_latency_matches_quantized_target(self):
        result = sc.run_static_handover(sc.PRIVATE_CALIBRATED, seed=1)
        # small offset: base 0.4 s target, fixes every 0.1 s step
        latency = result.first_fix_latency_s[0]
        assert latency == pytest.approx(0.4, abs=0.1 + 1e-6)

    def test_handover_succeeds_and_stats_populated(self):
        result = sc.run_static_handover(sc.PRIVATE_RAW, seed=2)
        assert result.handover_success[0]
        stats = result.coverage_stats[0]
        assert stats.count == np.count_nonzero(result.coverage == 0)
        assert stats.p95_m >= stats.avg_m > 0.0

    def test_one_coverage_overall_is_its_coverage_stats(self, monkeypatch):
        # the overall stats of a one-coverage timeline are not computed a second time
        computed = []

        def counted(errors):
            computed.append(len(errors))
            return compute(errors)

        compute = sc.compute_error_stats
        monkeypatch.setattr(sc, "compute_error_stats", counted)
        result = sc.run_static_handover(sc.PRIVATE_RAW, seed=2)
        assert result.overall == result.coverage_stats[0]
        assert computed == [result.coverage_stats[0].count]

    def test_deterministic(self):
        a = sc.run_static_handover(sc.PUBLIC_RAW, seed=5)
        b = sc.run_static_handover(sc.PUBLIC_RAW, seed=5)
        assert a.to_dict() == b.to_dict()
        for column in ("t_s", "positions", "clock_bias_s", "coverage"):
            assert getattr(a, column).tolist() == getattr(b, column).tolist()

    def test_transitions_logged_in_order(self):
        result = sc.run_static_handover(sc.PRIVATE_CALIBRATED, seed=3)
        times = [r.t_s for r in result.transitions]
        assert times == sorted(times)
        modes = [r.mode for r in result.transitions]
        assert "BLOCKED" in modes
        assert "REACQUISITION" in modes

    def test_reacquires_with_the_configured_receiver(self):
        cfg = Config(deployment=DeploymentConfig(receiver="smartphone"))
        result = sc.run_static_handover(sc.PRIVATE_CALIBRATED, seed=0, cfg=cfg)
        # the smartphone's 4 s base reacquisition, not the dedicated 0.4 s
        assert result.first_fix_latency_s[0] == pytest.approx(SMARTPHONE.t_reacq_base_s, abs=0.1 + 1e-6)

    @pytest.mark.parametrize("seed", [0, 11, 23])
    def test_per_trial_p95_ordering(self, seed):
        p95 = {}
        for config in sc.ALL_CLOCK_CONFIGS:
            result = sc.run_static_handover(config, seed=seed)
            p95[config.label] = result.coverage_stats[0].p95_m
        assert (
            p95["public/raw"]
            > p95["public/calibrated"]
            > p95["private/raw"]
            > p95["private/calibrated"]
        )

    def test_matrix_aggregates(self):
        matrix = sc.run_static_handover_matrix(seed=0, cfg=Config(handover=HandoverConfig(trials=4)))
        assert matrix.trials == 4
        assert [c.label for c in matrix.cells] == [c.label for c in sc.ALL_CLOCK_CONFIGS]
        for cell in matrix.cells:
            assert len(cell.per_trial_p95_m) == 4
            assert cell.median_p95_m == pytest.approx(float(np.median(cell.per_trial_p95_m)))
        assert matrix.ordering_ok_every_trial

    @pytest.mark.parametrize(
        "per_config, ordered",
        [
            ({"a": [3.0, 5.0], "b": [2.0, 4.0], "c": [1.0, 3.0]}, True),
            ({"a": [3.0, 5.0], "b": [2.0, 5.0], "c": [1.0, 3.0]}, False),
            ({"a": [3.0, 5.0], "b": [2.0, 4.0], "c": [1.0, 4.5]}, False),
            ({"a": [], "b": []}, True),
        ],
        ids=["strict", "tie", "inverted", "no-trials"],
    )
    def test_ordering_is_strict_per_trial(self, per_config, ordered):
        assert sc._ordered_every_trial(per_config) is ordered


class TestOffsetSweep:
    def test_shape_and_symmetry(self):
        cfg = Config(sweep=SweepConfig(min_offset_ms=-100.0, max_offset_ms=100.0, step_ms=50.0, trials=2))
        result = sc.run_offset_sweep(seed=0, cfg=cfg)
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
        cfg = Config(sweep=SweepConfig(min_offset_ms=0.0, max_offset_ms=0.0, trials=1))
        fast = sc.run_offset_sweep(seed=1, cfg=cfg)
        phone = dataclasses.replace(cfg, deployment=DeploymentConfig(receiver="smartphone"))
        slow = sc.run_offset_sweep(seed=1, cfg=phone)
        assert slow.rows[0].mean_reacq_s > fast.rows[0].mean_reacq_s


class TestTunnelLayout:
    # the default deployment: r 80 m, d 500 m
    LAYOUT = corridor_layout(80.0, 500.0)

    def test_default_deployment_geometry(self):
        assert self.LAYOUT.centers_m == (450.0, 950.0, 1450.0)
        assert self.LAYOUT.portal_out_m == 1700.0
        assert self.LAYOUT.length_m == 1900.0

    def test_centers_are_the_planned_ones_behind_the_lead(self):
        # plan checks the same centers, counted from the first one
        planned = coverage_centers(0.0, 500.0)
        assert planned == (0.0, 500.0, 1000.0)
        assert self.LAYOUT.centers_m == tuple(450.0 + c for c in planned)

    def test_source_mapping(self):
        assert self.LAYOUT.source_at(0.0) == ("live_sky", None)
        assert self.LAYOUT.source_at(1900.0) == ("live_sky", None)
        assert self.LAYOUT.source_at(199.9) == ("live_sky", None)
        assert self.LAYOUT.source_at(200.0) == ("blocked", None)  # portal inclusive
        assert self.LAYOUT.source_at(300.0) == ("blocked", None)
        assert self.LAYOUT.source_at(450.0) == ("simulator", 0)
        assert self.LAYOUT.source_at(530.0) == ("simulator", 0)  # boundary inclusive
        assert self.LAYOUT.source_at(531.0) == ("blocked", None)
        assert self.LAYOUT.source_at(1450.0) == ("simulator", 2)
        assert self.LAYOUT.source_at(1700.0) == ("blocked", None)
        assert self.LAYOUT.source_at(1700.1) == ("live_sky", None)

    def test_validation(self):
        with pytest.raises(ValueError):
            corridor_layout(-1.0, 500.0)
        with pytest.raises(OverlappingCoverage):
            corridor_layout(80.0, 159.0)
        # coverages may touch: one diameter apart is a gap of zero length
        assert corridor_layout(80.0, 160.0).centers_m == (280.0, 440.0, 600.0)


class TestDynamicTraversal:
    @pytest.mark.parametrize("make", [sc.default_driving_scenario, sc.default_pedestrian_scenario])
    def test_builtin_layouts_plan_warm_at_their_speed(self, make):
        dep = make().deployment
        timing = PROFILES[dep.receiver]
        report = validate_deployment(dep.radius_m, dep.separation_m, kmh_to_ms(dep.max_speed_kmh), timing)
        assert report.ok
        # every gap stays within t_max, so each coverage is entered warm
        assert all(g.blockage_s <= timing.t_max_s for g in report.gaps)

    @staticmethod
    def _at_speed(speed_kmh):
        scenario = sc.default_driving_scenario()
        return dataclasses.replace(
            scenario, deployment=dataclasses.replace(scenario.deployment, max_speed_kmh=speed_kmh)
        )

    def test_non_positive_speed_rejected(self):
        with pytest.raises(ZeroSpeed):
            sc.run_dynamic_traversal(self._at_speed(0.0))

    def test_crossing_above_the_step_cap_rejected_before_stepping(self):
        # 1900 m at 1 mm/s would be 1.9e7 steps; refused before the first
        with pytest.raises(ConfigError, match="deployment.max_speed_kmh"):
            sc.run_dynamic_traversal(self._at_speed(ms_to_kmh(1e-3)))

    def test_presets_cross_the_layout_plan_checks(self):
        driving = sc.default_driving_scenario()
        assert driving.deployment == Config().deployment
        assert driving.pr_noise_m == 2.5
        # the speed the driving run always had
        assert kmh_to_ms(110.0) == 110.0 * 1000.0 / 3600.0
        walking = sc.default_pedestrian_scenario()
        assert walking.deployment == DeploymentConfig(80.0, 250.0, 5.04, "smartphone")
        assert walking.pr_noise_m == 6.0

    def test_driving_defaults_succeed(self):
        result = sc.run_dynamic_traversal(sc.default_driving_scenario(), seed=0)
        assert set(result.handover_success) == {0, 1, 2}
        assert all(result.handover_success.values())
        assert result.overall is not None
        assert result.overall.count > 100

    def test_overall_pools_every_coverage(self):
        scenario = sc.default_driving_scenario()
        result = sc.run_dynamic_traversal(scenario, seed=0)
        dep = scenario.deployment
        centers_m = corridor_layout(dep.radius_m, dep.separation_m).centers_m
        errors = [
            sc.horizontal_distances(result.positions[result.coverage == k], np.array([c, 0.0, 0.0]))
            for k, c in enumerate(centers_m)
        ]
        assert [e.size for e in errors] == [result.coverage_stats[k].count for k in range(len(centers_m))]
        assert result.overall == sc.compute_error_stats(np.concatenate(errors))
        assert result.overall.count == sum(e.size for e in errors)

    def test_fixes_only_inside_their_coverage(self):
        scenario = sc.default_driving_scenario()
        result = sc.run_dynamic_traversal(scenario, seed=4)
        dep = scenario.deployment
        v, layout = kmh_to_ms(dep.max_speed_kmh), corridor_layout(dep.radius_m, dep.separation_m)
        inside = result.coverage >= 0
        center = np.asarray(layout.centers_m)[result.coverage[inside]]
        path_pos = v * result.t_s[inside]
        # fix is emitted at the end of a step taken inside the coverage
        assert inside.any()
        assert (np.abs(path_pos - center) <= layout.radius_m + v * sc.DT_S + 1e-6).all()

    def test_live_fixes_scatter_around_the_vehicle(self):
        scenario = sc.default_driving_scenario()
        v = kmh_to_ms(scenario.deployment.max_speed_kmh)
        result = sc.run_dynamic_traversal(scenario, seed=0)
        live = result.coverage < 0
        along = result.positions[live, 0] - v * result.t_s[live]
        assert len(along) > 100
        assert np.abs(along).max() < 6 * sc.LIVE_SKY_SIGMA_M
        assert abs(along.mean()) < 1.0

    def test_coverages_have_independent_clock_draws(self):
        result = sc.run_dynamic_traversal(sc.default_driving_scenario(), seed=0)
        errors = [d.error_ns for d in result.clock_draws.values()]
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
                assert latency >= PROFILES[scenario.deployment.receiver].t_reacq_base_s - 1e-9

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
        cfg = Config(handover=HandoverConfig(trials=3))
        matrix = sc.run_traversal_matrix(sc.default_driving_scenario(cfg), seed=0, cfg=cfg)
        assert matrix.trials == 3
        assert matrix.ordering_ok_every_trial
        labels = [c.label for c in matrix.cells]
        assert labels == ["public/raw", "private/raw", "private/calibrated"]
        assert all(c.handover_success_all for c in matrix.cells)


def _first_mode_in(transitions, coverage):
    return next(r.mode for r in transitions if r.coverage == coverage)


class TestPlanAgreesWithTraversal:
    """What ``plan`` concludes about a deployment holds when it is crossed.

    The deployment is drawn by crossing time 2r/v and gap blockage
    (d - 2r)/v, so warm, cold and infeasible layouts all come up while the
    traversal stays short. The planning bounds are conservative, so a warm
    plan implies a warm crossing, not the other way round.
    """

    @given(
        receiver=st.sampled_from(["dedicated", "smartphone"]),
        speed_ms=st.floats(2.0, 40.0),
        # a cold acquisition (t_acq 30 s) fits the crossing, or it does not
        crossing_s=st.one_of(st.floats(1.0, 29.0), st.floats(30.0, 34.0)),
        # within t_max (135 s) or beyond it
        blockage_s=st.one_of(st.floats(1.0, 134.0), st.floats(136.0, 200.0)),
    )
    @settings(derandomize=True, max_examples=20, deadline=None)
    def test_planned_gaps_resume_as_planned(self, receiver, speed_ms, crossing_s, blockage_s):
        radius = speed_ms * crossing_s / 2.0
        separation = 2.0 * radius + speed_ms * blockage_s
        deployment = DeploymentConfig(radius, separation, ms_to_kmh(speed_ms), receiver)
        scenario = sc.PathScenario(deployment, sc.PRIVATE_CALIBRATED, sc.DRIVING_PR_NOISE_M)
        v, timing = kmh_to_ms(deployment.max_speed_kmh), PROFILES[receiver]
        report = validate_deployment(radius, separation, v, timing)
        paths = [gap_path(v, radius, g.blockage_s, timing) for g in report.gaps]

        result = sc.run_dynamic_traversal(scenario, seed=0)

        warm = (
            all(path == WARM for path in paths)
            and can_update(v, radius, separation, timing).ok
            and all(g.blockage_s <= timing.t_max_s - sc.DT_S for g in report.gaps)
        )
        if warm:
            for k in range(len(report.coverages)):
                assert _first_mode_in(result.transitions, k) == "REACQUISITION"
                assert result.handover_success[k]
        for gap, path in zip(report.gaps, paths):
            if path == COLD and gap.blockage_s > timing.t_max_s + sc.DT_S:
                assert _first_mode_in(result.transitions, gap.index + 1) == "ACQUISITION"


class TestOutdoorComparison:
    def test_live_model_matches_its_calibration(self):
        comparison = sc.run_outdoor_comparison(seed=0)
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


def assert_same_result(alone: sc.ScenarioResult, batched: sc.ScenarioResult) -> None:
    """Bit for bit: every fix column, every statistic, latency and transition."""
    for column in ("t_s", "positions", "clock_bias_s", "coverage"):
        a, b = getattr(alone, column), getattr(batched, column)
        assert a.dtype == b.dtype and np.array_equal(a, b), column
    assert alone.coverage_stats == batched.coverage_stats
    assert alone.overall == batched.overall
    assert alone.first_fix_latency_s == batched.first_fix_latency_s
    assert alone.handover_success == batched.handover_success
    assert alone.clock_draws == batched.clock_draws
    assert alone.transitions == batched.transitions


class TestBatchedConfigurations:
    """One stacked solve over a trial's configurations is invisible in every result."""

    @pytest.mark.parametrize("seed", [0, 7, 29])
    def test_static_handover_equals_its_entry_of_the_batch(self, seed):
        batched = sc._static_handovers(sc.ALL_CLOCK_CONFIGS, seed, Config())
        assert len(batched) == len(sc.ALL_CLOCK_CONFIGS)
        for config, result in zip(sc.ALL_CLOCK_CONFIGS, batched):
            assert_same_result(sc.run_static_handover(config, seed), result)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_traversal_equals_its_entry_of_the_batch(self, seed):
        scenario = sc.default_driving_scenario()
        plan = sc._traversal_plan(scenario.deployment)
        batched = sc._traversals(scenario, plan, sc.TRAVERSAL_CLOCK_CONFIGS, seed, Config())
        assert len(batched) == len(sc.TRAVERSAL_CLOCK_CONFIGS)
        for config, result in zip(sc.TRAVERSAL_CLOCK_CONFIGS, batched):
            alone = sc.run_dynamic_traversal(dataclasses.replace(scenario, clock=config), seed)
            assert_same_result(alone, result)


class Drawn(Exception):
    """A matrix got past its checks to its first clock draw."""


class TestMatrixStepBound:
    """trials x timeline steps is refused past MAX_MATRIX_STEPS before anything is drawn."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def drawn(*args, **kwargs):
            raise Drawn

        monkeypatch.setattr(sc, "draw_clock", drawn)

    def test_static_matrix(self):
        # 30 s live, 30 s blocked, 9,940 s simulator: 100,000 steps a trial
        handover = HandoverConfig(sim_s=9940.0)
        assert sum(seg.steps for seg in sc._static_plan(Config(handover=handover))) == 100_000
        at_cap = MAX_MATRIX_STEPS // 100_000
        with pytest.raises(Drawn):
            sc.run_static_handover_matrix(0, Config(handover=dataclasses.replace(handover, trials=at_cap)))
        past = Config(handover=dataclasses.replace(handover, trials=at_cap + 1))
        with pytest.raises(ConfigError, match=r"handover\.trials, handover\.live_s.*handover\.sim_s"):
            sc.run_static_handover_matrix(0, past)

    def test_driving_matrix(self):
        deployment = DeploymentConfig(max_speed_kmh=11.0)
        steps = sum(seg.steps for seg in sc._traversal_plan(deployment)[0])
        at_cap = MAX_MATRIX_STEPS // steps
        scenario = sc.default_driving_scenario(Config(deployment=deployment))
        with pytest.raises(Drawn):
            sc.run_traversal_matrix(scenario, 0, Config(deployment=deployment, handover=HandoverConfig(trials=at_cap)))
        past = Config(deployment=deployment, handover=HandoverConfig(trials=at_cap + 1))
        assert (at_cap + 1) * steps > MAX_MATRIX_STEPS
        with pytest.raises(ConfigError, match=r"handover\.trials, deployment\.max_speed_kmh"):
            sc.run_traversal_matrix(scenario, 0, past)

    def test_default_matrices_sit_far_below_the_bound(self):
        static_steps = sum(seg.steps for seg in sc._static_plan(Config()))
        driving_steps = sum(seg.steps for seg in sc._traversal_plan(DeploymentConfig())[0])
        assert Config().handover.trials * max(static_steps, driving_steps) * 200 <= MAX_MATRIX_STEPS


class TestSeedDerivation:
    def test_trial_seeds_are_paired_across_configs(self):
        # the matrix derives one seed per trial, shared by every config
        seed_a = derive_seed(0, "handover_matrix", 0)
        raw = sc.run_static_handover(sc.PRIVATE_RAW, seed_a)
        cal = sc.run_static_handover(sc.PRIVATE_CALIBRATED, seed_a)
        # identical live segments prove the shared noise streams
        live_raw, live_cal = raw.coverage < 0, cal.coverage < 0
        assert live_raw.any()
        assert raw.t_s[live_raw].tolist() == cal.t_s[live_cal].tolist()
        np.testing.assert_array_equal(raw.positions[live_raw], cal.positions[live_cal])
