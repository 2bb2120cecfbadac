import pytest
from hypothesis import assume, example, given, strategies as st

from gpsimlab.placement import (
    COLD,
    WARM,
    OverlappingCoverage,
    ZeroSpeed,
    blockage_time,
    crossing_fits,
    gap_path,
    kmh_to_ms,
    max_separation,
    min_coverage_radius,
    min_radius_for_separation,
    ms_to_kmh,
    reception_time,
    slow_path_speed_bound,
    validate_deployment,
)
from gpsimlab.receiver import DEDICATED, PROFILES
from gpsimlab.reports import _canonical

# the paper's planning triple: t_reacq 5 s, t_max 135 s, t_acq 30 s
PLANNING = DEDICATED
V110 = kmh_to_ms(110.0)


class TestUnits:
    def test_kmh_factor_is_exact(self):
        assert kmh_to_ms(3.6) == 1.0
        assert ms_to_kmh(1.0) == 3.6
        assert kmh_to_ms(110.0) == pytest.approx(30.5555555556, abs=1e-9)

    @given(st.floats(min_value=0.1, max_value=500.0))
    def test_round_trip(self, kmh):
        assert ms_to_kmh(kmh_to_ms(kmh)) == pytest.approx(kmh, rel=1e-12)


class TestClosedForms:
    def test_min_radius_at_highway_speed(self):
        # 110 km/h with a 5 s reacquisition bound
        assert min_coverage_radius(V110, PLANNING.t_reacq_s) == pytest.approx(76.39, abs=0.05)

    def test_max_separation_golden(self):
        # r = 80 m, t_max / t_acq = 4.5: d = 2 * 80 * 5.5, exactly
        assert max_separation(80.0, PLANNING) == 880.0

    def test_slow_path_bound_golden(self):
        assert ms_to_kmh(slow_path_speed_bound(80.0, PLANNING.t_acq_s)) == pytest.approx(
            19.2, abs=0.05
        )

    def test_radius_floor_for_500m_separation(self):
        # at low speed the separation constraint binds: 500 / 11
        slow = kmh_to_ms(30.0)
        assert min_radius_for_separation(500.0, PLANNING, slow) == pytest.approx(45.45, abs=0.05)

    def test_radius_floor_speed_term_binds_at_highway_speed(self):
        assert min_radius_for_separation(500.0, PLANNING, V110) == pytest.approx(76.39, abs=0.05)

    def test_reception_and_blockage_times(self):
        assert reception_time(80.0, V110) == pytest.approx(160.0 / V110)
        assert blockage_time(500.0, 80.0, V110) == pytest.approx(340.0 / V110)

    def test_zero_speed_rejected(self):
        with pytest.raises(ZeroSpeed):
            reception_time(80.0, 0.0)
        with pytest.raises(ZeroSpeed):
            min_coverage_radius(0.0, 5.0)

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingCoverage):
            blockage_time(100.0, 80.0, V110)


class TestFeasibility:
    def test_default_corridor_is_feasible(self):
        report = validate_deployment(80.0, 500.0, V110, PLANNING)
        assert report.ok
        assert report.gap_path == WARM
        assert "within t_max" in report.gap

    def test_blockage_boundary_inclusive(self):
        # choose a separation whose gap takes exactly t_max to cross
        v = 10.0
        gap = PLANNING.t_max_s * v
        assert validate_deployment(80.0, gap + 160.0, v, PLANNING).ok
        report = validate_deployment(80.0, gap + 160.0 + v * 0.5, v, PLANNING)
        assert not report.ok
        assert report.gap_path is None
        assert "exceeds" in report.gap

    def test_slow_path_boundary_inclusive(self):
        # gap too long for t_max but crossing at exactly 2r/t_acq allows
        # a cold acquisition inside the coverage
        r = 80.0
        v = slow_path_speed_bound(r, PLANNING.t_acq_s)
        report = validate_deployment(r, 10_000.0, v, PLANNING)
        assert report.ok
        assert report.gap_path == COLD
        assert not validate_deployment(r, 10_000.0, v * 1.01, PLANNING).ok

    def test_reacquisition_must_fit_crossing(self):
        # fast crossing of a small coverage: blockage fine, dwell too short
        r = 10.0
        report = validate_deployment(r, 2.0 * r + 1.0, 20.0, PLANNING)
        assert not report.ok
        assert not report.crossing_ok
        assert report.gap_path is not None
        assert "exceeds" in report.crossing and "crossing" in report.crossing

    @given(
        st.floats(min_value=20.0, max_value=200.0),
        st.floats(min_value=1.0, max_value=60.0),
    )
    def test_growing_radius_never_breaks_feasibility(self, radius, speed):
        # with separation pinned to 2x the larger radius, enlarging the
        # radius shortens the gap and lengthens the dwell
        bigger = radius * 1.5
        sep = 2.0 * bigger + 50.0
        if validate_deployment(radius, sep, speed, PLANNING).ok:
            assert validate_deployment(bigger, sep, speed, PLANNING).ok

    @given(
        st.floats(min_value=1.0, max_value=500.0),
        st.floats(min_value=2.0, max_value=21_000.0),
        st.floats(min_value=0.1, max_value=80.0),
        st.sampled_from(sorted(PROFILES)),
    )
    # the gap takes exactly t_max to cross
    @example(149.13509104049035, 3690.097253066939, kmh_to_ms(90.44872189295889), "dedicated")
    def test_layout_check_applies_the_same_rule(self, radius, separation, speed, receiver):
        assume(separation >= 2 * radius)
        timing = PROFILES[receiver]
        report = validate_deployment(radius, separation, speed, timing)
        assert report.gap_path == gap_path(speed, radius, blockage_time(separation, radius, speed), timing)
        assert report.crossing_ok == crossing_fits(radius, speed, timing)
        assert report.ok == (report.crossing_ok and report.gap_path is not None)


class TestValidateDeployment:
    def test_good_layout(self):
        report = validate_deployment(80.0, 500.0, V110, PLANNING)
        assert report.ok
        assert report.crossing_ok
        assert report.gap_path == WARM

    def test_bad_gap_flagged_with_suggestion(self):
        # ~4.8 km gap at highway speed: too long for t_max (135 s covers
        # about 4.1 km at 110 km/h), too fast for cold acquisition
        report = validate_deployment(80.0, 5000.0, V110, PLANNING)
        assert not report.ok
        assert report.crossing_ok
        assert report.gap_path is None
        assert report.suggested_max_gap_m == pytest.approx(PLANNING.t_max_s * V110)

    def test_small_radius_flagged(self):
        report = validate_deployment(20.0, 400.0, V110, PLANNING)
        assert not report.ok
        assert not report.crossing_ok
        assert report.gap_path == WARM
        # the radius plan derives as the least that fits the crossing lies above it
        assert min_coverage_radius(V110, PLANNING.t_reacq_s) > 20.0

    def test_overlapping_centers_rejected(self):
        with pytest.raises(OverlappingCoverage):
            validate_deployment(80.0, 100.0, 10.0, PLANNING)

    def test_zero_speed_rejected(self):
        with pytest.raises(ZeroSpeed):
            validate_deployment(80.0, 500.0, 0.0, PLANNING)

    def test_report_serializes(self):
        report = validate_deployment(80.0, 500.0, 10.0, PLANNING)
        payload = _canonical(report)
        assert payload["ok"] is True
        assert payload.keys() == {"ok", "crossing_ok", "crossing", "gap_path", "gap", "suggested_max_gap_m", "note"}
        assert payload["gap_path"] == WARM
