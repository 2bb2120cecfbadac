import pytest
from hypothesis import given, strategies as st

from gpsimlab.placement import (
    OverlappingCoverage,
    TimingProfile,
    ZeroSpeed,
    blockage_time,
    can_update,
    kmh_to_ms,
    max_separation,
    min_coverage_radius,
    min_radius_for_separation,
    ms_to_kmh,
    reception_time,
    slow_path_speed_bound,
    validate_deployment,
)
from gpsimlab.receiver import PROFILES, planning_timing
from gpsimlab.reports import _canonical

PLANNING = TimingProfile(t_reacq_s=5.0, t_max_s=135.0, t_acq_s=30.0)
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
        with pytest.raises(OverlappingCoverage):
            can_update(V110, 80.0, 100.0, PLANNING)


class TestFeasibility:
    def test_default_corridor_is_feasible(self):
        result = can_update(V110, 80.0, 500.0, PLANNING)
        assert result
        assert "warm" in result.reason

    def test_blockage_boundary_inclusive(self):
        # choose a separation whose gap takes exactly t_max to cross
        v = 10.0
        gap = PLANNING.t_max_s * v
        assert can_update(v, 80.0, gap + 160.0, PLANNING)
        result = can_update(v, 80.0, gap + 160.0 + v * 0.5, PLANNING)
        assert not result
        assert "exceeds" in result.reason

    def test_slow_path_boundary_inclusive(self):
        # gap too long for t_max but crossing at exactly 2r/t_acq allows
        # a cold acquisition inside the coverage
        r = 80.0
        v = slow_path_speed_bound(r, PLANNING.t_acq_s)
        assert can_update(v, r, 10_000.0, PLANNING)
        assert not can_update(v * 1.01, r, 10_000.0, PLANNING)

    def test_reacquisition_must_fit_crossing(self):
        # fast crossing of a small coverage: blockage fine, dwell too short
        r = 10.0
        result = can_update(20.0, r, 2.0 * r + 1.0, PLANNING)
        assert not result
        assert "fit" in result.reason

    @given(
        st.floats(min_value=20.0, max_value=200.0),
        st.floats(min_value=1.0, max_value=60.0),
    )
    def test_growing_radius_never_breaks_feasibility(self, radius, speed):
        # with separation pinned to 2x the larger radius, enlarging the
        # radius shortens the gap and lengthens the dwell
        bigger = radius * 1.5
        sep = 2.0 * bigger + 50.0
        if can_update(speed, radius, sep, PLANNING):
            assert can_update(speed, bigger, sep, PLANNING)

    @given(
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=0, max_value=20_000),
        st.floats(min_value=0.1, max_value=80.0),
        st.sampled_from(sorted(PROFILES)),
    )
    def test_layout_check_applies_the_same_rule(self, radius, spare, speed, receiver):
        # integer meters make the gap lengths of both checks exact
        separation = 2 * radius + spare
        timing = planning_timing(PROFILES[receiver])
        report = validate_deployment([0, separation, 2 * separation], radius, speed, timing)
        assert can_update(speed, radius, separation, timing).ok == report.ok


class TestValidateDeployment:
    def test_good_layout(self):
        report = validate_deployment([450.0, 950.0, 1450.0], 80.0, V110, PLANNING)
        assert report.ok
        assert len(report.coverages) == 3
        assert len(report.gaps) == 2
        assert all(c.ok for c in report.coverages)
        assert all(g.ok for g in report.gaps)

    def test_bad_gap_flagged_with_suggestion(self):
        # ~4.8 km gap at highway speed: too long for t_max (135 s covers
        # about 4.1 km at 110 km/h), too fast for cold acquisition
        report = validate_deployment([0.0, 5000.0], 80.0, V110, PLANNING)
        assert not report.ok
        bad = report.gaps[0]
        assert not bad.ok
        assert report.suggested_max_gap_m == pytest.approx(PLANNING.t_max_s * V110)

    def test_small_radius_flagged(self):
        report = validate_deployment([0.0, 400.0], 20.0, V110, PLANNING)
        assert not report.ok
        assert not report.coverages[0].ok
        assert report.suggested_min_radius_m == pytest.approx(
            min_coverage_radius(V110, PLANNING.t_reacq_s)
        )

    def test_overlapping_centers_rejected(self):
        with pytest.raises(OverlappingCoverage):
            validate_deployment([0.0, 100.0], 80.0, 10.0, PLANNING)

    def test_unsorted_centers_rejected(self):
        with pytest.raises(ValueError):
            validate_deployment([500.0, 0.0], 80.0, 10.0, PLANNING)

    def test_report_serializes(self):
        report = validate_deployment([0.0, 500.0], 80.0, 10.0, PLANNING)
        payload = _canonical(report)
        assert payload["ok"] is True
        assert len(payload["coverages"]) == 2
        assert "suggested_min_radius_m" in payload
