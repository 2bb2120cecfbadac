import math

import pytest
from hypothesis import given, strategies as st

from gpsimlab.config import DEFAULTS
from gpsimlab.scenarios import ClockDraw
from gpsimlab.timebase import NS_PER_MS, NS_PER_S, TimeOffset, ns_from_millis, ns_from_seconds, within_budget

NS_RANGE = st.integers(min_value=-(10**15), max_value=10**15)
LIMIT_NS = 50 * NS_PER_MS


def draw(sim_ns, ntp_ns, ref_ns):
    return ClockDraw(sim_ns, ntp_ns, ref_ns, ntp_bound_s=0.0, within_budget=True)


class TestTimeOffset:
    def test_constants(self):
        assert NS_PER_S == 1_000_000_000
        assert NS_PER_MS == 1_000_000

    def test_from_seconds_rounds_to_nearest(self):
        assert ns_from_seconds(1.5e-9) == 2
        assert ns_from_seconds(-1.5e-9) == -2
        assert ns_from_seconds(0.25) == 250_000_000
        assert type(ns_from_seconds(0.1)) is int

    def test_from_millis(self):
        assert ns_from_millis(50) == 50 * NS_PER_MS
        assert ns_from_millis(-0.5) == -500_000
        assert type(ns_from_millis(0.1)) is int

    @given(NS_RANGE)
    def test_unit_round_trips(self, ns):
        assert ns_from_seconds(ns / NS_PER_S) == ns
        assert ns_from_millis(ns / NS_PER_MS) == ns

    @given(st.integers(min_value=-(10**9), max_value=10**9))
    def test_ties_round_half_to_even(self, k):
        # (2k+1)/1024 s and (2k+1)/128 ms are exact binary fractions whose
        # nanosecond counts, (2k+1)·5^9/2 and (2k+1)·5^6/2, are exact ties
        for ns, twice in (
            (ns_from_seconds((2 * k + 1) / 1024), (2 * k + 1) * 5**9),
            (ns_from_millis((2 * k + 1) / 128), (2 * k + 1) * 5**6),
        ):
            low = (twice - 1) // 2
            assert ns == (low if low % 2 == 0 else low + 1)

    def test_holds_only_integer_ns(self):
        assert TimeOffset(-7).ns == -7
        with pytest.raises(TypeError):
            TimeOffset(1.0)


class TestComposition:
    @given(NS_RANGE, NS_RANGE, NS_RANGE)
    def test_compose_is_exact_sum(self, sim, ntp, ref):
        composed = draw(sim, ntp, ref).error_ns
        assert type(composed) is int
        assert composed == sim + ntp + ref

    @given(NS_RANGE, NS_RANGE, NS_RANGE)
    def test_compose_order_invariant(self, a, b, c):
        assert draw(a, b, c).error_ns == draw(c, a, b).error_ns

    def test_large_parts_cancel_exactly(self):
        assert draw(ns_from_millis(250), ns_from_millis(-200), ns_from_millis(-50)).error_ns == 0


class TestBudget:
    def test_default_budget_is_50ms(self):
        assert ns_from_millis(DEFAULTS.budget.limit_ms) == 50 * NS_PER_MS

    def test_boundary_inclusive_both_signs(self):
        edge = ns_from_millis(50)
        assert within_budget(edge, LIMIT_NS)
        assert within_budget(-edge, LIMIT_NS)
        assert not within_budget(edge + 1, LIMIT_NS)
        assert not within_budget(-edge - 1, LIMIT_NS)

    @given(NS_RANGE, st.integers(min_value=1, max_value=10**12))
    def test_symmetric(self, error_ns, limit_ns):
        assert within_budget(error_ns, limit_ns) == within_budget(-error_ns, limit_ns)

    @given(NS_RANGE, st.integers(min_value=1, max_value=10**12))
    def test_threshold_definition(self, error_ns, limit_ns):
        assert within_budget(error_ns, limit_ns) == (abs(error_ns) <= limit_ns)

    @given(st.integers(min_value=1, max_value=10**12), st.sampled_from((-1, 1)))
    def test_boundary_inclusive_for_every_limit(self, limit_ns, sign):
        assert within_budget(sign * limit_ns, limit_ns)
        assert not within_budget(sign * (limit_ns + 1), limit_ns)

    def test_composed_chain_against_budget(self):
        # 30 ms process delay plus 19 ms sync error stays inside; one more
        # millisecond of sync error crosses out, boundary inclusive
        inside = draw(ns_from_millis(30), ns_from_millis(19), 0)
        assert within_budget(inside.error_ns, LIMIT_NS)
        outside = draw(ns_from_millis(30), ns_from_millis(20), 1)
        assert not within_budget(outside.error_ns, LIMIT_NS)

    def test_nan_rejected_by_from_seconds(self):
        for convert in (ns_from_seconds, ns_from_millis):
            with pytest.raises(ValueError):
                convert(math.nan)
            with pytest.raises(OverflowError):
                convert(math.inf)
