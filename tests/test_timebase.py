import math

import pytest
from hypothesis import given, strategies as st

from gpsimlab.timebase import (
    DEFAULT_BUDGET,
    ClockErrorChain,
    ErrorBudget,
    NS_PER_MS,
    NS_PER_S,
    TimeOffset,
    compose_clock_error,
    within_budget,
)

NS_RANGE = st.integers(min_value=-(10**15), max_value=10**15)


def offsets():
    return NS_RANGE.map(TimeOffset)


class TestTimeOffset:
    def test_constants(self):
        assert NS_PER_S == 1_000_000_000
        assert NS_PER_MS == 1_000_000

    def test_from_seconds_rounds_to_nearest(self):
        assert TimeOffset.from_seconds(1.5e-9).ns == 2
        assert TimeOffset.from_seconds(-1.5e-9).ns == -2
        assert TimeOffset.from_seconds(0.25).ns == 250_000_000

    def test_from_millis(self):
        assert TimeOffset.from_millis(50).ns == 50 * NS_PER_MS
        assert TimeOffset.from_millis(-0.5).ns == -500_000

    @given(NS_RANGE)
    def test_unit_round_trips(self, ns):
        off = TimeOffset(ns)
        assert off.seconds == ns / NS_PER_S
        assert off.millis == ns / NS_PER_MS

    @given(NS_RANGE, NS_RANGE)
    def test_arithmetic_is_exact_int(self, a, b):
        x, y = TimeOffset(a), TimeOffset(b)
        assert (x + y).ns == a + b
        assert (x - y).ns == a - b


class TestComposition:
    @given(offsets(), offsets(), offsets())
    def test_compose_is_exact_sum(self, sim, ntp, ref):
        chain = ClockErrorChain(sim_delay=sim, ntp_error=ntp, ref_error=ref)
        assert compose_clock_error(chain).ns == sim.ns + ntp.ns + ref.ns

    @given(offsets(), offsets(), offsets())
    def test_compose_order_invariant(self, a, b, c):
        left = compose_clock_error(ClockErrorChain(a, b, c))
        right = compose_clock_error(ClockErrorChain(c, a, b))
        assert left == right

    def test_large_parts_cancel_exactly(self):
        chain = ClockErrorChain(
            TimeOffset.from_millis(250),
            TimeOffset.from_millis(-200),
            TimeOffset.from_millis(-50),
        )
        assert compose_clock_error(chain).ns == 0


class TestBudget:
    def test_default_budget_is_50ms(self):
        assert DEFAULT_BUDGET.limit.ns == 50 * NS_PER_MS

    def test_boundary_inclusive_both_signs(self):
        edge = TimeOffset.from_millis(50)
        assert within_budget(edge)
        assert within_budget(TimeOffset(-edge.ns))
        assert not within_budget(TimeOffset(edge.ns + 1))
        assert not within_budget(TimeOffset(-edge.ns - 1))

    @given(offsets())
    def test_symmetric(self, off):
        assert within_budget(off) == within_budget(TimeOffset(-off.ns))

    @given(offsets(), st.integers(min_value=1, max_value=10**12))
    def test_threshold_definition(self, off, limit_ns):
        budget = ErrorBudget(limit=TimeOffset(limit_ns))
        assert within_budget(off, budget) == (abs(off.ns) <= limit_ns)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            ErrorBudget(limit=TimeOffset(0))

    def test_composed_chain_against_budget(self):
        # 30 ms process delay plus 19 ms sync error stays inside; one more
        # millisecond of sync error crosses out, boundary inclusive
        base = ClockErrorChain(
            TimeOffset.from_millis(30), TimeOffset.from_millis(19), TimeOffset(0)
        )
        assert within_budget(compose_clock_error(base))
        worse = ClockErrorChain(
            TimeOffset.from_millis(30), TimeOffset.from_millis(20), TimeOffset(1)
        )
        assert not within_budget(compose_clock_error(worse))

    def test_nan_rejected_by_from_seconds(self):
        with pytest.raises((ValueError, OverflowError)):
            TimeOffset.from_seconds(math.nan)
