import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gpsimlab.receiver import (
    _EPS_S,
    DEDICATED,
    DT_S,
    FLAT_REGION_S,
    Mode,
    PROFILES,
    ReceiverProfile,
    ReceiverState,
    SLOW_OFFSET_S,
    SMARTPHONE,
    advance,
    reacquisition_time,
    step,
)
from gpsimlab.timebase import NS_PER_S, ns_from_millis, ns_from_seconds

DT = DT_S


def run_steps(state, profile, n, signal, offset_ns=0):
    for _ in range(n):
        state = step(state, profile, signal, offset_ns)
    return state


def stepped_runs(state, profile, n, signal, offset_ns):
    """``n`` calls of ``step``: the final state and each mode's first quantum."""
    runs = []
    for i in range(n):
        state = step(state, profile, signal, offset_ns)
        if not runs or runs[-1][1] is not state.mode:
            runs.append((i, state.mode))
    return state, runs


def running_sum_quanta(target_s):
    """Quanta of signal a target took under the float rule: the first running sum of DT_S >= target - ε."""
    running, quanta = DT, 1
    while running < target_s - _EPS_S:
        running += DT
        quanta += 1
    return quanta


def fields(state):
    return [(type(v), v) for v in dataclasses.astuple(state)]


# warm reacquisition at 150 ms: the latched target is 1.2 s, 12 quanta of signal
OFFSET_150 = ns_from_millis(150)
BLOCKED_1S = ReceiverState(Mode.BLOCKED, quanta=10)
# 3 of the 4 quanta of a base-time reacquisition done
REACQ_ONE_SHORT = run_steps(BLOCKED_1S, DEDICATED, 3, signal=True)


class TestReacquisitionMap:
    @given(st.floats(min_value=-FLAT_REGION_S, max_value=FLAT_REGION_S))
    def test_flat_inside_handover_budget(self, offset_s):
        off = ns_from_seconds(offset_s)
        assert reacquisition_time(DEDICATED, off) == DEDICATED.t_reacq_base_s
        assert reacquisition_time(SMARTPHONE, off) == SMARTPHONE.t_reacq_base_s

    @given(st.floats(min_value=0.0, max_value=0.5))
    def test_symmetric_in_sign(self, offset_s):
        pos = ns_from_seconds(offset_s)
        assert reacquisition_time(DEDICATED, pos) == reacquisition_time(DEDICATED, -pos)

    @given(st.floats(min_value=0.0, max_value=0.4), st.floats(min_value=0.0, max_value=0.1))
    def test_monotone_in_magnitude(self, base_s, extra_s):
        a = ns_from_seconds(base_s)
        b = ns_from_seconds(base_s + extra_s)
        assert reacquisition_time(DEDICATED, a) <= reacquisition_time(DEDICATED, b)

    def test_clamps_past_last_knot(self):
        for factor in (1.0, 2.0, 10.0):
            off = ns_from_seconds(SLOW_OFFSET_S * factor)
            assert reacquisition_time(DEDICATED, off) == DEDICATED.t_reacq_slow_s

    def test_interpolates_between_knots(self):
        # dedicated map: 0.4 s at 50 ms rising to 2.0 s at 250 ms
        mid = ns_from_millis(150)
        assert reacquisition_time(DEDICATED, mid) == pytest.approx(1.2)

    @given(st.sampled_from(sorted(PROFILES)), st.integers(min_value=-NS_PER_S, max_value=NS_PER_S))
    @example("dedicated", ns_from_seconds(FLAT_REGION_S))
    @example("smartphone", -ns_from_seconds(SLOW_OFFSET_S))
    def test_equals_the_former_knot_tables(self, name, offset_ns):
        # the (offset s, time s) knots each profile carried before the map had fixed offsets
        knots = {
            "dedicated": ((0.0, 0.4), (0.05, 0.4), (0.25, 2.0)),
            "smartphone": ((0.0, 4.0), (0.05, 4.0), (0.25, 12.0)),
        }[name]
        xs, ys = [k[0] for k in knots], [k[1] for k in knots]
        expected = float(np.interp(abs(offset_ns) / NS_PER_S, xs, ys))
        assert reacquisition_time(PROFILES[name], offset_ns).hex() == expected.hex()


def profile(base=1.0, slow=2.0, bound=5.0, t_max=10.0, t_acq=5.0):
    return ReceiverProfile("x", base, slow, bound, t_max, t_acq)


class TestProfileValidation:
    def test_values_must_be_monotone(self):
        # the map may not fall from the base time to the slow one
        profile(base=1.0, slow=1.0)
        with pytest.raises(ValueError):
            profile(base=1.0, slow=0.5)

    def test_reacq_cannot_exceed_acq(self):
        profile(base=5.0, slow=5.0, bound=5.0, t_acq=5.0)
        with pytest.raises(ValueError):
            profile(base=6.0, slow=6.0, bound=6.0, t_acq=5.0)
        with pytest.raises(ValueError):
            profile(bound=6.0, t_acq=5.0)

    @pytest.mark.parametrize("field", ["base", "t_max"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_times_must_be_positive(self, field, value):
        with pytest.raises(ValueError):
            profile(**{field: value})

    def test_registry(self):
        assert set(PROFILES) == {"dedicated", "smartphone"}

    def test_planning_bound_dominates_the_map(self):
        for p in PROFILES.values():
            worst = max(reacquisition_time(p, ns_from_seconds(x)) for x in (0.0, FLAT_REGION_S, SLOW_OFFSET_S, 1.0))
            assert worst == p.t_reacq_slow_s <= p.t_reacq_s
        with pytest.raises(ValueError):
            profile(slow=3.0, bound=2.5)


class TestStateMachine:
    def test_blockage_accumulates_without_signal(self):
        state = run_steps(ReceiverState.tracking(), DEDICATED, 25, signal=False)
        assert state.mode is Mode.BLOCKED
        assert state.quanta == 25

    def test_warm_reacquisition_after_short_blockage(self):
        state = run_steps(ReceiverState.tracking(), DEDICATED, 10, signal=False)
        state = step(state, DEDICATED, True, 0)
        assert state.mode is Mode.REACQUISITION
        assert state.target == 4  # t_reacq_base_s, 0.4 s

    def test_cold_acquisition_after_long_blockage(self):
        steps_past = int(DEDICATED.t_max_s / DT) + 2
        state = run_steps(ReceiverState.tracking(), DEDICATED, steps_past, signal=False)
        state = step(state, DEDICATED, True, 0)
        assert state.mode is Mode.ACQUISITION
        assert state.target == 300  # t_acq_s, 30 s

    def test_boundary_blockage_is_warm(self):
        # exactly t_max of blockage still reacquires warm
        steps_exact = round(DEDICATED.t_max_s / DT)
        state = run_steps(ReceiverState.tracking(), DEDICATED, steps_exact, signal=False)
        assert state.quanta == 1350
        state = step(state, DEDICATED, True, 0)
        assert state.mode is Mode.REACQUISITION

    def test_completion_takes_ceil_target_over_dt_steps(self):
        offset = ns_from_millis(150)  # target 1.2 s -> 12 steps
        target = reacquisition_time(DEDICATED, offset)
        state = run_steps(ReceiverState.tracking(), DEDICATED, 10, signal=False)
        state = step(state, DEDICATED, True, offset)
        needed = math.ceil(target / DT)
        state = run_steps(state, DEDICATED, needed - 2, signal=True, offset_ns=offset)
        assert state.mode is Mode.REACQUISITION
        state = step(state, DEDICATED, True, offset)
        assert state.mode is Mode.TRACKING

    def test_target_latched_at_signal_return(self):
        # a big offset at restoration fixes the target; an offset change
        # mid-reacquisition must not move it
        big = ns_from_millis(250)
        state = run_steps(ReceiverState.tracking(), DEDICATED, 10, signal=False)
        state = step(state, DEDICATED, True, big)
        assert state.target == 20  # 2.0 s
        state = run_steps(state, DEDICATED, 5, signal=True, offset_ns=0)
        assert state.target == 20
        assert state.mode is Mode.REACQUISITION

    def test_signal_loss_mid_reacquisition_restarts_blockage(self):
        state = run_steps(ReceiverState.tracking(), DEDICATED, 10, signal=False)
        state = step(state, DEDICATED, True, 0)
        state = step(state, DEDICATED, False, 0)
        assert state.mode is Mode.BLOCKED
        assert state.quanta == 1

    def test_cold_start_acquires(self):
        state = ReceiverState.cold(DEDICATED)
        assert state.mode is Mode.ACQUISITION
        steps_needed = math.ceil(DEDICATED.t_acq_s / DT)
        state = run_steps(state, DEDICATED, steps_needed - 1, signal=True)
        assert state.mode is Mode.ACQUISITION
        state = step(state, DEDICATED, True, 0)
        assert state.mode is Mode.TRACKING

    def test_tracking_stays_tracking_with_signal(self):
        state = run_steps(ReceiverState.tracking(), DEDICATED, 50, signal=True)
        assert state.mode is Mode.TRACKING

    def test_smartphone_base_reacquisition(self):
        state = run_steps(ReceiverState.tracking(), SMARTPHONE, 10, signal=False)
        state = step(state, SMARTPHONE, True, ns_from_millis(10))
        needed = math.ceil(SMARTPHONE.t_reacq_base_s / DT)
        state = run_steps(state, SMARTPHONE, needed - 1, signal=True, offset_ns=ns_from_millis(10))
        assert state.mode is Mode.TRACKING

    ADVANCE_CASES = [
        (ReceiverState.tracking(), True, 0, 1),
        (ReceiverState.tracking(), False, 0, 1),
        (BLOCKED_1S, True, OFFSET_150, 1),
        (BLOCKED_1S, False, OFFSET_150, 1350),
        (ReceiverState.tracking(), True, 0, 500),
        (REACQ_ONE_SHORT, True, OFFSET_150, 7),  # completes on the first quantum
        (BLOCKED_1S, True, OFFSET_150, 12),  # completes on the last quantum
        (BLOCKED_1S, True, OFFSET_150, 11),  # one quantum short of completing
        (ReceiverState.cold(DEDICATED), True, 0, 250),
        (ReceiverState.cold(DEDICATED), True, 0, 2000),
    ]

    @pytest.mark.parametrize(
        "state, signal, offset, n",
        ADVANCE_CASES,
        # each case is named by its position, as when the offsets were objects
        ids=[f"state{i}-{signal}-offset{i}-{n}" for i, (_, signal, _, n) in enumerate(ADVANCE_CASES)],
    )
    def test_advance_equals_stepping_every_quantum(self, state, signal, offset, n):
        jumped, runs = advance(state, DEDICATED, signal, offset, n)
        stepped, stepped_modes = stepped_runs(state, DEDICATED, n, signal, offset)
        assert fields(jumped) == fields(stepped)
        assert runs == stepped_modes

    def test_advance_runs_mark_where_reacquisition_completes(self):
        assert REACQ_ONE_SHORT.mode is Mode.REACQUISITION
        assert advance(REACQ_ONE_SHORT, DEDICATED, True, OFFSET_150, 7)[1] == [(0, Mode.TRACKING)]
        last = advance(BLOCKED_1S, DEDICATED, True, OFFSET_150, 12)[1]
        assert last == [(0, Mode.REACQUISITION), (11, Mode.TRACKING)]
        assert advance(BLOCKED_1S, DEDICATED, True, OFFSET_150, 11)[1] == [(0, Mode.REACQUISITION)]


class TestQuantaCount:
    """The integer count against the float running sums it replaced."""

    @given(st.integers(0, 300_000_000), st.sampled_from([DEDICATED, SMARTPHONE]))
    # the ends of the flat region and of the reacquisition map, and a target
    # of 8.600000000000001 s, which ε keeps at 86 quanta
    @example(50_000_000, DEDICATED)
    @example(250_000_000, SMARTPHONE)
    @example(165_000_000, SMARTPHONE)
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_latched_target_matches_the_running_sum(self, offset_ns, profile):
        state = step(BLOCKED_1S, profile, True, offset_ns)
        assert state.target == running_sum_quanta(reacquisition_time(profile, offset_ns))

    @pytest.mark.parametrize("profile", [DEDICATED, SMARTPHONE], ids=lambda p: p.name)
    def test_cold_target_matches_the_running_sum(self, profile):
        assert ReceiverState.cold(profile).target == running_sum_quanta(profile.t_acq_s)

    @pytest.mark.parametrize("profile", [DEDICATED, SMARTPHONE], ids=lambda p: p.name)
    def test_blockage_of_1350_quanta_is_warm_and_1351_cold(self, profile):
        warm = step(ReceiverState(Mode.BLOCKED, 1350), profile, True, 0)
        cold = step(ReceiverState(Mode.BLOCKED, 1351), profile, True, 0)
        assert (warm.mode, cold.mode) == (Mode.REACQUISITION, Mode.ACQUISITION)

    @pytest.mark.parametrize("profile", [DEDICATED, SMARTPHONE], ids=lambda p: p.name)
    def test_warm_rule_matches_the_running_sum(self, profile):
        # the float rule compared the k-th running sum of DT_S with t_max + ε
        running = 0.0
        for quanta in range(1, 2001):
            running += DT
            resumed = step(ReceiverState(Mode.BLOCKED, quanta), profile, True, 0)
            assert (resumed.mode is Mode.REACQUISITION) == (running <= profile.t_max_s + _EPS_S)
