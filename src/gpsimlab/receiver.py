"""Receiver signal-channel state machine.

A receiver is in one of four modes. TRACKING emits fixes. Losing the
signal moves it to BLOCKED, where time without signal accumulates. When
the signal returns, the receiver reacquires warm if the blockage stayed
within t_max (boundary inclusive), otherwise it falls back to a cold
acquisition. The warm reacquisition time depends on how far the new
signal's clock is from the receiver's expectation: flat at the base time
while the offset stays inside the handover budget, then growing
piecewise-linearly, clamped at the last knot.

The reacquisition target is latched once, from the clock offset seen at
the moment the signal returns; later offset changes during the same
reacquisition do not move it. Stepping is pure: the next state depends
only on the arguments. Time advances in whole DT_S quanta and the state
counts them as an integer: a blockage of k quanta is within t_max when
k * DT_S <= t_max + ε, and a target of t s completes after
max(1, ⌈(t − ε)/DT_S⌉) quanta of signal.

``advance`` moves through a stretch of unchanged signal at once: it
steps the first quantum, where every decision of the state machine is
made, and jumps the rest, where the count only grows until a latched
target completes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .placement import TimingProfile
from .timebase import NS_PER_S

DT_S = 0.1
FLAT_REGION_S = 0.050
_EPS_S = 1e-9


class Mode(enum.Enum):
    ACQUISITION = "ACQUISITION"
    TRACKING = "TRACKING"
    REACQUISITION = "REACQUISITION"
    BLOCKED = "BLOCKED"


@dataclass(frozen=True)
class ReceiverProfile:
    """Timing behavior of one receiver class.

    ``reacq_knots`` maps absolute clock offset (seconds) to warm
    reacquisition time (seconds) with linear interpolation between knots
    and clamping past the last one.
    """

    name: str
    t_reacq_base_s: float
    t_max_s: float
    t_acq_s: float
    reacq_knots: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.t_max_s <= 0:
            raise ValueError(f"t_max_s must be positive, got {self.t_max_s}")
        if self.t_reacq_base_s <= 0 or self.t_acq_s <= 0:
            raise ValueError("reacquisition and acquisition times must be positive")
        if self.t_reacq_base_s > self.t_acq_s:
            raise ValueError(
                f"t_reacq_base_s ({self.t_reacq_base_s}) must not exceed t_acq_s ({self.t_acq_s})"
            )
        knots = self.reacq_knots
        if not knots or knots[0][0] != 0.0:
            raise ValueError("reacq_knots must start at offset 0")
        if knots[0][1] != self.t_reacq_base_s:
            raise ValueError(
                f"reacq_knots at offset 0 must equal t_reacq_base_s ({self.t_reacq_base_s})"
            )
        offsets = [k[0] for k in knots]
        values = [k[1] for k in knots]
        if offsets != sorted(set(offsets)):
            raise ValueError("knot offsets must be strictly ascending")
        if any(b < a for a, b in zip(values, values[1:])):
            raise ValueError("reacquisition time must be non-decreasing in offset")
        if self._interp(FLAT_REGION_S) != self.t_reacq_base_s:
            raise ValueError(
                f"reacquisition must stay at the base time through {FLAT_REGION_S} s"
            )

    def _interp(self, abs_offset_s: float) -> float:
        xs = [k[0] for k in self.reacq_knots]
        ys = [k[1] for k in self.reacq_knots]
        return float(np.interp(abs_offset_s, xs, ys))


def reacquisition_time(profile: ReceiverProfile, offset_ns: int) -> float:
    """Warm reacquisition time for a signal with the given clock offset."""
    return profile._interp(abs(offset_ns) / NS_PER_S)


DEDICATED = ReceiverProfile(
    name="dedicated",
    t_reacq_base_s=0.4,
    t_max_s=135.0,
    t_acq_s=30.0,
    reacq_knots=((0.0, 0.4), (FLAT_REGION_S, 0.4), (0.25, 2.0)),
)

SMARTPHONE = ReceiverProfile(
    name="smartphone",
    t_reacq_base_s=4.0,
    t_max_s=135.0,
    t_acq_s=30.0,
    reacq_knots=((0.0, 4.0), (FLAT_REGION_S, 4.0), (0.25, 12.0)),
)

PROFILES = {p.name: p for p in (DEDICATED, SMARTPHONE)}

# Conservative per-profile reacquisition bounds for deployment planning.
# Planning should not assume the base-time fast path; these sit above the
# worst value of the reacquisition map to leave margin for lock-in
# effects the map does not model.
PLANNING_REACQ_BOUND_S = {"dedicated": 5.0, "smartphone": 15.0}


def planning_timing(profile: ReceiverProfile) -> TimingProfile:
    """Planning margins for a profile: bounded reacquisition, t_max, t_acq."""
    return TimingProfile(
        t_reacq_s=PLANNING_REACQ_BOUND_S[profile.name],
        t_max_s=profile.t_max_s,
        t_acq_s=profile.t_acq_s,
    )


@dataclass(frozen=True)
class ReceiverState:
    """A mode and its count of DT_S quanta.

    BLOCKED counts quanta without signal. ACQUISITION and REACQUISITION
    count quanta of signal towards ``target``, latched in quanta when the
    signal returns. TRACKING carries neither.
    """

    mode: Mode
    quanta: int = 0
    target: int = 0

    @classmethod
    def cold(cls, profile: ReceiverProfile) -> "ReceiverState":
        return cls(Mode.ACQUISITION, target=_target_quanta(profile.t_acq_s))

    @classmethod
    def tracking(cls) -> "ReceiverState":
        return cls(Mode.TRACKING)


def _target_quanta(target_s: float) -> int:
    """Quanta of signal a target of ``target_s`` takes to complete."""
    return max(1, math.ceil((target_s - _EPS_S) / DT_S))


def step(
    state: ReceiverState,
    profile: ReceiverProfile,
    signal_present: bool,
    clock_offset_ns: int,
) -> ReceiverState:
    """Advance the channel by one DT_S quantum.

    ``signal_present`` and ``clock_offset_ns`` describe the signal during
    this quantum. Blockage time resets whenever the signal returns.
    """
    # states are built field by field: dataclasses.replace costs several
    # times the constructor
    if not signal_present:
        return ReceiverState(Mode.BLOCKED, state.quanta + 1 if state.mode is Mode.BLOCKED else 1)

    if state.mode is Mode.TRACKING:
        return state

    if state.mode is Mode.BLOCKED:
        if state.quanta * DT_S <= profile.t_max_s + _EPS_S:
            state = ReceiverState(
                Mode.REACQUISITION, target=_target_quanta(reacquisition_time(profile, clock_offset_ns))
            )
        else:
            state = ReceiverState(Mode.ACQUISITION, target=_target_quanta(profile.t_acq_s))

    if state.quanta + 1 >= state.target:
        return ReceiverState.tracking()
    return ReceiverState(state.mode, state.quanta + 1, state.target)


def advance(
    state: ReceiverState,
    profile: ReceiverProfile,
    signal_present: bool,
    clock_offset_ns: int,
    steps: int,
) -> tuple[ReceiverState, list[tuple[int, Mode]]]:
    """Advance the channel by ``steps`` >= 1 quanta of the same signal.

    Returns the state ``steps`` calls of ``step`` return, and the mode
    runs of the stretch: each run's first quantum and its mode, at most
    two runs, the second one TRACKING.
    """
    # the first quantum decides the mode and latches the target; the
    # others accumulate blockage, keep tracking or count towards the target
    state = step(state, profile, signal_present, clock_offset_ns)
    runs = [(0, state.mode)]
    rest = steps - 1
    if state.mode is Mode.BLOCKED:
        return ReceiverState(Mode.BLOCKED, state.quanta + rest), runs
    if state.mode is Mode.TRACKING:
        return state, runs
    # the first quantum did not complete, so done >= 1
    done = state.target - state.quanta
    if done > rest:
        return ReceiverState(state.mode, state.quanta + rest, state.target), runs
    runs.append((done, Mode.TRACKING))
    return ReceiverState.tracking(), runs
