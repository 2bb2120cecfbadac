"""Receiver signal-channel state machine.

A receiver is in one of four modes. TRACKING emits fixes. Losing the
signal moves it to BLOCKED, where time without signal accumulates. When
the signal returns, the receiver reacquires warm if the blockage stayed
within t_max (boundary inclusive), otherwise it falls back to a cold
acquisition. The warm reacquisition time depends on how far the new
signal's clock is from the receiver's expectation: flat at the base time
while the offset stays inside the handover budget, then growing
linearly to a slow time and clamped there.

The reacquisition target is latched once, from the clock offset seen at
the moment the signal returns; later offset changes during the same
reacquisition do not move it. Stepping is pure: the next state depends
only on the arguments. Time advances in whole quanta of
DT_S = 1/STEPS_PER_S s and the state counts them as an integer: a
blockage of k quanta is within t_max when k * DT_S <= t_max + ε, and a
target of t s completes after max(1, ⌈(t − ε)/DT_S⌉) quanta of signal.

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

from .timebase import NS_PER_S

STEPS_PER_S = 10
DT_S = 1 / STEPS_PER_S
FLAT_REGION_S = 0.050
SLOW_OFFSET_S = 0.250
_EPS_S = 1e-9


class Mode(enum.Enum):
    ACQUISITION = "ACQUISITION"
    TRACKING = "TRACKING"
    REACQUISITION = "REACQUISITION"
    BLOCKED = "BLOCKED"


@dataclass(frozen=True)
class ReceiverProfile:
    """Timing of one receiver class, for stepping and for planning.

    Warm reacquisition takes ``t_reacq_base_s`` while the clock offset
    stays within FLAT_REGION_S, rises linearly to ``t_reacq_slow_s`` at
    SLOW_OFFSET_S and stays there. ``t_reacq_s`` bounds it for planning,
    above the map's worst value to leave margin for lock-in effects the
    map does not model. ``t_max_s`` is the longest blockage after which
    warm reacquisition still works, ``t_acq_s`` a cold acquisition.
    """

    name: str
    t_reacq_base_s: float
    t_reacq_slow_s: float
    t_reacq_s: float
    t_max_s: float
    t_acq_s: float

    def __post_init__(self) -> None:
        if not 0 < self.t_reacq_base_s <= self.t_reacq_slow_s <= self.t_reacq_s <= self.t_acq_s:
            raise ValueError(
                "need 0 < t_reacq_base_s <= t_reacq_slow_s <= t_reacq_s <= t_acq_s, got "
                f"{self.t_reacq_base_s}, {self.t_reacq_slow_s}, {self.t_reacq_s}, {self.t_acq_s}"
            )
        if not self.t_max_s > 0:
            raise ValueError(f"t_max_s must be positive, got {self.t_max_s}")


def reacquisition_time(profile: ReceiverProfile, offset_ns: int) -> float:
    """Warm reacquisition time for a signal with the given clock offset."""
    base, slow = profile.t_reacq_base_s, profile.t_reacq_slow_s
    return float(np.interp(abs(offset_ns) / NS_PER_S, (0.0, FLAT_REGION_S, SLOW_OFFSET_S), (base, base, slow)))


DEDICATED = ReceiverProfile(
    "dedicated", t_reacq_base_s=0.4, t_reacq_slow_s=2.0, t_reacq_s=5.0, t_max_s=135.0, t_acq_s=30.0
)
SMARTPHONE = ReceiverProfile(
    "smartphone", t_reacq_base_s=4.0, t_reacq_slow_s=12.0, t_reacq_s=15.0, t_max_s=135.0, t_acq_s=30.0
)

PROFILES = {p.name: p for p in (DEDICATED, SMARTPHONE)}


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
