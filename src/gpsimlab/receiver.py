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
only on the arguments. Elapsed times advance in whole DT_S quanta, so a
target t completes after ceil(t / DT_S) steps of signal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .placement import TimingProfile
from .timebase import TimeOffset

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


def reacquisition_time(profile: ReceiverProfile, offset: TimeOffset) -> float:
    """Warm reacquisition time for a signal with the given clock offset."""
    return profile._interp(abs(offset.seconds))


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
    mode: Mode
    blockage_elapsed_s: float = 0.0
    mode_elapsed_s: float = 0.0
    target_s: float = 0.0

    @classmethod
    def cold(cls, profile: ReceiverProfile) -> "ReceiverState":
        return cls(mode=Mode.ACQUISITION, target_s=profile.t_acq_s)

    @classmethod
    def tracking(cls) -> "ReceiverState":
        return cls(mode=Mode.TRACKING)


def step(
    state: ReceiverState,
    profile: ReceiverProfile,
    signal_present: bool,
    clock_offset: TimeOffset,
) -> ReceiverState:
    """Advance the channel by one DT_S quantum.

    ``signal_present`` and ``clock_offset`` describe the signal during
    this quantum. Blockage time resets whenever the signal returns.
    """
    if not signal_present:
        blocked = state.blockage_elapsed_s + DT_S if state.mode is Mode.BLOCKED else DT_S
        return replace(
            state, mode=Mode.BLOCKED, blockage_elapsed_s=blocked, mode_elapsed_s=0.0, target_s=0.0
        )

    if state.mode is Mode.TRACKING:
        return replace(state, mode_elapsed_s=state.mode_elapsed_s + DT_S)

    if state.mode is Mode.BLOCKED:
        if state.blockage_elapsed_s <= profile.t_max_s + _EPS_S:
            mode = Mode.REACQUISITION
            target = reacquisition_time(profile, clock_offset)
        else:
            mode = Mode.ACQUISITION
            target = profile.t_acq_s
        state = replace(
            state, mode=mode, blockage_elapsed_s=0.0, mode_elapsed_s=DT_S, target_s=target
        )
    else:
        state = replace(state, mode_elapsed_s=state.mode_elapsed_s + DT_S)

    if state.mode_elapsed_s >= state.target_s - _EPS_S:
        return replace(state, mode=Mode.TRACKING, mode_elapsed_s=0.0, target_s=0.0)
    return state
