"""Clock offsets and the transmit-clock error budget.

Offsets are stored as integer nanosecond counts, so sums and comparisons
are exact. The error of a simulator's transmit clock against GPS time is
modeled as three additive parts: the simulation process delay between
commanded and radiated state, the NTP synchronization error of the host,
and the error of the reference receiver the NTP server is disciplined to.
A receiver hands over seamlessly when the composed error stays inside the
budget (``budget.limit_ms`` of the config defaults), counted
symmetrically and inclusive of the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import DEFAULTS

NS_PER_S = 1_000_000_000
NS_PER_MS = 1_000_000


@dataclass(frozen=True, slots=True)
class TimeOffset:
    """Signed clock offset with nanosecond resolution; slotted, as delay runs make one per sample."""

    ns: int

    def __post_init__(self) -> None:
        if not isinstance(self.ns, int):
            raise TypeError(f"offset must be an integer nanosecond count, got {type(self.ns).__name__}")

    @classmethod
    def from_seconds(cls, seconds: float) -> "TimeOffset":
        return cls(round(seconds * NS_PER_S))

    @classmethod
    def from_millis(cls, millis: float) -> "TimeOffset":
        return cls(round(millis * NS_PER_MS))

    @classmethod
    def zero(cls) -> "TimeOffset":
        return cls(0)

    @property
    def seconds(self) -> float:
        return self.ns / NS_PER_S

    @property
    def millis(self) -> float:
        return self.ns / NS_PER_MS

    def __add__(self, other: "TimeOffset") -> "TimeOffset":
        return TimeOffset(self.ns + other.ns)

    def __sub__(self, other: "TimeOffset") -> "TimeOffset":
        return TimeOffset(self.ns - other.ns)


@dataclass(frozen=True)
class ClockErrorChain:
    """The three additive contributions to a simulator's clock error."""

    sim_delay: TimeOffset
    ntp_error: TimeOffset
    ref_error: TimeOffset


@dataclass(frozen=True)
class ErrorBudget:
    """Symmetric bound on the composed clock error."""

    limit: TimeOffset

    def __post_init__(self) -> None:
        if self.limit.ns <= 0:
            raise ValueError(f"budget limit must be positive, got {self.limit.ns} ns")


DEFAULT_BUDGET = ErrorBudget(TimeOffset.from_millis(DEFAULTS.budget.limit_ms))


def compose_clock_error(chain: ClockErrorChain) -> TimeOffset:
    """Total transmit-clock error, the exact sum of the three parts."""
    return chain.sim_delay + chain.ntp_error + chain.ref_error


def within_budget(error: TimeOffset, budget: ErrorBudget = DEFAULT_BUDGET) -> bool:
    """True when ``|error|`` does not exceed the limit. Boundary counts as inside."""
    return abs(error.ns) <= budget.limit.ns
