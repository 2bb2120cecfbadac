"""Clock offsets as integer nanosecond counts, and the transmit-clock budget.

Every clock offset in the package is a plain ``int`` of nanoseconds,
named ``*_ns``, so sums and comparisons are exact; seconds and
milliseconds enter through ``ns_from_seconds`` and ``ns_from_millis``,
which write the one rounding rule. The error of a simulator's transmit
clock against GPS time is modeled as three additive parts: the
simulation process delay between commanded and radiated state, the NTP
synchronization error of the host, and the error of the reference
receiver the NTP server is disciplined to. A receiver hands over
seamlessly when their sum stays inside the budget (``budget.limit_ms``
of the config), counted symmetrically and inclusive of the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

NS_PER_S = 1_000_000_000
NS_PER_MS = 1_000_000


def ns_from_seconds(seconds: float) -> int:
    """Whole nanoseconds nearest ``seconds``, ties to even; NaN and infinities raise."""
    return round(seconds * NS_PER_S)


def ns_from_millis(millis: float) -> int:
    """Whole nanoseconds nearest ``millis``, ties to even; NaN and infinities raise."""
    return round(millis * NS_PER_MS)


def within_budget(error_ns: int, limit_ns: int) -> bool:
    """True when ``|error_ns|`` does not exceed ``limit_ns``. Boundary counts as inside."""
    return abs(error_ns) <= limit_ns


@dataclass(frozen=True, slots=True)
class TimeOffset:
    """One measured delay sample in nanoseconds; slotted, as delay runs make one per sample."""

    ns: int

    def __post_init__(self) -> None:
        if not isinstance(self.ns, int):
            raise TypeError(f"offset must be an integer nanosecond count, got {type(self.ns).__name__}")
