"""Network time synchronization error modeling.

Clock offsets are stored as clock-minus-true-time. An exchange returns
the classic four-timestamp estimate

    offset = ((T2 - T1) + (T3 - T4)) / 2
    delay  = (T4 - T1) - (T3 - T2)

which is the correction the client should add to its clock to align with
the server. Its error against the ideal correction (minus the client's
own offset) is the server's offset plus half the sampled up/down delay
asymmetry. Symmetric paths to a true server are therefore exact, and no
amount of averaging removes a persistent asymmetry.

Every estimate carries a root dispersion: the server's advertised error
bound plus half the round trip of this exchange. Simulated servers
advertise their actual absolute offset, which real servers cannot do, but
it keeps the client-side bound honest by construction: the disciplined
clock's estimated maximum error, floor + unapplied correction + root
dispersion + dispersion of recent estimates, provably dominates the true
offset at every report instant. Public pools are modeled as a short
chain of hops whose servers wander between polls; private servers sit
next to the reference and do not wander. Strata are not modeled: with a
fixed topology there is no loop to avoid and no server to select.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULTS
from .rng import stream
from .timebase import TimeOffset

POLL_INTERVAL_S = 16.0
GAIN = 0.5
SLEW_LIMIT_S = 0.25
ERROR_FLOOR_S = 50e-6
INITIAL_OFFSET = TimeOffset.from_millis(10.0)
WARMUP_POLLS = 8
HOP_SYNC_EVERY = 4


@dataclass(frozen=True)
class LinkModel:
    """One network path: fixed one-way delays, optional bias and jitter.

    ``asymmetry_bias_s`` is added wholly to the uplink, so it equals the
    mean up-minus-down difference it introduces. Jitter is log-normal
    with the given median and log-space sigma, the same law in both
    directions but drawn independently, uplink first; a zero median
    disables it. Sampled delays never go negative.
    """

    base_delay_up_s: float
    base_delay_down_s: float
    asymmetry_bias_s: float = 0.0
    jitter_median_s: float = 0.0
    jitter_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.base_delay_up_s < 0 or self.base_delay_down_s < 0:
            raise ValueError("base one-way delays must be non-negative")
        for name in ("jitter_median_s", "jitter_sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def sample_delays(self, rng: np.random.Generator) -> tuple[float, float]:
        """Draw (up, down) one-way delays in seconds."""
        up = self.base_delay_up_s + self.asymmetry_bias_s
        down = self.base_delay_down_s
        if self.jitter_median_s > 0:
            up += self.jitter_median_s * np.exp(self.jitter_sigma * rng.standard_normal())
            down += self.jitter_median_s * np.exp(self.jitter_sigma * rng.standard_normal())
        return max(up, 0.0), max(down, 0.0)

    def mean_one_way(self) -> tuple[float, float]:
        """Expected (up, down) delays; log-normal mean is median*exp(sigma^2/2)."""
        jitter = self.jitter_median_s * np.exp(self.jitter_sigma**2 / 2.0)
        return self.base_delay_up_s + self.asymmetry_bias_s + jitter, self.base_delay_down_s + jitter


@dataclass(frozen=True)
class OffsetEstimate:
    """Result of one exchange."""

    offset: TimeOffset
    round_trip_s: float
    root_dispersion_s: float


def ntp_exchange(
    client_offset: TimeOffset,
    server_offset: TimeOffset,
    link: LinkModel,
    rng: np.random.Generator,
) -> OffsetEstimate:
    """One four-timestamp exchange over ``link`` between two clocks' true offsets.

    The server responds instantly and advertises its actual absolute
    offset as its dispersion (see the module docstring).
    """
    up_s, down_s = link.sample_delays(rng)
    up = TimeOffset.from_seconds(up_s)
    down = TimeOffset.from_seconds(down_s)

    t1 = client_offset
    t2 = up + server_offset
    t3 = t2
    t4 = up + down + client_offset
    offset = ((t2 - t1) + (t3 - t4)).scaled(0.5)
    round_trip = ((t4 - t1) - (t3 - t2)).seconds
    return OffsetEstimate(
        offset=offset,
        round_trip_s=round_trip,
        root_dispersion_s=abs(server_offset.seconds) + round_trip / 2.0,
    )


@dataclass(frozen=True)
class DisciplinedClock:
    """Client clock state under periodic correction."""

    offset_truth: TimeOffset
    estimated_max_error_s: float
    last_estimate_offset: TimeOffset | None = None
    dispersion_s: float = 0.0

    @classmethod
    def start(cls, initial_offset: TimeOffset) -> "DisciplinedClock":
        return cls(
            offset_truth=initial_offset,
            estimated_max_error_s=abs(initial_offset.seconds) + ERROR_FLOOR_S,
        )


def discipline_step(clock: DisciplinedClock, estimate: OffsetEstimate) -> DisciplinedClock:
    """Apply one estimate to the clock.

    The clock slews toward the estimate by GAIN, clipped to the slew
    limit. The estimated maximum error is rebuilt from the unapplied
    remainder, the estimate's root dispersion, and the tracked spread of
    successive estimates, so it stays above the true offset.
    """
    correction = estimate.offset.scaled(GAIN)
    limit = TimeOffset.from_seconds(SLEW_LIMIT_S)
    if correction.ns > limit.ns:
        correction = limit
    elif correction.ns < -limit.ns:
        correction = -limit
    residual_s = abs((estimate.offset - correction).seconds)

    if clock.last_estimate_offset is not None:
        jump_s = abs((estimate.offset - clock.last_estimate_offset).seconds)
        dispersion_s = 0.5 * clock.dispersion_s + 0.5 * jump_s
    else:
        dispersion_s = 0.0

    return replace(
        clock,
        offset_truth=clock.offset_truth + correction,
        estimated_max_error_s=ERROR_FLOOR_S + residual_s + estimate.root_dispersion_s + dispersion_s,
        last_estimate_offset=estimate.offset,
        dispersion_s=dispersion_s,
    )


# Topologies for the connection/server comparison matrix.


@dataclass(frozen=True)
class SyncTopology:
    """A root, optional wandering pool hops, and the client's last link.

    Pool hops re-sync to their upstream only every HOP_SYNC_EVERY polls
    and wander in between, which is what makes a public chain
    noisier than a private server next to the reference.
    """

    name: str
    client_link: LinkModel
    hop_links: tuple[LinkModel, ...] = ()
    hop_wander_sigma_s: float = 0.0
    root_wander_sigma_s: float = 0.0


@dataclass(frozen=True)
class SyncSample:
    at_s: float
    offset_truth: TimeOffset
    estimated_max_error_s: float


@dataclass(frozen=True)
class SyncRunResult:
    samples: tuple[SyncSample, ...]
    final: DisciplinedClock
    max_estimated_error_s: float
    max_abs_offset_s: float
    bound_held: bool


def run_disciplined_sync(topology: SyncTopology, duration_s: float, seed: int) -> SyncRunResult:
    """Poll the topology for ``duration_s`` and discipline a client clock.

    Pool servers take a random-walk step before every poll. On a re-sync
    poll each hop synchronizes fully to the node above it, inheriting its
    offset plus half of its own link's sampled asymmetry. The client
    starts INITIAL_OFFSET off and polls the last hop (or the root) every
    POLL_INTERVAL_S. The result records, per poll, the true client offset
    and the estimated maximum error, plus whether the bound held at every
    poll. The reported maxima skip the first WARMUP_POLLS polls so they
    describe the settled clock rather than the initial convergence
    transient; the bound check still covers every poll.
    """
    link_rng = stream(seed, "ntp", topology.name, "links")
    wander_rng = stream(seed, "ntp", topology.name, "wander")

    root_offset = TimeOffset.zero()
    hop_offsets = [TimeOffset.zero() for _ in topology.hop_links]
    clock = DisciplinedClock.start(INITIAL_OFFSET)

    samples = []
    polls = int(duration_s // POLL_INTERVAL_S)
    for k in range(1, polls + 1):
        if topology.root_wander_sigma_s > 0:
            root_offset = root_offset + TimeOffset.from_seconds(
                wander_rng.normal(0.0, topology.root_wander_sigma_s)
            )
        if topology.hop_wander_sigma_s > 0:
            hop_offsets = [
                off + TimeOffset.from_seconds(wander_rng.normal(0.0, topology.hop_wander_sigma_s))
                for off in hop_offsets
            ]

        if topology.hop_links and k % HOP_SYNC_EVERY == 1:
            upstream_offset = root_offset
            for j, link in enumerate(topology.hop_links):
                est = ntp_exchange(hop_offsets[j], upstream_offset, link, link_rng)
                hop_offsets[j] = hop_offsets[j] + est.offset
                upstream_offset = hop_offsets[j]

        server_offset = hop_offsets[-1] if topology.hop_links else root_offset
        estimate = ntp_exchange(clock.offset_truth, server_offset, topology.client_link, link_rng)
        clock = discipline_step(clock, estimate)
        samples.append(SyncSample(k * POLL_INTERVAL_S, clock.offset_truth, clock.estimated_max_error_s))

    settled = samples[WARMUP_POLLS:] if len(samples) > WARMUP_POLLS else samples
    max_est = max(s.estimated_max_error_s for s in settled)
    max_abs = max(abs(s.offset_truth.seconds) for s in settled)
    bound_held = all(abs(s.offset_truth.seconds) <= s.estimated_max_error_s for s in samples)
    return SyncRunResult(
        samples=tuple(samples),
        final=clock,
        max_estimated_error_s=max_est,
        max_abs_offset_s=max_abs,
        bound_held=bound_held,
    )


# Default link parameter sets for the connection/server comparison matrix.
# Calibration targets rather than physics: medians, biases and jitter are
# picked so each cell's estimated maximum error lands near values commonly
# observed for that combination. A private server one wired hop away is
# nearly ideal; a public pool reached over a cellular uplink is dominated
# by the large, persistent asymmetry of that path.

WIRED_PRIVATE_LINK = LinkModel(
    base_delay_up_s=0.0004,
    base_delay_down_s=0.0004,
    asymmetry_bias_s=0.0002,
    jitter_median_s=0.00005,
    jitter_sigma=0.5,
)

WIRED_PUBLIC_CLIENT_LINK = LinkModel(
    base_delay_up_s=0.0035,
    base_delay_down_s=0.0035,
    asymmetry_bias_s=0.006,
    jitter_median_s=0.0008,
    jitter_sigma=0.6,
)

LTE_PRIVATE_LINK = LinkModel(
    base_delay_up_s=0.012,
    base_delay_down_s=0.010,
    asymmetry_bias_s=0.005,
    jitter_median_s=0.0015,
    jitter_sigma=0.5,
)

LTE_PUBLIC_CLIENT_LINK = LinkModel(
    base_delay_up_s=0.018,
    base_delay_down_s=0.014,
    asymmetry_bias_s=0.090,
    jitter_median_s=0.0025,
    jitter_sigma=0.6,
)

POOL_HOP_LINK = LinkModel(
    base_delay_up_s=0.0025,
    base_delay_down_s=0.0025,
    asymmetry_bias_s=0.001,
    jitter_median_s=0.0008,
    jitter_sigma=0.6,
)

POOL_HOP_WANDER_S = 0.0004
POOL_ROOT_WANDER_S = 0.0002
POOL_DEPTH = 2

CONNECTIONS = ("wired", "wireless")
SERVER_TYPES = ("public", "private")


def default_topology(connection: str, server_type: str) -> SyncTopology:
    """A private server one hop away, or a public pool POOL_DEPTH hops deep."""
    key = (connection, server_type)
    links = {
        ("wired", "private"): WIRED_PRIVATE_LINK,
        ("wired", "public"): WIRED_PUBLIC_CLIENT_LINK,
        ("wireless", "private"): LTE_PRIVATE_LINK,
        ("wireless", "public"): LTE_PUBLIC_CLIENT_LINK,
    }
    if key not in links:
        raise ValueError(f"unknown matrix cell {key}")
    name = f"{connection}_{server_type}"
    if server_type == "private":
        return SyncTopology(name=name, client_link=links[key])
    return SyncTopology(
        name=name,
        client_link=links[key],
        hop_links=(POOL_HOP_LINK,) * POOL_DEPTH,
        hop_wander_sigma_s=POOL_HOP_WANDER_S,
        root_wander_sigma_s=POOL_ROOT_WANDER_S,
    )


@dataclass(frozen=True)
class SyncComparisonCell:
    connection: str
    server_type: str
    est_max_error_ms: float
    max_abs_offset_ms: float
    bound_held: bool


def run_sync_comparison(
    duration_s: float = DEFAULTS.sync.duration_s, seed: int = 0
) -> list[SyncComparisonCell]:
    """Run all four connection/server cells and report their error bounds."""
    cells = []
    for connection in CONNECTIONS:
        for server_type in SERVER_TYPES:
            result = run_disciplined_sync(default_topology(connection, server_type), duration_s, seed)
            cells.append(
                SyncComparisonCell(
                    connection=connection,
                    server_type=server_type,
                    est_max_error_ms=result.max_estimated_error_s * 1e3,
                    max_abs_offset_ms=result.max_abs_offset_s * 1e3,
                    bound_held=result.bound_held,
                )
            )
    return cells
