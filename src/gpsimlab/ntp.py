"""Network time synchronization error modeling.

Clock offsets are integer nanosecond counts of clock-minus-true-time,
named ``*_ns``, as everywhere in the package. An exchange measures
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

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .config import DEFAULTS
from .rng import stream
from .timebase import NS_PER_S

POLL_INTERVAL_S = 16.0
GAIN = 0.5
SLEW_LIMIT_NS = 250_000_000
ERROR_FLOOR_S = 50e-6
INITIAL_OFFSET_NS = 10_000_000
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

    def delays_ns(self, normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sampled (up, down) one-way delays as int64 arrays of whole nanoseconds, one pair per row.

        Each row of ``normals`` holds one exchange's uplink and downlink
        standard normal draws. They only scale the jitter, so a link without
        jitter never reads them. Delays round half to even, as ``round`` does.
        """
        seconds = np.array([self.base_delay_up_s + self.asymmetry_bias_s, self.base_delay_down_s])
        if self.jitter_median_s > 0:
            seconds = seconds + self.jitter_median_s * np.exp(self.jitter_sigma * normals)
        else:
            seconds = np.broadcast_to(seconds, normals.shape)
        up, down = np.rint(np.maximum(seconds, 0.0) * NS_PER_S).astype(np.int64).T
        return up, down


def ntp_exchange(client_offset_ns: int, server_offset_ns: int, up: int, down: int) -> int:
    """The offset estimate of one four-timestamp exchange between two clocks' true offsets.

    ``up`` and ``down`` are the exchange's sampled one-way delays in
    nanoseconds (``LinkModel.delays_ns``), and the server responds
    instantly. The estimate rounds the full sum half-to-even, so an odd
    sum lands on an even nanosecond.
    """
    t1 = client_offset_ns
    t2 = up + server_offset_ns
    t3 = t2
    t4 = up + down + client_offset_ns
    return round(((t2 - t1) + (t3 - t4)) * 0.5)


def root_dispersion_s(
    server_offset_ns: int | np.ndarray, up: int | np.ndarray, down: int | np.ndarray
) -> float | np.ndarray:
    """The server's advertised error bound plus half the round trip ``up + down``, in seconds.

    The server advertises its actual absolute offset (see the module
    docstring). Works elementwise on int64 arrays as on ints: every
    operation is one IEEE operation on exact whole-ns values.
    """
    return abs(server_offset_ns) / NS_PER_S + (up + down) / NS_PER_S / 2.0


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
class SyncRunResult:
    samples: tuple[tuple[int, float], ...]
    max_estimated_error_s: float
    max_abs_offset_s: float
    bound_held: bool


def run_disciplined_sync(topology: SyncTopology, duration_s: float, seed: int) -> SyncRunResult:
    """Poll the topology for ``duration_s`` and discipline a client clock.

    Pool servers take a random-walk step before every poll. On a re-sync
    poll each hop synchronizes fully to the node above it, inheriting its
    offset plus half of its own link's sampled asymmetry. The client
    starts INITIAL_OFFSET_NS off and polls the last hop (or the root) every
    POLL_INTERVAL_S. Each poll it slews toward the estimate by GAIN,
    clipped to the slew limit, and rebuilds its estimated maximum error:
    the floor, plus the unapplied remainder of the estimate, plus the
    estimate's root dispersion, plus the dispersion of successive
    estimates (halved each poll, plus half the latest jump), so the bound
    stays above the true offset. The result's ``samples`` hold one
    ``(offset_truth_ns, estimated_max_error_s)`` pair per poll, and
    ``bound_held`` whether the bound held at every poll. The reported
    maxima skip the first WARMUP_POLLS polls so they describe the settled
    clock rather than the initial convergence transient; the bound check
    still covers every poll.
    """
    polls = int(duration_s // POLL_INTERVAL_S)
    if polls < 1:
        raise ValueError(f"duration_s must cover at least one {POLL_INTERVAL_S:g} s poll, got {duration_s}")
    hops = len(topology.hop_links)

    # Every random number of the run, drawn before the first poll in the
    # order the polls consume them; an array draw is bit for bit the same
    # sequence of scalar draws, and normal(0, sigma) is sigma * standard_normal.
    # Wander, per poll: the root's step, then each hop's.
    sigmas = np.array([topology.root_wander_sigma_s] + [topology.hop_wander_sigma_s] * hops)
    drawn = sigmas > 0
    wander = stream(seed, "ntp", topology.name, "wander").standard_normal((polls, int(drawn.sum())))
    steps = np.zeros((polls, 1 + hops), dtype=np.int64)
    steps[:, drawn] = np.rint(wander * sigmas[drawn] * NS_PER_S)
    # Link delays, per poll: on a re-sync poll each hop's up and down draw,
    # then the client's; a link without jitter draws nothing.
    links = (*topology.hop_links, topology.client_link)
    resync = np.arange(polls) % HOP_SYNC_EVERY == 0  # polls 1, 1 + HOP_SYNC_EVERY, ...
    active = np.ones((polls, len(links)), dtype=bool)
    active[:, :hops] = resync[:, None]
    jittered = active & [link.jitter_median_s > 0 for link in links]
    # a mask fills in row-major order: poll by poll, then link by link
    normals = np.zeros((polls, len(links), 2))
    normals[jittered] = stream(seed, "ntp", topology.name, "links").standard_normal((int(jittered.sum()), 2))
    *hop_delays, (up, down) = (link.delays_ns(normals[active[:, i], i]) for i, link in enumerate(links))

    # Between re-syncs every server only walks, so each node's offset is its
    # walk (the running sum of its steps) plus a shift, the sum of its
    # re-sync estimates so far. The int64 walks are exact, and stay exact in
    # the float64 tail: a step is sigma * z s with |z| under 14, the tail
    # limit of numpy's ziggurat normals, so with every sigma at most 0.002 s
    # (0.0004 s in the topologies built here, 0.002 s at most in the tests)
    # a step stays under 3e7 ns, and MAX_TIMELINE_STEPS polls of it under
    # 3e13 ns, far below 2**53 and further below 2**63.
    walks = np.cumsum(steps, axis=0)
    server_ns = walks[:, -1]
    if hops:
        shifts = [0] * hops
        last_shifts = []
        hop_delays = [zip(hop_up.tolist(), hop_down.tolist()) for hop_up, hop_down in hop_delays]
        for upstream_ns, *hop_walks in walks[resync].tolist():
            for j, (walk_ns, delays) in enumerate(zip(hop_walks, hop_delays)):
                shifts[j] += ntp_exchange(walk_ns + shifts[j], upstream_ns, *next(delays))
                upstream_ns = walk_ns + shifts[j]
            last_shifts.append(shifts[-1])
        server_ns = server_ns + np.repeat(last_shifts, HOP_SYNC_EVERY)[:polls]

    # The client: only the recurrence that feeds back runs per poll. It
    # yields each poll's estimate, then the offset the slew leaves, straight
    # into one preallocated array rather than into growing lists.
    def client():
        truth_ns = INITIAL_OFFSET_NS
        for server, up_ns, down_ns in zip(server_ns.tolist(), up.tolist(), down.tolist()):
            estimate_ns = ntp_exchange(truth_ns, server, up_ns, down_ns)
            truth_ns += min(max(round(estimate_ns * GAIN), -SLEW_LIMIT_NS), SLEW_LIMIT_NS)
            yield estimate_ns
            yield truth_ns

    estimates, truths = np.fromiter(client(), np.int64, 2 * polls).reshape(polls, 2).T

    # The bound, on arrays: elementwise IEEE operations on exact whole-ns
    # values round as the same Python float operations do.
    residual_s = np.abs(estimates - np.diff(truths, prepend=INITIAL_OFFSET_NS)) / NS_PER_S
    jumps_s = np.abs(np.diff(estimates)) / NS_PER_S
    dispersion_s = np.fromiter(
        accumulate(jumps_s.tolist(), lambda d, jump: 0.5 * d + 0.5 * jump, initial=0.0), float, polls
    )
    bounds_s = ERROR_FLOOR_S + residual_s + root_dispersion_s(server_ns, up, down) + dispersion_s

    settled = slice(WARMUP_POLLS if polls > WARMUP_POLLS else 0, None)
    return SyncRunResult(
        # map, not tolist: two whole-run lists freed around the growing tuple
        # fragment the heap, which raised a later command's peak RSS 0.3 MiB
        samples=tuple(zip(map(int, truths), map(float, bounds_s))),
        max_estimated_error_s=float(bounds_s[settled].max()),
        max_abs_offset_s=int(np.abs(truths[settled]).max()) / NS_PER_S,
        bound_held=bool((np.abs(truths) / NS_PER_S <= bounds_s).all()),
    )


# Default link parameter sets for the connection/server comparison matrix.
# Calibration targets rather than physics: medians, biases and jitter are
# picked so each cell's estimated maximum error lands near values commonly
# observed for that combination. A private server one wired hop away is
# nearly ideal; a public pool reached over a cellular uplink is dominated
# by the large, persistent asymmetry of that path. CLIENT_LINKS holds each
# cell's client link, keyed (connection, server type).
CLIENT_LINKS = {
    ("wired", "private"): LinkModel(
        base_delay_up_s=0.0004,
        base_delay_down_s=0.0004,
        asymmetry_bias_s=0.0002,
        jitter_median_s=0.00005,
        jitter_sigma=0.5,
    ),
    ("wired", "public"): LinkModel(
        base_delay_up_s=0.0035,
        base_delay_down_s=0.0035,
        asymmetry_bias_s=0.006,
        jitter_median_s=0.0008,
        jitter_sigma=0.6,
    ),
    ("wireless", "private"): LinkModel(
        base_delay_up_s=0.012,
        base_delay_down_s=0.010,
        asymmetry_bias_s=0.005,
        jitter_median_s=0.0015,
        jitter_sigma=0.5,
    ),
    ("wireless", "public"): LinkModel(
        base_delay_up_s=0.018,
        base_delay_down_s=0.014,
        asymmetry_bias_s=0.090,
        jitter_median_s=0.0025,
        jitter_sigma=0.6,
    ),
}

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
    if key not in CLIENT_LINKS:
        raise ValueError(f"unknown matrix cell {key}")
    name = f"{connection}_{server_type}"
    if server_type == "private":
        return SyncTopology(name=name, client_link=CLIENT_LINKS[key])
    return SyncTopology(
        name=name,
        client_link=CLIENT_LINKS[key],
        hop_links=(POOL_HOP_LINK,) * POOL_DEPTH,
        hop_wander_sigma_s=POOL_HOP_WANDER_S,
        root_wander_sigma_s=POOL_ROOT_WANDER_S,
    )


@dataclass(frozen=True)
class SyncComparisonCell:
    """One row of the comparison; the field names are the artifact keys."""

    connection_type: str
    server_type: str
    est_max_ntp_error_ms: float
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
                    connection_type=connection,
                    server_type=server_type,
                    est_max_ntp_error_ms=result.max_estimated_error_s * 1e3,
                    max_abs_offset_ms=result.max_abs_offset_s * 1e3,
                    bound_held=result.bound_held,
                )
            )
    return cells
