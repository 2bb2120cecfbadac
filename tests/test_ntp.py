import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpsimlab.ntp import (
    CONNECTIONS,
    ERROR_FLOOR_S,
    GAIN,
    HOP_SYNC_EVERY,
    INITIAL_OFFSET_NS,
    LinkModel,
    POLL_INTERVAL_S,
    SERVER_TYPES,
    SLEW_LIMIT_NS,
    SyncRunResult,
    SyncTopology,
    WARMUP_POLLS,
    default_topology,
    ntp_exchange,
    root_dispersion_s,
    run_disciplined_sync,
    run_sync_comparison,
)
from gpsimlab.rng import stream
from gpsimlab.timebase import NS_PER_MS, NS_PER_S

SYMMETRIC = LinkModel(base_delay_up_s=0.004, base_delay_down_s=0.004)


def _rng(seed=0):
    return stream(seed, "test", "ntp")


def _delays(link, rng):
    """One exchange's (up, down) delays in ns, from two fresh standard normals."""
    up, down = link.delays_ns(rng.standard_normal((1, 2)))
    return up.item(), down.item()


class TestExchange:
    def test_symmetric_link_true_server_is_exact(self):
        client_ns = 12 * NS_PER_MS
        offset_ns = ntp_exchange(client_ns, 0, *_delays(SYMMETRIC, _rng()))
        assert offset_ns == -client_ns

    def test_round_trip_equals_sampled_path(self):
        link = LinkModel(base_delay_up_s=0.010, base_delay_down_s=0.003, asymmetry_bias_s=0.001)
        dispersion_s = root_dispersion_s(2 * NS_PER_MS, *_delays(link, _rng()))
        # the server's 2 ms plus half the 14 ms round trip
        assert dispersion_s == pytest.approx(2 * NS_PER_MS / NS_PER_S + 0.014 / 2.0, abs=1e-12)

    def test_error_is_server_offset_plus_half_asymmetry(self):
        # deterministic link: up = 8 ms, down = 2 ms, so the estimator is
        # wrong by exactly theta_server + 3 ms no matter the client offset
        client_ns = -7 * NS_PER_MS
        link = LinkModel(base_delay_up_s=0.008, base_delay_down_s=0.002)
        offset_ns = ntp_exchange(client_ns, 5 * NS_PER_MS, *_delays(link, _rng()))
        ideal_ns = -client_ns
        error_ns = offset_ns - ideal_ns
        assert error_ns == 8 * NS_PER_MS

    def test_mean_error_matches_link_expectation(self):
        # Monte Carlo over the lognormal jitter; the persistent bias must
        # survive averaging and match the expected delays to CLT accuracy
        server_ns = 1 * NS_PER_MS
        link = LinkModel(
            base_delay_up_s=0.004,
            base_delay_down_s=0.004,
            asymmetry_bias_s=0.006,
            jitter_median_s=0.002,
            jitter_sigma=0.5,
        )
        ups, downs = link.delays_ns(_rng(1).standard_normal((4000, 2)))
        delays = zip(ups.tolist(), downs.tolist())
        errors = [ntp_exchange(0, server_ns, up, down) / NS_PER_S for up, down in delays]
        # the log-normal mean is median * exp(sigma^2 / 2)
        jitter = link.jitter_median_s * np.exp(link.jitter_sigma**2 / 2.0)
        up = link.base_delay_up_s + link.asymmetry_bias_s + jitter
        down = link.base_delay_down_s + jitter
        predicted = server_ns / NS_PER_S + (up - down) / 2.0
        assert np.mean(errors) == pytest.approx(predicted, abs=1e-4)

    def test_dispersion_defaults_to_true_offset_plus_half_rtt(self):
        # 4 ms each way: an 8 ms round trip
        dispersion_s = root_dispersion_s(-3 * NS_PER_MS, *_delays(SYMMETRIC, _rng()))
        assert dispersion_s == pytest.approx(0.003 + 0.008 / 2.0)

    def test_dispersion_is_elementwise_on_arrays(self):
        # the run applies it once to its int64 arrays: each element as the int call
        link = LinkModel(
            base_delay_up_s=0.010, base_delay_down_s=0.003, jitter_median_s=0.002, jitter_sigma=0.5
        )
        ups, downs = link.delays_ns(_rng(2).standard_normal((50, 2)))
        servers = np.arange(-25, 25) * 123_457
        expected = [root_dispersion_s(*row) for row in zip(servers.tolist(), ups.tolist(), downs.tolist())]
        assert root_dispersion_s(servers, ups, downs).tolist() == expected


class TestChain:
    def test_each_hop_contributes_half_its_asymmetry(self):
        # deterministic hops, up 4 ms and down 2 ms: each re-sync leaves a
        # hop 1 ms ahead of its upstream, and the client converges through
        # its symmetric link onto the stacked error of the last hop
        hop_link = LinkModel(base_delay_up_s=0.004, base_delay_down_s=0.002)
        for depth in (1, 2, 3):
            topology = SyncTopology("chain", SYMMETRIC, hop_links=(hop_link,) * depth)
            result = run_disciplined_sync(topology, 64 * POLL_INTERVAL_S, seed=0)
            offset_truth_ns, _ = result.samples[-1]
            assert offset_truth_ns / NS_PER_S == pytest.approx(depth * 1e-3, abs=1e-9)

    def test_deeper_chain_is_noisier(self):
        # same seeds, one vs three asymmetric, jittery hops: more hops, more error
        hop_link = LinkModel(
            base_delay_up_s=0.004,
            base_delay_down_s=0.002,
            jitter_median_s=0.001,
            jitter_sigma=0.5,
        )
        errors = {}
        for depth in (1, 3):
            topology = SyncTopology("depth", SYMMETRIC, hop_links=(hop_link,) * depth)
            errors[depth] = np.mean(
                [
                    abs(run_disciplined_sync(topology, 10 * POLL_INTERVAL_S, trial).samples[-1][0])
                    / NS_PER_S
                    for trial in range(40)
                ]
            )
        assert errors[3] > errors[1]


def _still_server(server_ns):
    """A pool hop that its first re-sync puts exactly ``server_ns`` off the still root, where it stays.

    Its fixed delays differ by twice ``server_ns``, so every estimate it
    makes of the root is off by exactly ``server_ns``.
    """
    up_s, down_s = max(2 * server_ns, 0) / NS_PER_S, max(-2 * server_ns, 0) / NS_PER_S
    return (LinkModel(base_delay_up_s=up_s, base_delay_down_s=down_s),)


class TestDiscipline:
    def _poll(self, server_ns, polls, link=SYMMETRIC):
        """``samples`` of a run whose client, INITIAL_OFFSET_NS off, polls a server still at ``server_ns``."""
        topology = SyncTopology("still", link, hop_links=_still_server(server_ns) if server_ns else ())
        return run_disciplined_sync(topology, polls * POLL_INTERVAL_S, seed=3).samples

    def test_settles_within_five_polls(self):
        assert INITIAL_OFFSET_NS == 10 * NS_PER_MS
        states = self._poll(0, 5)
        # gain 0.5 halves the offset per poll: 10 ms -> ~0.31 ms
        offset_truth_ns, _ = states[-1]
        assert abs(offset_truth_ns) / NS_PER_S < 0.05 * 0.010
        assert abs(offset_truth_ns) == pytest.approx(10e6 / 32, rel=0.01)

    def test_slew_limit_caps_correction(self):
        # a 1 s offset wants a 0.5 s correction; the 0.25 s limit clamps it
        # from above for a clock behind, from below for one ahead
        for start_ns, after_ns in ((NS_PER_S, 750_000_000), (-NS_PER_S, -750_000_000)):
            server_ns = INITIAL_OFFSET_NS - start_ns
            [(offset_truth_ns, _)] = self._poll(server_ns, 1)
            assert offset_truth_ns - server_ns == after_ns

    def test_bound_dominates_truth_during_convergence(self):
        # the client starts 40 ms off the server
        for offset_truth_ns, bound_s in self._poll(INITIAL_OFFSET_NS - 40 * NS_PER_MS, 12):
            assert bound_s >= abs(offset_truth_ns) / NS_PER_S

    def test_bound_dominates_truth_with_lying_server(self):
        # a wrong upstream plus asymmetry: bound must still hold because
        # the server advertises its own absolute offset
        link = LinkModel(base_delay_up_s=0.009, base_delay_down_s=0.002)
        for offset_truth_ns, bound_s in self._poll(6 * NS_PER_MS, 12, link):
            assert bound_s >= abs(offset_truth_ns) / NS_PER_S


class TestTopologyRuns:
    @pytest.mark.parametrize("connection", CONNECTIONS)
    @pytest.mark.parametrize("server_type", SERVER_TYPES)
    def test_bound_holds_every_poll(self, connection, server_type):
        result = run_disciplined_sync(default_topology(connection, server_type), 480.0, seed=5)
        assert result.bound_held
        for offset_truth_ns, bound_s in result.samples:
            assert bound_s >= abs(offset_truth_ns) / NS_PER_S

    def test_run_is_deterministic(self):
        a = run_disciplined_sync(default_topology("wireless", "public"), 320.0, seed=9)
        b = run_disciplined_sync(default_topology("wireless", "public"), 320.0, seed=9)
        assert a.samples == b.samples
        assert a == b

    def test_pinned_run(self):
        # one long chain run, bit for bit: any change to the rounding inside
        # the poll loop moves at least one of these figures
        result = run_disciplined_sync(default_topology("wireless", "public"), 3200.0, seed=9)
        offset_truth_ns, bound_s = result.samples[-1]
        assert offset_truth_ns == 45245601
        assert bound_s == 0.06536912553454664
        assert result.max_abs_offset_s == 0.049924888
        assert result.max_estimated_error_s == 0.0732416991681549
        assert len(result.samples) == 200

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_public_worse_than_private_paired(self, seed):
        kwargs = dict(duration_s=800.0, seed=seed)
        for connection in CONNECTIONS:
            pub = run_disciplined_sync(default_topology(connection, "public"), **kwargs)
            prv = run_disciplined_sync(default_topology(connection, "private"), **kwargs)
            assert pub.max_abs_offset_s > prv.max_abs_offset_s

    def test_comparison_has_four_labeled_cells(self):
        cells = run_sync_comparison(duration_s=480.0, seed=2)
        assert [(c.connection_type, c.server_type) for c in cells] == [
            ("wired", "public"),
            ("wired", "private"),
            ("wireless", "public"),
            ("wireless", "private"),
        ]
        for cell in cells:
            assert cell.bound_held
            assert cell.est_max_ntp_error_ms > 0.0


# The per-poll loop as it was before the run drew its normals up front and
# advanced its servers and its bound on arrays: scalar draws in poll order,
# delays rounded one at a time, every hop walked and every bound built per poll.


def _reference_delays(link, rng):
    up = link.base_delay_up_s + link.asymmetry_bias_s
    down = link.base_delay_down_s
    if link.jitter_median_s > 0:
        up += link.jitter_median_s * np.exp(link.jitter_sigma * rng.standard_normal())
        down += link.jitter_median_s * np.exp(link.jitter_sigma * rng.standard_normal())
    return max(up, 0.0), max(down, 0.0)


def _reference_exchange(client_offset_ns, server_offset_ns, link, rng):
    up_s, down_s = _reference_delays(link, rng)
    up, down = round(up_s * NS_PER_S), round(down_s * NS_PER_S)
    t1 = client_offset_ns
    t2 = up + server_offset_ns
    t3 = t2
    t4 = up + down + client_offset_ns
    round_trip_s = ((t4 - t1) - (t3 - t2)) / NS_PER_S
    return round(((t2 - t1) + (t3 - t4)) * 0.5), abs(server_offset_ns) / NS_PER_S + round_trip_s / 2.0


def _reference_discipline_step(clock, offset_ns, root_dispersion_s):
    offset_truth_ns, last_estimate_ns, dispersion_s = clock
    correction_ns = min(max(round(offset_ns * GAIN), -SLEW_LIMIT_NS), SLEW_LIMIT_NS)
    residual_s = abs(offset_ns - correction_ns) / NS_PER_S
    if last_estimate_ns is not None:
        jump_s = abs(offset_ns - last_estimate_ns) / NS_PER_S
        dispersion_s = 0.5 * dispersion_s + 0.5 * jump_s
    else:
        dispersion_s = 0.0
    bound_s = ERROR_FLOOR_S + residual_s + root_dispersion_s + dispersion_s
    return (offset_truth_ns + correction_ns, offset_ns, dispersion_s), bound_s


def _reference_sync(topology, duration_s, seed):
    link_rng = stream(seed, "ntp", topology.name, "links")
    wander_rng = stream(seed, "ntp", topology.name, "wander")
    root_offset_ns = 0
    hop_offsets_ns = [0] * len(topology.hop_links)
    clock = (INITIAL_OFFSET_NS, None, 0.0)
    samples = []
    polls = int(duration_s // POLL_INTERVAL_S)
    for k in range(1, polls + 1):
        if topology.root_wander_sigma_s > 0:
            root_offset_ns += round(wander_rng.normal(0.0, topology.root_wander_sigma_s) * NS_PER_S)
        if topology.hop_wander_sigma_s > 0:
            hop_offsets_ns = [
                off + round(wander_rng.normal(0.0, topology.hop_wander_sigma_s) * NS_PER_S)
                for off in hop_offsets_ns
            ]
        if topology.hop_links and k % HOP_SYNC_EVERY == 1:
            upstream_ns = root_offset_ns
            for j, link in enumerate(topology.hop_links):
                hop_offsets_ns[j] += _reference_exchange(hop_offsets_ns[j], upstream_ns, link, link_rng)[0]
                upstream_ns = hop_offsets_ns[j]
        server_ns = hop_offsets_ns[-1] if topology.hop_links else root_offset_ns
        estimate = _reference_exchange(clock[0], server_ns, topology.client_link, link_rng)
        clock, bound_s = _reference_discipline_step(clock, *estimate)
        samples.append((clock[0], bound_s))
    settled = samples[WARMUP_POLLS:] if len(samples) > WARMUP_POLLS else samples
    return SyncRunResult(
        samples=tuple(samples),
        max_estimated_error_s=max(bound_s for _, bound_s in settled),
        max_abs_offset_s=max(abs(offset_truth_ns) for offset_truth_ns, _ in settled) / NS_PER_S,
        bound_held=all(abs(offset_truth_ns) / NS_PER_S <= bound_s for offset_truth_ns, bound_s in samples),
    )


def _either(off, on):
    return st.one_of(st.just(off), on)


links = st.builds(
    LinkModel,
    base_delay_up_s=st.floats(0.0, 0.05),
    base_delay_down_s=st.floats(0.0, 0.05),
    # a bias below minus the base delay clamps the uplink at 0
    asymmetry_bias_s=st.floats(-0.1, 0.1),
    jitter_median_s=_either(0.0, st.floats(1e-6, 0.01)),
    jitter_sigma=st.floats(0.0, 1.5),
)

topologies = st.builds(
    SyncTopology,
    name=st.sampled_from(["a", "b"]),
    client_link=links,
    hop_links=st.lists(links, max_size=3).map(tuple),
    hop_wander_sigma_s=_either(0.0, st.floats(1e-7, 0.002)),
    root_wander_sigma_s=_either(0.0, st.floats(1e-7, 0.002)),
)


class TestPreDrawnRun:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        topologies,
        st.floats(POLL_INTERVAL_S, 7200.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_per_poll_scalar_draws(self, topology, duration_s, seed):
        result = run_disciplined_sync(topology, duration_s, seed)
        reference = _reference_sync(topology, duration_s, seed)
        assert result.samples == reference.samples
        assert result == reference

    # a day, the benchmark's horizon, and the first polls around
    # HOP_SYNC_EVERY and WARMUP_POLLS, with 9 ending on a re-sync poll
    @pytest.mark.parametrize("duration_s", [polls * POLL_INTERVAL_S for polls in (1, 4, 5, 8, 9)] + [86400.0])
    @pytest.mark.parametrize("seed", [0, 29])
    @pytest.mark.parametrize("connection", CONNECTIONS)
    @pytest.mark.parametrize("server_type", SERVER_TYPES)
    def test_default_cells_match_per_poll_scalar_draws(self, server_type, connection, seed, duration_s):
        topology = default_topology(connection, server_type)
        result = run_disciplined_sync(topology, duration_s, seed)
        assert result == _reference_sync(topology, duration_s, seed)

    @pytest.mark.parametrize("duration_s", [0.0, POLL_INTERVAL_S - 1e-9])
    def test_duration_below_one_poll_names_duration(self, duration_s):
        with pytest.raises(ValueError, match="duration_s"):
            run_disciplined_sync(default_topology("wired", "private"), duration_s, seed=0)


class TestBoundInvariant:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        topologies,
        st.floats(POLL_INTERVAL_S, 3600.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bound_held_on_random_topologies(self, topology, duration_s, seed):
        # the estimated maximum error dominates the true offset at every poll
        result = run_disciplined_sync(topology, duration_s, seed)
        assert len(result.samples) == int(duration_s // POLL_INTERVAL_S)
        assert result.bound_held
        for offset_truth_ns, bound_s in result.samples:
            assert abs(offset_truth_ns) / NS_PER_S <= bound_s
