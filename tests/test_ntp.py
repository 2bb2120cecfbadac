import numpy as np
import pytest

from gpsimlab.ntp import (
    CONNECTIONS,
    DisciplinedClock,
    LinkModel,
    POLL_INTERVAL_S,
    SERVER_TYPES,
    SyncTopology,
    default_topology,
    discipline_step,
    ntp_exchange,
    run_disciplined_sync,
    run_sync_comparison,
)
from gpsimlab.rng import stream
from gpsimlab.timebase import NS_PER_MS, NS_PER_S

SYMMETRIC = LinkModel(base_delay_up_s=0.004, base_delay_down_s=0.004)


def _rng(seed=0):
    return stream(seed, "test", "ntp")


class TestExchange:
    def test_symmetric_link_true_server_is_exact(self):
        client_ns = 12 * NS_PER_MS
        est = ntp_exchange(client_ns, 0, SYMMETRIC, _rng())
        assert est.offset_ns == -client_ns

    def test_round_trip_equals_sampled_path(self):
        link = LinkModel(base_delay_up_s=0.010, base_delay_down_s=0.003, asymmetry_bias_s=0.001)
        est = ntp_exchange(-4 * NS_PER_MS, 2 * NS_PER_MS, link, _rng())
        assert est.round_trip_s == pytest.approx(0.014, abs=1e-12)

    def test_error_is_server_offset_plus_half_asymmetry(self):
        # deterministic link: up = 8 ms, down = 2 ms, so the estimator is
        # wrong by exactly theta_server + 3 ms no matter the client offset
        client_ns = -7 * NS_PER_MS
        link = LinkModel(base_delay_up_s=0.008, base_delay_down_s=0.002)
        est = ntp_exchange(client_ns, 5 * NS_PER_MS, link, _rng())
        ideal_ns = -client_ns
        error_ns = est.offset_ns - ideal_ns
        assert error_ns == 8 * NS_PER_MS

    def test_mean_error_matches_link_expectation(self):
        # Monte Carlo over the lognormal jitter; the persistent bias must
        # survive averaging and match mean_one_way to CLT accuracy
        server_ns = 1 * NS_PER_MS
        link = LinkModel(
            base_delay_up_s=0.004,
            base_delay_down_s=0.004,
            asymmetry_bias_s=0.006,
            jitter_median_s=0.002,
            jitter_sigma=0.5,
        )
        rng = _rng(1)
        errors = [ntp_exchange(0, server_ns, link, rng).offset_ns / NS_PER_S for _ in range(4000)]
        up, down = link.mean_one_way()
        predicted = server_ns / NS_PER_S + (up - down) / 2.0
        assert np.mean(errors) == pytest.approx(predicted, abs=1e-4)

    def test_dispersion_defaults_to_true_offset_plus_half_rtt(self):
        est = ntp_exchange(0, -3 * NS_PER_MS, SYMMETRIC, _rng())
        assert est.root_dispersion_s == pytest.approx(0.003 + est.round_trip_s / 2.0)


class TestChain:
    def test_each_hop_contributes_half_its_asymmetry(self):
        # deterministic hops, up 4 ms and down 2 ms: each re-sync leaves a
        # hop 1 ms ahead of its upstream, and the client converges through
        # its symmetric link onto the stacked error of the last hop
        hop_link = LinkModel(base_delay_up_s=0.004, base_delay_down_s=0.002)
        for depth in (1, 2, 3):
            topology = SyncTopology("chain", SYMMETRIC, hop_links=(hop_link,) * depth)
            result = run_disciplined_sync(topology, 64 * POLL_INTERVAL_S, seed=0)
            assert result.final.offset_truth_ns / NS_PER_S == pytest.approx(depth * 1e-3, abs=1e-9)

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
                    abs(run_disciplined_sync(topology, 10 * POLL_INTERVAL_S, trial).final.offset_truth_ns)
                    / NS_PER_S
                    for trial in range(40)
                ]
            )
        assert errors[3] > errors[1]


class TestDiscipline:
    def _poll(self, clock, polls, link=SYMMETRIC, server_offset_ns=0):
        states = []
        rng = _rng(3)
        for _ in range(polls):
            clock = discipline_step(clock, ntp_exchange(clock.offset_truth_ns, server_offset_ns, link, rng))
            states.append(clock)
        return states

    def test_settles_within_five_polls(self):
        clock = DisciplinedClock.start(10 * NS_PER_MS)
        states = self._poll(clock, 5)
        # gain 0.5 halves the offset per poll: 10 ms -> ~0.31 ms
        assert abs(states[-1].offset_truth_ns) / NS_PER_S < 0.05 * 0.010
        assert abs(states[-1].offset_truth_ns) == pytest.approx(10e6 / 32, rel=0.01)

    def test_slew_limit_caps_correction(self):
        # a 1 s offset wants a 0.5 s correction; the 0.25 s limit clamps it
        # from above for a clock behind, from below for one ahead
        for start_ns, after_ns in ((NS_PER_S, 750_000_000), (-NS_PER_S, -750_000_000)):
            states = self._poll(DisciplinedClock.start(start_ns), 1)
            assert states[0].offset_truth_ns == after_ns

    def test_bound_dominates_truth_during_convergence(self):
        clock = DisciplinedClock.start(40 * NS_PER_MS)
        for state in self._poll(clock, 12):
            assert state.estimated_max_error_s >= abs(state.offset_truth_ns) / NS_PER_S

    def test_bound_dominates_truth_with_lying_server(self):
        # a wrong upstream plus asymmetry: bound must still hold because
        # the server advertises its own absolute offset
        link = LinkModel(base_delay_up_s=0.009, base_delay_down_s=0.002)
        clock = DisciplinedClock.start(10 * NS_PER_MS)
        for state in self._poll(clock, 12, link, 6 * NS_PER_MS):
            assert state.estimated_max_error_s >= abs(state.offset_truth_ns) / NS_PER_S


class TestTopologyRuns:
    @pytest.mark.parametrize("connection", CONNECTIONS)
    @pytest.mark.parametrize("server_type", SERVER_TYPES)
    def test_bound_holds_every_poll(self, connection, server_type):
        result = run_disciplined_sync(default_topology(connection, server_type), 480.0, seed=5)
        assert result.bound_held
        for sample in result.samples:
            assert sample.estimated_max_error_s >= abs(sample.offset_truth_ns) / NS_PER_S

    def test_run_is_deterministic(self):
        a = run_disciplined_sync(default_topology("wireless", "public"), 320.0, seed=9)
        b = run_disciplined_sync(default_topology("wireless", "public"), 320.0, seed=9)
        assert a.samples == b.samples
        assert a.final == b.final

    def test_pinned_run(self):
        # one long chain run, bit for bit: any change to the rounding inside
        # the poll loop moves at least one of these figures
        result = run_disciplined_sync(default_topology("wireless", "public"), 3200.0, seed=9)
        assert result.final.offset_truth_ns == 45245601
        assert result.final.estimated_max_error_s == 0.06536912553454664
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
