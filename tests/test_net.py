"""Unit tests for the network substrate: clocks, cost models, simulation."""

import pytest

from repro.errors import TransportError
from repro.net import (
    ExchangeSpec,
    NetworkCostModel,
    PeerCostModel,
    SimulatedNetwork,
    VirtualClock,
    WallClock,
)
from repro.rpc import XRPCPeer
from repro.soap import XRPCRequest, XRPCResponse, build_request, parse_message
from repro.workloads import TEST_MODULE, TEST_MODULE_LOCATION


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_advance(self):
        clock = VirtualClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now() == 2.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)

    def test_set_forward_only(self):
        clock = VirtualClock(start=10.0)
        clock.set(12.0)
        assert clock.now() == 12.0
        with pytest.raises(ValueError):
            clock.set(5.0)

    def test_wall_clock_monotonic(self):
        clock = WallClock()
        first = clock.now()
        clock.advance(100)  # no-op
        assert clock.now() >= first


class TestCostModels:
    def test_transfer_includes_latency_and_bandwidth(self):
        model = NetworkCostModel(latency_seconds=0.001,
                                 bandwidth_bytes_per_second=1e6)
        assert model.transfer_seconds(0) == 0.001
        assert model.transfer_seconds(1_000_000) == pytest.approx(1.001)

    # A served request's charge, read off the serving peer's clock: the
    # model's fields are what `XRPCServer` advances it by.

    @staticmethod
    def _served_seconds(peer: XRPCPeer, calls: int) -> float:
        request = XRPCRequest(module="test", method="echoVoid", arity=0,
                              location=TEST_MODULE_LOCATION,
                              calls=[[] for _ in range(calls)])
        start = peer.clock.now()
        reply = peer.server.handle(build_request(request))
        elapsed = peer.clock.now() - start
        assert isinstance(parse_message(reply), XRPCResponse)
        return elapsed

    @staticmethod
    def _serving_peer(model: PeerCostModel) -> XRPCPeer:
        peer = XRPCPeer("y.example.org", SimulatedNetwork(), cost_model=model)
        peer.registry.register_source(TEST_MODULE,
                                      location=TEST_MODULE_LOCATION)
        return peer

    def test_peer_request_cost_compile_toggle(self):
        model = PeerCostModel()
        peer = self._serving_peer(model)
        cold = self._served_seconds(peer, calls=1)
        warm = self._served_seconds(peer, calls=1)  # function cache hit
        assert cold - warm == pytest.approx(model.compile_seconds)

    def test_per_call_cost_scales(self):
        # Bytes cost nothing here, so the two requests differ by calls only.
        model = PeerCostModel(shred_seconds_per_byte=0.0,
                              serialize_seconds_per_byte=0.0)
        peer = self._serving_peer(model)
        self._served_seconds(peer, calls=1)  # compile once
        one = self._served_seconds(peer, calls=1)
        thousand = self._served_seconds(peer, calls=1000)
        assert thousand - one == pytest.approx(999 * model.per_call_seconds)

    def test_throughput_asymmetry_in_model(self):
        model = PeerCostModel()
        # Shredding (requests) is slower than serialization (responses),
        # matching the paper's 8 vs 14 MB/s.
        assert model.shred_seconds_per_byte > model.serialize_seconds_per_byte


class TestSimulatedNetwork:
    def test_send_charges_both_directions(self):
        network = SimulatedNetwork(NetworkCostModel(
            latency_seconds=0.01, bandwidth_bytes_per_second=1e9))
        network.register_peer("b", lambda payload: payload)
        network.send("b", "x" * 100)
        # Two transfers => two latencies (plus negligible byte time).
        assert network.clock.now() == pytest.approx(0.02, rel=0.01)

    def test_unknown_peer(self):
        network = SimulatedNetwork()
        with pytest.raises(TransportError):
            network.send("ghost", "payload")

    def test_stats_tracking(self):
        network = SimulatedNetwork()
        network.register_peer("b", lambda payload: "ok")
        network.send("b", "12345")
        assert network.messages_sent == 1
        assert network.bytes_sent == 5
        assert network.bytes_received == 2
        assert network.message_log == [("b", 5, 2)]
        network.reset_stats()
        assert network.messages_sent == 0
        assert network.message_log == []

    def test_handler_can_charge_cpu_time(self):
        network = SimulatedNetwork(NetworkCostModel(latency_seconds=0.0))

        def busy_handler(payload: str) -> str:
            network.clock.advance(0.5)
            return "done"

        network.register_peer("b", busy_handler)
        start = network.clock.now()
        network.send("b", "x")
        assert network.clock.now() - start == pytest.approx(0.5, rel=0.01)

    def test_parallel_dispatch_takes_max_not_sum(self):
        network = SimulatedNetwork(NetworkCostModel(latency_seconds=0.0))

        def slow(payload: str) -> str:
            network.clock.advance(1.0)
            return "slow"

        def fast(payload: str) -> str:
            network.clock.advance(0.1)
            return "fast"

        network.register_peer("s", slow)
        network.register_peer("f", fast)
        start = network.clock.now()
        responses = network.exchange_many(
            [ExchangeSpec("s", "x"), ExchangeSpec("f", "y")])
        elapsed = network.clock.now() - start
        assert responses == ["slow", "fast"]
        # Parallel: total = max(1.0, 0.1), not 1.1.
        assert elapsed == pytest.approx(1.0, rel=0.01)

    def test_parallel_empty(self):
        assert SimulatedNetwork().exchange_many([]) == []

    def test_sequential_fallback_is_sum(self):
        network = SimulatedNetwork(NetworkCostModel(latency_seconds=0.0))

        def slow(payload: str) -> str:
            network.clock.advance(1.0)
            return "r"

        network.register_peer("s", slow)
        start = network.clock.now()
        network.send("s", "a")
        network.send("s", "b")
        assert network.clock.now() - start == pytest.approx(2.0, rel=0.01)
