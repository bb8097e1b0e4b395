"""Throughput experiment (section 3.3 prose).

The paper scales request and response payloads and observes ~8 MB/s on
the request path (bounded by document shredding) versus ~14 MB/s on the
response path (bounded by serialization) on a 1 Gb/s network — i.e. the
protocol is CPU-bound, not network-bound, on a fast LAN.

We reproduce both directions:

* *request-heavy*: ``tst:echo($payload)`` with a large node parameter —
  the server must shred the incoming message;
* *response-heavy*: ``tst:produce($n)`` returning a large sequence —
  the server must serialize the outgoing message.

Run over the real loopback HTTP transport the measured rates are wall
time; over the simulated network the rates follow the calibrated cost
model (8 and 14 MB/s).  The invariant to check is the *shape*: response
throughput exceeds request throughput.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.net import SimulatedNetwork
from repro.rpc import XRPCPeer
from repro.workloads.modules import TEST_MODULE, TEST_MODULE_LOCATION


@dataclass
class ThroughputRow:
    direction: str           # "request" | "response"
    payload_bytes: int
    seconds: float
    mb_per_second: float


def _make_pair(network):
    origin = XRPCPeer("p0", network)
    server = XRPCPeer("y", network)
    for peer in (origin, server):
        peer.registry.register_source(TEST_MODULE,
                                      location=TEST_MODULE_LOCATION)
    return origin, server


class ThroughputExperiment:
    """Request vs response path throughput."""

    def __init__(self, rows_per_payload: int = 2000,
                 simulated: bool = True) -> None:
        self.rows_per_payload = rows_per_payload
        self.simulated = simulated

    def _payload_query(self, direction: str) -> str:
        n = self.rows_per_payload
        if direction == "request":
            # Build the payload locally, ship it, server echoes a count.
            return f"""
            import module namespace t="test" at "{TEST_MODULE_LOCATION}";
            let $payload := for $i in (1 to {n}) return <row>chunk-{{$i}}</row>
            return count(execute at {{"xrpc://y"}} {{ t:echo($payload) }})
            """
        return f"""
        import module namespace t="test" at "{TEST_MODULE_LOCATION}";
        count(execute at {{"xrpc://y"}} {{ t:produce({n}) }})
        """

    def measure(self, direction: str) -> ThroughputRow:
        if self.simulated:
            from repro.net.cost import PeerCostModel
            network = SimulatedNetwork()
            origin, server = _make_pair(network)
            server.cost_model = PeerCostModel()
            # Warm the function cache so compile cost doesn't pollute the
            # bandwidth measurement.
            origin.execute_query(self._payload_query(direction))
            network.reset_stats()
            started = network.clock.now()
            result = origin.execute_query(self._payload_query(direction))
            seconds = network.clock.now() - started
        else:
            network = SimulatedNetwork()  # zero-cost in-process channel
            network.cost_model.latency_seconds = 0.0
            origin, server = _make_pair(network)
            network.reset_stats()
            started = time.perf_counter()
            result = origin.execute_query(self._payload_query(direction))
            seconds = time.perf_counter() - started
        # Both payload queries (element construction, fn:count) run as
        # the loop-lifted plan — assert the telemetry so the shape can't
        # silently change.
        assert result.plan == "lifted", result.fallback_reason
        payload = network.bytes_sent if direction == "request" \
            else network.bytes_received
        return ThroughputRow(
            direction=direction,
            payload_bytes=payload,
            seconds=seconds,
            mb_per_second=payload / seconds / 1e6 if seconds > 0 else 0.0,
        )

    def run(self) -> list[ThroughputRow]:
        return [self.measure("request"), self.measure("response")]

    @staticmethod
    def render(rows: list[ThroughputRow]) -> str:
        lines = [
            "Throughput (section 3.3): request vs response path",
            "",
            f"{'direction':<12}{'payload MB':>12}{'seconds':>10}{'MB/s':>8}",
        ]
        for row in rows:
            lines.append(
                f"{row.direction:<12}{row.payload_bytes / 1e6:>12.2f}"
                f"{row.seconds:>10.3f}{row.mb_per_second:>8.1f}")
        return "\n".join(lines)
