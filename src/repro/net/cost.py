"""Cost models for the simulated network and peers.

Defaults are calibrated so the simulated experiments land in the same
regime the paper reports (section 3.3):

* ~2.6 ms observed minimum per RPC round trip, of which ~2 ms is
  network+HTTP latency and the rest message handling;
* 130 ms XQuery module translation time (removed by the function cache);
* request-side data throughput ~8 MB/s (shredding-bound) and
  response-side ~14 MB/s (serialization-bound) — CPU-bound on a 1 Gb/s
  network, so we charge them as *peer* costs, not link costs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class NetworkCostModel:
    """Cost of moving one message over the (simulated) wire."""

    latency_seconds: float = 0.001          # one-way latency incl. HTTP overhead
    bandwidth_bytes_per_second: float = 125e6   # 1 Gb/s Ethernet

    def transfer_seconds(self, nbytes: int) -> float:
        return self.latency_seconds + nbytes / self.bandwidth_bytes_per_second


@dataclass
class PeerCostModel:
    """CPU cost a peer charges while serving one XRPC request."""

    # XQuery module translation (parse+compile+optimize). The function
    # cache eliminates this per-request cost (Table 2, right half).
    compile_seconds: float = 0.130
    # Fixed per-request handling (HTTP dispatch, envelope shredding setup).
    request_overhead_seconds: float = 0.0003
    # Marginal cost of executing one call inside a bulk request.
    per_call_seconds: float = 0.0000013
    # Message shredding (requests arrive as XML that must be parsed):
    # 8 MB/s observed in the paper -> 125 ns/byte.
    shred_seconds_per_byte: float = 1.0 / 8e6
    # Result serialization: 14 MB/s -> ~71 ns/byte.
    serialize_seconds_per_byte: float = 1.0 / 14e6

    def request_cost(self, request_bytes: int, calls: int,
                     compiled_cached: bool) -> float:
        """Total simulated CPU seconds to serve one (bulk) request."""
        cost = self.request_overhead_seconds
        cost += request_bytes * self.shred_seconds_per_byte
        cost += calls * self.per_call_seconds
        if not compiled_cached:
            cost += self.compile_seconds
        return cost
