"""Network substrate: transports connecting XRPC peers.

Two interchangeable transports implement the paper's "SOAP over HTTP"
channel:

* :class:`~repro.net.simulated.SimulatedNetwork` — a deterministic
  virtual-time transport with a configurable latency/bandwidth cost
  model.  Benchmarks use it so the latency-amortisation shape of Bulk
  RPC (Table 2) is machine-independent and reproducible.
* :class:`~repro.net.http.HttpTransport` /
  :class:`~repro.net.http.HttpXRPCServer` — a real loopback HTTP POST
  transport, proving the protocol actually runs over HTTP/SOAP like the
  paper's SHTTPD-based implementation.  :mod:`repro.net.wire` frames
  the HTTP/1.1 subset XRPC uses on both sides; :mod:`repro.net.pool`
  keeps connections alive per peer and fans ``exchange_many`` out
  concurrently per destination.

The fault-tolerance layer stacks on top of either transport:
:mod:`repro.net.retry` (deadlines, retry/backoff, circuit breakers,
the :class:`~repro.net.retry.ResilientChannel` driver) and
:mod:`repro.net.faults` (the seeded chaos-testing wrapper).
"""

from repro.net.clock import VirtualClock, WallClock
from repro.net.cost import NetworkCostModel, PeerCostModel
from repro.net.faults import FaultInjectingTransport, FaultPlan
from repro.net.pool import ConnectionPool, PeerStats
from repro.net.retry import (NET_STATS, BreakerRegistry, ChannelRequest,
                             CircuitBreaker, Deadline, ResilientChannel,
                             RetryPolicy)
from repro.net.simulated import SimulatedNetwork
from repro.net.transport import ExchangeSpec, Transport, normalize_peer_uri
from repro.net.http import HttpTransport, HttpXRPCServer

__all__ = [
    "VirtualClock",
    "WallClock",
    "NetworkCostModel",
    "PeerCostModel",
    "ConnectionPool",
    "PeerStats",
    "SimulatedNetwork",
    "Transport",
    "ExchangeSpec",
    "normalize_peer_uri",
    "HttpTransport",
    "HttpXRPCServer",
    "NET_STATS",
    "BreakerRegistry",
    "ChannelRequest",
    "CircuitBreaker",
    "Deadline",
    "ResilientChannel",
    "RetryPolicy",
    "FaultInjectingTransport",
    "FaultPlan",
]
