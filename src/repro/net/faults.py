"""Deterministic fault injection for chaos-testing the XRPC stack.

:class:`FaultInjectingTransport` wraps any :class:`~repro.net.transport.
Transport` (the simulated network, the HTTP transport, ...) and injects
a *seeded* schedule of network weather per exchange:

``drop``
    The request never reaches the peer (connect refused / lost on the
    wire) — surfaces as ``RetryableTransportError(request_sent=False)``.
``delay``
    Delivery works but costs extra latency first (slow peer / congested
    link): virtual clocks advance, wall clocks really sleep.
``reset``
    The peer *processes* the request but the connection resets before
    the response arrives — ``RetryableTransportError(request_sent=True)``,
    the half of the retry matrix where updating calls must not retry.
``torn``
    The response arrives truncated mid-envelope.
``garbage``
    The response is a non-SOAP byte salad (proxy error page).
``duplicate``
    A stale response from an *earlier* exchange with the same peer is
    replayed instead of the real one (duplicated/reordered delivery) —
    detectable only via the client's per-attempt exchange-id check.

Faults are drawn from one seeded RNG in exchange order, so a given
``(seed, workload)`` pair replays the identical schedule — the chaos
suite asserts query results stay byte-identical to the fault-free run
and prints the seed on failure for offline reproduction.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from repro.errors import RetryableTransportError
from repro.net.clock import VirtualClock
from repro.net.transport import ExchangeSpec, Transport, normalize_peer_uri

#: Fault kinds in draw-priority order (one draw decides per exchange).
FAULT_KINDS = ("drop", "delay", "reset", "torn", "garbage", "duplicate")


@dataclass
class FaultPlan:
    """Seeded fault schedule: independent rates per fault kind.

    ``blackhole`` destinations never answer: every exchange burns
    ``blackhole_seconds`` of (virtual or wall) time and then fails —
    the scenario circuit breakers exist for.
    """

    seed: int = 0
    drop_rate: float = 0.0
    delay_rate: float = 0.0
    reset_rate: float = 0.0
    torn_rate: float = 0.0
    garbage_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_seconds: float = 0.02
    blackhole: frozenset = field(default_factory=frozenset)
    blackhole_seconds: float = 1.0

    @classmethod
    def chaos(cls, seed: int, rate: float = 0.2) -> "FaultPlan":
        """An even mix of every fault kind totalling ``rate``."""
        share = rate / len(FAULT_KINDS)
        return cls(seed=seed, drop_rate=share, delay_rate=share,
                   reset_rate=share, torn_rate=share, garbage_rate=share,
                   duplicate_rate=share)

    def rate(self, kind: str) -> float:
        return getattr(self, f"{kind}_rate")


class FaultInjectingTransport(Transport):
    """Wraps a transport, injecting the plan's faults per exchange.

    ``injected`` counts what actually fired per kind (each also bumps
    :data:`~repro.net.retry.NET_STATS`), so tests can assert the schedule
    really exercised the retry machinery rather than passing vacuously.
    Attribute access falls through to the wrapped transport
    (``register_peer``, ``clock``, ``message_log``, ...), so the wrapper
    drops into any fixture that builds on the inner transport's API.
    ``exchange_many`` is the base class's sequential one on purpose: the
    fault draw order (and so the whole schedule) stays deterministic for
    a given seed.
    """

    def __init__(self, inner: Transport, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._lock = threading.Lock()
        self._last_response: dict[str, str] = {}
        self.injected: dict[str, int] = dict.fromkeys(
            FAULT_KINDS + ("blackhole",), 0)

    # -- fault schedule ---------------------------------------------------

    def _draw(self) -> str | None:
        """One seeded uniform draw -> the fault kind for this exchange."""
        with self._lock:
            roll = self._rng.random()
        cumulative = 0.0
        for kind in FAULT_KINDS:
            cumulative += self.plan.rate(kind)
            if roll < cumulative:
                return kind
        return None

    def _count(self, kind: str) -> None:
        from repro.net.retry import NET_STATS
        with self._lock:
            self.injected[kind] += 1
        NET_STATS.bump("faults_injected")

    def _elapse(self, seconds: float) -> None:
        clock = getattr(self.inner, "clock", None)
        if isinstance(clock, VirtualClock):
            clock.advance(seconds)
        else:  # pragma: no cover - wall-clock runs keep delays tiny
            time.sleep(seconds)

    # -- transport API ----------------------------------------------------

    def exchange(self, spec: ExchangeSpec) -> str:
        key = normalize_peer_uri(spec.destination)
        if key in self.plan.blackhole:
            self._count("blackhole")
            self._elapse(self.plan.blackhole_seconds)
            raise RetryableTransportError(
                f"injected fault: {key!r} blackholed (request timed out)",
                request_sent=True)
        fault = self._draw()
        if fault == "drop":
            self._count("drop")
            raise RetryableTransportError(
                f"injected fault: request to {key!r} dropped before "
                f"delivery", request_sent=False)
        if fault == "duplicate":
            stale = self._last_response.get(key)
            if stale is not None:
                self._count("duplicate")
                return stale
            fault = None  # nothing to replay yet: deliver normally
        if fault == "delay":
            self._count("delay")
            self._elapse(self.plan.delay_seconds)
        response = self.inner.exchange(spec)
        self._last_response[key] = response
        if fault == "reset":
            # The handler ran — the peer may have applied the call — but
            # the response is lost on the way back.
            self._count("reset")
            raise RetryableTransportError(
                f"injected fault: connection to {key!r} reset "
                f"mid-response", request_sent=True)
        if fault == "torn":
            self._count("torn")
            return response[:max(1, len(response) // 2)]
        if fault == "garbage":
            self._count("garbage")
            return "<html><body>502 Bad Gateway</body></html>"
        return response

    def close(self) -> None:
        self.inner.close()

    def __getattr__(self, name: str):
        # Everything else (register_peer, clock, cost_model, stats, ...)
        # belongs to the wrapped transport.
        return getattr(self.inner, name)
