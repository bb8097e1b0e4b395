"""Deterministic simulated network with a virtual clock.

Each registered peer is a handler function; :meth:`SimulatedNetwork.send`
charges the transfer cost of the request, lets the handler run (handlers
charge their own CPU costs against the same clock), then charges the
transfer cost of the response.  ``exchange_many`` models the paper's
parallel dispatch of Bulk RPC requests to multiple peers: the clock
advances by the *maximum* branch time, not the sum.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import FatalTransportError, TransportError
from repro.net.clock import VirtualClock
from repro.net.cost import NetworkCostModel
from repro.net.pool import group_by_destination
from repro.net.transport import ExchangeSpec, Transport, normalize_peer_uri

Handler = Callable[[str], str]


class SimulatedNetwork(Transport):
    """In-process message bus between peers sharing one virtual clock."""

    def __init__(self, cost_model: NetworkCostModel | None = None,
                 clock: VirtualClock | None = None) -> None:
        self.clock = clock or VirtualClock()
        self.cost_model = cost_model or NetworkCostModel()
        self._handlers: dict[str, Handler] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        # Per-message log: (destination key, request bytes, response bytes).
        self.message_log: list[tuple[str, int, int]] = []

    def register_peer(self, uri: str, handler: Handler) -> None:
        """Attach a peer's request handler under its host key."""
        self._handlers[normalize_peer_uri(uri)] = handler

    def exchange(self, spec: ExchangeSpec) -> str:
        destination, payload = spec.destination, spec.payload
        key = normalize_peer_uri(destination)
        handler = self._handlers.get(key)
        if handler is None:
            # A peer that simply does not exist is a configuration
            # error: no amount of retrying will register it.
            raise FatalTransportError(
                f"no peer registered at {destination!r} (key {key!r})")
        self.messages_sent += 1
        request_bytes = len(payload.encode("utf-8"))
        self.bytes_sent += request_bytes
        self.clock.advance(self.cost_model.transfer_seconds(request_bytes))
        response = handler(payload)
        response_bytes = len(response.encode("utf-8"))
        self.bytes_received += response_bytes
        self.message_log.append((key, request_bytes, response_bytes))
        self.clock.advance(self.cost_model.transfer_seconds(response_bytes))
        return response

    def exchange_many(self,
                      specs: list[ExchangeSpec]) -> list[str | TransportError]:
        """Parallel dispatch: total time = max of the branch times.

        Mirrors :func:`repro.net.pool.dispatch_parallel_captured`'s
        shape in virtual time: one branch per distinct destination
        peer, specs to the same destination sequential within their
        branch (they share one connection in the real transport),
        branches overlapped so the clock advances by the slowest branch
        only.  Branch failures fill their own slots (and still charge
        their branch's virtual time).
        """
        if not specs:
            return []
        branches = group_by_destination(specs)
        start = self.clock.now()
        results: list = [None] * len(specs)
        end_times: list[float] = []
        for indexes in branches.values():
            # Rewind to the common start for each branch, then record
            # how far this branch pushed the clock.
            self._rewind(start)
            for index in indexes:
                try:
                    results[index] = self.exchange(specs[index])
                except TransportError as exc:
                    results[index] = exc
            end_times.append(self.clock.now())
        self._rewind(start)
        self.clock.advance(max(end_times) - start)
        return results

    def _rewind(self, timestamp: float) -> None:
        # VirtualClock forbids moving backwards through its public API to
        # catch accidental misuse; parallel simulation legitimately forks
        # the timeline, so poke the internal field deliberately.
        self.clock._now = timestamp

    def reset_stats(self) -> None:
        self.messages_sent = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.message_log.clear()
