"""XRPC client: the "message sender API" + generated stub behaviour.

A :class:`ClientSession` lives for one query: it stamps every outgoing
request with the query's queryID (when repeatable-read isolation is on),
counts messages, and accumulates the participating-peer set piggybacked
on responses — which the originating peer later registers with the 2PC
coordinator.

Fault tolerance: every exchange goes through the session's
:class:`~repro.net.retry.ResilientChannel` — the owning peer's shared
one, or a private ``ResilientChannel(transport)`` when none is handed
in — and so through the retry/breaker/deadline policy.  Each *attempt*
carries a fresh exchange id (echoed by the server, so a stale duplicated
response is detected rather than trusted) and the deadline's current
remaining budget in the SOAP header.  Whether an exchange is
``retry_safe`` is the explicit ``updating`` verdict threaded from the
caller — the static analyzer's updating-ness result — never a sniff of
the payload text.  Under the partial-results policy (``degrade=True``) a
read-only request whose transport failed terminally answers empty calls
and names its peer in ``failed_peers``; an updating request, and any
SOAP fault, still raises.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.errors import (RetryableTransportError, TransportError, XRPCFault,
                          XRPCReproError)
from repro.net.retry import (NET_STATS, ChannelRequest, Deadline,
                             ResilientChannel)
from repro.net.transport import Transport, normalize_peer_uri
from repro.soap.messages import (
    Arguments,
    QueryID,
    TxnCommand,
    TxnResult,
    XRPCFaultMessage,
    XRPCRequest,
    XRPCResponse,
    build_request,
    build_txn_command,
    parse_message,
)

#: Process-wide exchange-id source.  Ids must be unique across sessions
#: (a stale response cached by the network could otherwise collide with
#: a later session's expectation), cheap, and free of wall-clock reads.
_EXCHANGE_IDS = itertools.count(1)


def _next_exchange_id(origin: str) -> str:
    return f"{origin}-{next(_EXCHANGE_IDS)}"


class ClientSession:
    """Per-query XRPC client state."""

    def __init__(self, transport: Transport, origin: str,
                 query_id: Optional[QueryID] = None,
                 channel: Optional[ResilientChannel] = None,
                 deadline: Optional[Deadline] = None,
                 degrade: bool = False) -> None:
        self.origin = origin
        self.query_id = query_id
        self.channel = channel or ResilientChannel(transport)
        self.deadline = deadline
        self.degrade = degrade
        self.participants: list[str] = []
        # Peers skipped under the partial-results policy, normalized,
        # in first-failure order (the query's degraded-result report).
        self.failed_peers: list[str] = []
        self.messages_sent = 0
        self.calls_shipped = 0

    def _record_participants(self, destination: str,
                             piggybacked: list[str]) -> None:
        for peer in [normalize_peer_uri(destination), *piggybacked]:
            if peer not in self.participants and peer != self.origin:
                self.participants.append(peer)

    def peer_degraded(self, destination: str) -> None:
        """Count one peer skipped under the partial-results policy.

        Idempotent per peer and query: a site that fails several bulk
        groups is one degraded peer, not several.
        """
        key = normalize_peer_uri(destination)
        if key not in self.failed_peers:
            self.failed_peers.append(key)
            NET_STATS.bump("degraded_peers")

    # -- response decoding --------------------------------------------------

    def _decode(self, raw: str, expected_id: str, destination: str):
        """Parse one reply, converting undecodable or mis-correlated
        bytes into retryable transport failures.

        Torn bodies, garbage SOAP, and stale duplicated responses all
        reach here as *strings* — only the per-attempt exchange-id echo
        (and well-formedness) separates them from the real answer.  They
        classify as ``request_sent=True``: the peer may have processed
        the request even though its answer never usably arrived.

        A response carrying *no* id comes from a server that does not
        implement the echo (e.g. a wrapped third-party engine building
        its envelope in XQuery) and is accepted as-is — duplicate
        detection needs both sides to play.
        """
        try:
            message = parse_message(raw)
        except XRPCReproError as exc:
            raise RetryableTransportError(
                f"undecodable response from {destination!r}: {exc}",
                request_sent=True) from exc
        if message.exchange_id is not None \
                and message.exchange_id != expected_id:
            raise RetryableTransportError(
                f"response from {destination!r} answers exchange "
                f"{message.exchange_id!r}, expected {expected_id!r} "
                f"(stale duplicate)", request_sent=True)
        return message

    @staticmethod
    def _extract_results(message, calls: Arguments,
                         updating: bool) -> list[list]:
        """Per-call result sequences from a decoded reply message."""
        if isinstance(message, XRPCFaultMessage):
            message.raise_()
        if not isinstance(message, XRPCResponse):
            raise XRPCFault("env:Receiver",
                            "expected an XRPC response message")
        per_call = message.results
        if len(per_call) != len(calls):
            if updating and not per_call:
                # An updating response may legitimately omit the (all
                # empty) result sequences altogether.
                return [[] for _ in range(len(calls))]
            raise XRPCFault(
                "env:Receiver",
                f"bulk response carries {len(per_call)} results "
                f"for {len(calls)} calls")
        return per_call

    def _entry(self, destination: str, module_uri: str,
               location: Optional[str], function: str, arity: int,
               calls: Arguments, updating: bool) -> ChannelRequest:
        """One (possibly bulk) request as a resilient exchange, counted:
        fresh exchange id + remaining budget per attempt."""
        request = XRPCRequest(
            module=module_uri, method=function, arity=arity,
            location=location, query_id=self.query_id, updating=updating)
        request.arguments = calls
        self.messages_sent += 1
        self.calls_shipped += len(calls)

        def build(attempt: int, remaining: Optional[float]) -> str:
            request.exchange_id = _next_exchange_id(self.origin)
            request.deadline_remaining = remaining
            return build_request(request)

        def parse(raw: str):
            message = self._decode(raw, request.exchange_id, destination)
            per_call = self._extract_results(message, calls, updating)
            self._record_participants(destination,
                                      message.participating_peers)
            return per_call

        return ChannelRequest(destination, build, parse,
                              retry_safe=not updating)

    # -- calls ------------------------------------------------------------------

    def call(self, destination: str, module_uri: str, location: Optional[str],
             function: str, arity: int, calls: Arguments,
             updating: bool = False) -> list[list]:
        """Send one (possibly bulk) request; returns one sequence per call.

        ``calls`` holds the calls column by column (:class:`Arguments`;
        ``Arguments.of`` builds it from per-call parameter lists).
        """
        entry = self._entry(destination, module_uri, location, function,
                            arity, calls, updating)
        try:
            return self.channel.exchange(
                destination, entry.build, entry.parse,
                retry_safe=entry.retry_safe, deadline=self.deadline)
        except TransportError as failure:
            return self._unreachable(destination, calls, updating, failure)

    def call_parallel(self, grouped: list[tuple[str, str, Optional[str], str,
                                                int, Arguments, bool]],
                      ) -> list:
        """Dispatch several bulk requests to different peers in parallel.

        Each entry is ``(destination, module_uri, location, function,
        arity, calls, updating)``.  Returns the per-request result lists
        in input order.  Under ``degrade`` one unreachable peer does not
        fail the other requests.
        """
        results = self.channel.exchange_many(
            [self._entry(*group) for group in grouped],
            deadline=self.deadline, capture=self.degrade)
        return [self._unreachable(group[0], group[5], group[6], result)
                if isinstance(result, TransportError) else result
                for group, result in zip(grouped, results)]

    def _unreachable(self, destination: str, calls: Arguments,
                     updating: bool, failure: TransportError) -> list[list]:
        """A request whose transport failed terminally: under
        ``degrade`` a read-only one answers every call empty and its
        peer is reported degraded; otherwise *failure* raises — a
        skipped update is a wrong answer, not a degraded one."""
        if updating or not self.degrade:
            raise failure
        self.peer_degraded(destination)
        return [[] for _ in range(len(calls))]

    # -- 2PC driver side ---------------------------------------------------------

    def send_txn_command(self, destination: str, kind: str) -> TxnResult:
        if self.query_id is None:
            raise XRPCFault("env:Sender",
                            "transaction commands require a queryID")
        command = TxnCommand(kind, self.query_id)
        self.messages_sent += 1

        def build(attempt: int, remaining: Optional[float]) -> str:
            command.exchange_id = _next_exchange_id(self.origin)
            command.deadline_remaining = remaining
            return build_txn_command(command)

        def parse(raw: str) -> TxnResult:
            message = self._decode(raw, command.exchange_id, destination)
            return self._txn_reply(message, kind)

        # Participant operations are idempotent on the server side
        # (prepare re-entry is a no-op, commit/rollback replays are
        # answered from the decision log), so retrying them is safe.
        return self.channel.exchange(
            destination, build, parse, retry_safe=True,
            deadline=self.deadline)

    @staticmethod
    def _txn_reply(message, kind: str) -> TxnResult:
        if isinstance(message, TxnResult):
            if message.kind != kind:
                raise XRPCFault(
                    "env:Receiver",
                    f"txn reply answers {message.kind!r}, expected {kind!r}")
            return message
        if isinstance(message, XRPCFaultMessage):
            return TxnResult(kind=kind, ok=False, detail=message.reason)
        raise XRPCFault("env:Receiver", "unexpected reply to txn command")
