"""Keep-alive HTTP connection pooling and concurrent dispatch.

The paper's throughput analysis (section 3.3) shows XRPC is CPU-bound on
a fast LAN — which makes per-request TCP connection setup pure waste —
and section 3.2 requires Bulk RPC requests to distinct peers to be
dispatched *in parallel*.  This module supplies both halves for the real
HTTP transport:

* :class:`ConnectionPool` — persistent ``http.client`` connections per
  peer address, checked out/in under a lock, with per-peer
  :class:`PeerStats` counters and a one-shot retry when a kept-alive
  connection turns out to be stale;
* :func:`dispatch_parallel_captured` — per-destination fan-out:
  exchanges to distinct destinations run on concurrent threads while
  exchanges to the same destination stay sequential (keeping them on
  one connection).

Failing fast on a peer known to be down is not decided here: the one
circuit-breaker layer is :class:`~repro.net.retry.ResilientChannel`.
"""

from __future__ import annotations

import http.client
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

from repro.errors import (FatalTransportError, RetryableTransportError,
                          TransportError)
from repro.net.transport import ExchangeSpec, normalize_peer_uri
from repro.obs import Scope, absorb

#: Idle keep-alive connections kept per peer address; a surplus one is
#: closed at check-in.
MAX_IDLE_PER_PEER = 8


def _split_address(address: str) -> tuple[str, int]:
    """``host``, ``host:port``, ``[v6]`` or ``[v6]:port`` -> (host, port)."""
    if address.startswith("["):
        host, _, rest = address[1:].partition("]")
        port = rest.lstrip(":")
    elif address.count(":") == 1:
        host, _, port = address.partition(":")
    else:  # bare host name or bare IPv6 literal
        host, port = address, ""
    try:
        return host, int(port) if port else 80
    except ValueError:
        raise FatalTransportError(
            f"invalid peer address {address!r}") from None


@dataclass
class PeerStats:
    """Connection/traffic counters for one peer address."""

    requests: int = 0
    connections_opened: int = 0
    connections_reused: int = 0
    retries: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0


class ConnectionPool:
    """Thread-safe pool of keep-alive HTTP connections, keyed by address.

    ``request`` checks a connection out, performs one POST exchange, and
    returns the connection to the idle list when the server kept the
    connection open.  A request that fails on a *reused* connection is
    retried once on a fresh one — the server may legitimately have
    closed an idle keep-alive connection between exchanges.
    """

    def __init__(self, timeout: float = 30.0) -> None:
        self._timeout = timeout
        self._lock = threading.Lock()
        self._idle: dict[str, list[http.client.HTTPConnection]] = {}
        self._stats: dict[str, PeerStats] = {}
        self._closed = False

    def stats(self, address: str) -> PeerStats:
        with self._lock:
            return self._stats.setdefault(address, PeerStats())

    def _checkout(self, address: str,
                  timeout: float) -> tuple[http.client.HTTPConnection, bool]:
        with self._lock:
            if self._closed:
                raise FatalTransportError("connection pool is closed")
            stats = self._stats.setdefault(address, PeerStats())
            idle = self._idle.get(address)
            if idle:
                stats.connections_reused += 1
                return idle.pop(), True
            stats.connections_opened += 1
        host, port = _split_address(address)
        return http.client.HTTPConnection(
            host, port, timeout=timeout), False

    def _checkin(self, address: str,
                 connection: http.client.HTTPConnection,
                 reusable: bool) -> None:
        if reusable:
            with self._lock:
                if not self._closed:
                    idle = self._idle.setdefault(address, [])
                    if len(idle) < MAX_IDLE_PER_PEER:
                        idle.append(connection)
                        return
        connection.close()

    def request(self, address: str, path: str, body: bytes,
                headers: dict[str, str],
                retry_safe: bool = True,
                timeout: float | None = None) -> tuple[int, bytes]:
        """One POST exchange; returns ``(status, response body)``.

        ``retry_safe=False`` marks a non-idempotent exchange (an updating
        RPC): it is still retried when the failure happened while
        *sending* on a stale kept-alive connection — the request cannot
        have executed — but never after the request went out, since the
        server may already have applied it.

        ``timeout`` is the exchange's remaining deadline budget: the
        socket timeout becomes ``min(timeout, pool default)`` so a
        doomed request cannot outlive its query.
        """
        effective = (self._timeout if timeout is None
                     else min(timeout, self._timeout))
        retried = False
        while True:
            connection, reused = self._checkout(address, effective)
            if reused and connection.sock is not None:
                # A kept-alive socket still carries the previous
                # exchange's timeout; re-arm it with this one's budget.
                connection.sock.settimeout(effective)
            sent = False
            try:
                connection.request("POST", path, body=body, headers=headers)
                sent = True
                response = connection.getresponse()
                payload = response.read()
            except (http.client.HTTPException, OSError) as exc:
                connection.close()
                if reused and not retried and (retry_safe or not sent):
                    # Stale keep-alive connection (the server closed it
                    # between exchanges): retry once on a fresh one.
                    retried = True
                    with self._lock:
                        self._stats[address].retries += 1
                    continue
                raise RetryableTransportError(
                    f"cannot reach http://{address}{path}: {exc}",
                    request_sent=sent) from exc
            except BaseException:
                # Any other failure (handler bug, cancellation, ...):
                # the connection's protocol state is unknown — close and
                # drop it rather than ever returning it to the idle
                # pool, where it would poison a later exchange.
                connection.close()
                raise
            with self._lock:
                stats = self._stats[address]
                stats.requests += 1
                stats.bytes_sent += len(body)
                stats.bytes_received += len(payload)
            self._checkin(address, connection,
                          reusable=not response.will_close)
            return response.status, payload

    def close(self) -> None:
        """Close every idle connection and refuse further checkouts."""
        with self._lock:
            self._closed = True
            connections = [connection for idle in self._idle.values()
                           for connection in idle]
            self._idle.clear()
        for connection in connections:
            connection.close()


def group_by_destination(specs: list[ExchangeSpec]) -> dict[str, list[int]]:
    """Spec indexes per destination peer (normalized), input order.

    The single grouping rule both the real thread fan-out and the
    simulated network's virtual-time branches dispatch by.
    """
    branches: dict[str, list[int]] = {}
    for index, spec in enumerate(specs):
        branches.setdefault(
            normalize_peer_uri(spec.destination), []).append(index)
    return branches


def dispatch_parallel_captured(
        exchange: Callable[[ExchangeSpec], str],
        specs: list[ExchangeSpec]) -> list["str | TransportError"]:
    """Per-destination fan-out of specs, capturing per-entry failures.

    One worker thread per distinct destination peer, each sending its
    destination's specs sequentially in input order (keeping them on
    one connection); results come back in input order.  One entry's
    :class:`TransportError` lands in its own result slot instead of
    aborting the whole fan-out — the resilience layer above retries or
    degrades peers independently.  Non-transport exceptions still
    propagate (they are bugs, not network weather).

    This is the one place work crosses threads on behalf of an
    execution: each branch runs under a :class:`~repro.obs.Scope` of
    its own, absorbed into the issuing thread's scope at join.
    """
    if not specs:
        return []
    branches = group_by_destination(specs)
    results: list = [None] * len(specs)

    def run_branch(indexes: list[int]) -> Scope:
        with Scope() as scope:
            for index in indexes:
                try:
                    results[index] = exchange(specs[index])
                except TransportError as exc:
                    results[index] = exc
        return scope

    if len(branches) == 1:
        absorb(run_branch(next(iter(branches.values()))))
        return results
    with ThreadPoolExecutor(max_workers=len(branches)) as executor:
        futures = [executor.submit(run_branch, indexes)
                   for indexes in branches.values()]
        for future in futures:
            absorb(future.result())
    return results
