"""Real HTTP transport: SOAP XRPC over loopback HTTP POST.

Mirrors the paper's deployment — an "ultra-light HTTP daemon" running
the XRPC request handler — using :mod:`http.server` from the standard
library.  Used by interop tests and the throughput benchmark to show the
protocol really is plain SOAP-over-HTTP.

This layer moves bytes.  Retry, deadlines and circuit breakers are the
:class:`~repro.net.retry.ResilientChannel`'s, one layer up; the only
retry below it is the pool's stale keep-alive connection.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

from repro.errors import FatalTransportError, TransportError
from repro.net.pool import (ConnectionPool, PeerStats,
                            dispatch_parallel_captured)
from repro.net.transport import ExchangeSpec, Transport, normalize_peer_uri
from repro.soap.messages import build_fault

Handler = Callable[[str], str]

#: The largest request body the server will read (the benchmark's
#: ``message-path`` ships 2.5 MB); a larger ``Content-Length`` is 413.
MAX_REQUEST_BYTES = 64 * 1024 * 1024


class HttpXRPCServer:
    """Serves an XRPC handler at ``POST /xrpc`` on 127.0.0.1.

    Use as a context manager::

        with HttpXRPCServer(handler) as server:
            transport = HttpTransport({"peer": server.address})
    """

    def __init__(self, handler: Handler, port: int = 0) -> None:
        self._handler = handler
        outer = self

        class _RequestHandler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # One exchange costs its work, not a timer: the stdlib's
            # default unbuffered wfile puts headers and body in two
            # segments, and with Nagle on the second waits out the
            # client's delayed ACK (~40 ms on loopback).  Buffer the
            # response (handle_one_request flushes it once) and turn
            # Nagle off on accepted sockets for bodies beyond the buffer.
            wbufsize = -1
            disable_nagle_algorithm = True

            def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
                self._reply(*self._answer())

            def _answer(self) -> tuple[int, str]:
                """HTTP status + SOAP reply; foreign input is the
                sender's fault (400), never a dead handler thread."""
                try:
                    length = int(self.headers.get("Content-Length", ""))
                    if length < 0:
                        raise ValueError(length)
                except ValueError:
                    # The body's extent is unknown, so this connection
                    # cannot carry another request.
                    self.close_connection = True
                    return 400, build_fault(
                        "env:Sender",
                        "POST needs a non-negative integer Content-Length")
                if length > MAX_REQUEST_BYTES:
                    # Refused unread: the connection cannot be reused.
                    self.close_connection = True
                    return 413, build_fault(
                        "env:Sender",
                        f"Content-Length {length} exceeds the "
                        f"{MAX_REQUEST_BYTES}-byte limit on a request")
                try:
                    payload = self.rfile.read(length).decode("utf-8")
                except UnicodeDecodeError as exc:
                    return 400, build_fault(
                        "env:Sender", f"request body is not UTF-8: {exc}")
                try:
                    return 200, outer._handler(payload)
                except Exception as exc:  # handler bugs become HTTP 500
                    return 500, build_fault("env:Receiver", str(exc))

            def _reply(self, status: int, response: str) -> None:
                body = response.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type",
                                 "application/soap+xml; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                if self.close_connection:
                    self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # silence stderr
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", port), _RequestHandler)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> "HttpXRPCServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "HttpXRPCServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _looks_like_soap(body: str) -> bool:
    """Heuristic: does an HTTP error body carry a SOAP envelope?"""
    head = body.lstrip()
    return head.startswith("<") and "Envelope" in head[:1024]


class HttpTransport(Transport):
    """Client side: maps peer keys to ``host:port`` HTTP endpoints.

    Connections are pooled per peer and kept alive across requests;
    ``exchange_many`` fans out over destination peers with one worker
    thread each, so a bulk dispatch to N peers costs ~max (not sum) of
    the per-peer latencies.  Call :meth:`close` (or use the transport as
    a context manager) to release pooled connections.
    """

    REQUEST_HEADERS = {
        "Content-Type": "application/soap+xml; charset=utf-8",
    }

    def __init__(self, endpoints: Optional[dict[str, str]] = None,
                 timeout: float = 30.0) -> None:
        # Logical peer URI/host -> "127.0.0.1:<port>".
        self._endpoints = {
            normalize_peer_uri(key): value
            for key, value in (endpoints or {}).items()
        }
        self._pool = ConnectionPool(timeout=timeout)

    def register_endpoint(self, peer_uri: str, address: str) -> None:
        self._endpoints[normalize_peer_uri(peer_uri)] = address

    def _resolve(self, destination: str) -> str:
        key = normalize_peer_uri(destination)
        return self._endpoints.get(key, key)

    def peer_stats(self, peer_uri: str) -> PeerStats:
        """Connection/traffic counters for one peer (observability)."""
        return self._pool.stats(self._resolve(peer_uri))

    def exchange(self, spec: ExchangeSpec) -> str:
        address = self._resolve(spec.destination)
        status, body = self._pool.request(
            address, "/xrpc", spec.payload.encode("utf-8"),
            headers=self.REQUEST_HEADERS, retry_safe=spec.retry_safe,
            timeout=spec.timeout)
        text = body.decode("utf-8", errors="replace")
        if status >= 400 and not _looks_like_soap(text):
            # A misconfigured endpoint (HTML 404 page, proxy error, ...)
            # is a transport failure, not a SOAP fault to be parsed —
            # and not one a retry can cure.
            summary = " ".join(text.split())[:120] or "<empty body>"
            raise FatalTransportError(
                f"HTTP {status} from http://{address}/xrpc with non-SOAP "
                f"body: {summary}")
        # SOAP faults ride on HTTP 500; surface the fault envelope.
        return text

    def exchange_many(self,
                      specs: list[ExchangeSpec]) -> list[str | TransportError]:
        """Captured per-destination fan-out (the resilient batch path)."""
        return dispatch_parallel_captured(self.exchange, specs)

    def close(self) -> None:
        self._pool.close()
