"""Real HTTP transport: SOAP XRPC over loopback HTTP POST.

Mirrors the paper's deployment — an "ultra-light HTTP daemon" running
the XRPC request handler — over the HTTP/1.1 subset that
:mod:`repro.net.wire` frames; ``curl`` and the standard library's
``http.client`` talk to the server.  Used by interop tests and the
throughput benchmark to show the protocol really is plain SOAP-over-HTTP.

This layer moves bytes.  Retry, deadlines and circuit breakers are the
:class:`~repro.net.retry.ResilientChannel`'s, one layer up; the only
retry below it is the pool's stale keep-alive connection.
"""

from __future__ import annotations

import contextlib
import socket
import threading
from http import HTTPStatus
from typing import Callable, Optional

from repro.errors import FatalTransportError, TransportError
from repro.net.pool import (ConnectionPool, PeerStats,
                            dispatch_parallel_captured)
from repro.net.transport import ExchangeSpec, Transport, normalize_peer_uri
from repro.net.wire import Connection, FramingError, content_length, keep_alive
from repro.soap.messages import build_fault

Handler = Callable[[str], str]

#: The largest request body the server will read (the benchmark's
#: ``message-path`` ships 2.5 MB); a larger ``Content-Length`` is 413.
MAX_REQUEST_BYTES = 64 * 1024 * 1024

SOAP_CONTENT_TYPE = "application/soap+xml; charset=utf-8"


class HttpXRPCServer:
    """Serves an XRPC handler at ``POST /xrpc`` on 127.0.0.1, one thread
    per accepted connection.

    Answers: 200 with the handler's reply; 500 with an ``env:Receiver``
    fault when the handler raises; 400 with an ``env:Sender`` fault for
    a body that is not UTF-8, and — closing the connection, as the next
    request's start is unknown — for a missing or malformed
    ``Content-Length`` or header block; 405 for a method other than
    POST; 413, body unread, above :data:`MAX_REQUEST_BYTES`; 431 for a
    header block over its bounds.

    Use as a context manager::

        with HttpXRPCServer(handler) as server:
            transport = HttpTransport({"peer": server.address})
    """

    def __init__(self, handler: Handler, port: int = 0) -> None:
        self._handler = handler
        self._listener = socket.create_server(("127.0.0.1", port))
        self._lock = threading.Lock()
        self._live: dict[Connection, threading.Thread] = {}
        self._thread: Optional[threading.Thread] = None
        self._stopping = False

    @property
    def address(self) -> str:
        host, port = self._listener.getsockname()[:2]
        return f"{host}:{port}"

    def start(self) -> "HttpXRPCServer":
        self._thread = threading.Thread(
            target=self._accept, name="xrpc-http-accept", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, end every connection's thread, and return
        when they are gone: a request in flight is answered first."""
        self._stopping = True
        with contextlib.suppress(OSError):  # not listening any more
            self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._listener.close()
        with self._lock:
            live = dict(self._live)
        for connection in live:
            # Ends a wait for the next request; a reply still goes out.
            with contextlib.suppress(OSError):  # the thread closed it
                connection.sock.shutdown(socket.SHUT_RD)
        for thread in live.values():
            thread.join(timeout=5)

    def __enter__(self) -> "HttpXRPCServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _accept(self) -> None:
        while not self._stopping:
            try:
                connection = Connection(self._listener.accept()[0])
            except OSError:
                continue  # the loop ends once stop() shut the listener
            thread = threading.Thread(target=self._serve, args=(connection,),
                                      name="xrpc-http-connection",
                                      daemon=True)
            with self._lock:
                self._live[connection] = thread
            thread.start()

    def _serve(self, connection: Connection) -> None:
        """Answer requests on one connection until either side closes."""
        try:
            while self._exchange(connection):
                pass
        except OSError:
            pass  # the client went away
        finally:
            connection.close()
            with self._lock:
                del self._live[connection]

    def _exchange(self, connection: Connection) -> bool:
        """Answer one request; ``False`` when the connection must end.
        (Its own frame, so no reply outlives its exchange.)"""
        try:
            head = connection.read_head()
            if head is None:
                return False
            status, reply, keep = self._answer(connection, *head)
        except FramingError as exc:
            status, reply, keep = (
                exc.status, build_fault("env:Sender", str(exc)), False)
        body = reply.encode("utf-8")
        fields = {"Content-Type": SOAP_CONTENT_TYPE,
                  "Content-Length": str(len(body))}
        if not keep:
            fields["Connection"] = "close"
        connection.send(f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
                        fields, body)
        return keep

    def _answer(self, connection: Connection, start_line: str,
                fields: dict[str, str]) -> tuple[int, str, bool]:
        """HTTP status, SOAP reply and keep-alive for one request.  Foreign
        input is the sender's fault, never a dead handler thread."""
        method, _, rest = start_line.partition(" ")
        if method != "POST":
            raise FramingError(f"XRPC is served by POST, not {method[:20]!r}",
                               405)
        length = content_length(fields)
        if length > MAX_REQUEST_BYTES:
            raise FramingError(
                f"Content-Length {length} exceeds the "
                f"{MAX_REQUEST_BYTES}-byte limit on a request", 413)
        if fields.get("expect", "").lower() == "100-continue":
            connection.send("HTTP/1.1 100 Continue", {})
        keep = keep_alive(rest.rpartition(" ")[2], fields)
        try:
            payload = connection.read_exactly(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            return 400, build_fault(
                "env:Sender", f"request body is not UTF-8: {exc}"), keep
        try:
            return 200, self._handler(payload), keep
        except Exception as exc:  # handler bugs become HTTP 500
            return 500, build_fault("env:Receiver", str(exc)), keep


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

    REQUEST_HEADERS = {"Content-Type": SOAP_CONTENT_TYPE}

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
