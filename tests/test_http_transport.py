"""Real loopback HTTP transport tests: SOAP XRPC over actual sockets."""

import http.client
import socket

import pytest

from repro.engine import TreeEngine
from repro.errors import TransportError, XRPCFault
from repro.net import HttpTransport, HttpXRPCServer
from repro.net.http import MAX_REQUEST_BYTES
from repro.net.transport import ExchangeSpec, normalize_peer_uri
from repro.rpc import XRPCPeer
from repro.soap import XRPCRequest, build_request, parse_response
from repro.wrapper import XRPCWrapper
from repro.xdm.atomic import integer
from tests.helpers import values

ECHO_MODULE = """
module namespace m = "urn:echo";
declare function m:double($x as xs:integer) as xs:integer { $x * 2 };
"""


class TestNormalizePeerUri:
    @pytest.mark.parametrize("uri,expected", [
        ("xrpc://y.example.org", "y.example.org"),
        ("xrpc://y.example.org:8080/db", "y.example.org:8080"),
        ("xrpc://host/", "host"),
        ("http://host:99/x", "host:99"),
        ("bare-host", "bare-host"),
        ("xrpc://", "localhost"),
    ])
    def test_normalization(self, uri, expected):
        assert normalize_peer_uri(uri) == expected


class TestHttpRoundTrip:
    def test_request_response_over_http(self):
        wrapper = XRPCWrapper(engine=TreeEngine())
        wrapper.engine.registry.register_source(ECHO_MODULE, location="e.xq")
        with HttpXRPCServer(wrapper.handle) as server:
            transport = HttpTransport({"peer": server.address})
            request = XRPCRequest(module="urn:echo", method="double",
                                  arity=1, location="e.xq")
            request.add_call([[integer(21)]])
            raw = transport.send("xrpc://peer", build_request(request))
            response = parse_response(raw)
            assert response.results == [[integer(42)]]

    def test_bulk_over_http(self):
        wrapper = XRPCWrapper(engine=TreeEngine())
        wrapper.engine.registry.register_source(ECHO_MODULE, location="e.xq")
        with HttpXRPCServer(wrapper.handle) as server:
            transport = HttpTransport({"peer": server.address})
            request = XRPCRequest(module="urn:echo", method="double",
                                  arity=1, location="e.xq")
            for value in (1, 2, 3):
                request.add_call([[integer(value)]])
            response = parse_response(
                transport.send("peer", build_request(request)))
            assert response.results == [[integer(2)], [integer(4)], [integer(6)]]

    def test_fault_over_http(self):
        wrapper = XRPCWrapper(engine=TreeEngine())  # no modules registered
        with HttpXRPCServer(wrapper.handle) as server:
            transport = HttpTransport({"peer": server.address})
            request = XRPCRequest(module="ghost", method="f", arity=0)
            request.add_call([])
            raw = transport.send("peer", build_request(request))
            with pytest.raises(XRPCFault):
                parse_response(raw)

    def test_unreachable_peer(self):
        transport = HttpTransport({"peer": "127.0.0.1:1"})  # closed port
        with pytest.raises(TransportError):
            transport.send("peer", "<x/>")

    def test_keep_alive_connection_reuse(self):
        """Repeated sends to one peer ride a single pooled connection."""
        wrapper = XRPCWrapper(engine=TreeEngine())
        wrapper.engine.registry.register_source(ECHO_MODULE, location="e.xq")
        with HttpXRPCServer(wrapper.handle) as server:
            with HttpTransport({"peer": server.address}) as transport:
                request = XRPCRequest(module="urn:echo", method="double",
                                      arity=1, location="e.xq")
                request.add_call([[integer(3)]])
                payload = build_request(request)
                for _ in range(5):
                    parse_response(transport.send("peer", payload))
                stats = transport.peer_stats("peer")
                assert stats.requests == 5
                assert stats.connections_opened == 1
                assert stats.connections_reused == 4
                assert stats.bytes_sent > 0 and stats.bytes_received > 0

    def test_closed_transport_refuses_sends(self):
        transport = HttpTransport({"peer": "127.0.0.1:1"})
        transport.close()
        with pytest.raises(TransportError, match="closed"):
            transport.send("peer", "<x/>")

    def test_non_soap_error_body_raises_transport_error(self):
        """An HTML 404 from a misconfigured endpoint must surface as a
        TransportError, not propagate as an XML parse error."""
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
        import threading

        class NotFoundHandler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", "0")))
                body = (b"<!DOCTYPE html><html><body>"
                        b"<h1>404 Not Found</h1></body></html>")
                self.send_response(404)
                self.send_header("Content-Type", "text/html")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), NotFoundHandler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = httpd.server_address[:2]
            with HttpTransport({"peer": f"{host}:{port}"}) as transport:
                with pytest.raises(TransportError, match="non-SOAP"):
                    transport.send("peer", "<x/>")
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5)

    def test_full_peer_query_over_http(self):
        """An XRPCPeer originating a distributed query over real HTTP."""
        serving_peer_transport = HttpTransport()
        serving = XRPCPeer("served", serving_peer_transport)
        serving.registry.register_source(ECHO_MODULE, location="e.xq")
        with HttpXRPCServer(serving.server.handle) as server:
            transport = HttpTransport({"served": server.address})
            origin = XRPCPeer("origin", transport)
            origin.registry.register_source(ECHO_MODULE, location="e.xq")
            result = origin.execute_query("""
            import module namespace m = "urn:echo" at "e.xq";
            for $i in (1 to 5)
            return execute at {"xrpc://served"} { m:double($i) }
            """)
            assert values(result.sequence) == [2, 4, 6, 8, 10]
            assert result.messages_sent == 1  # bulk over one HTTP POST


class TestConcurrentParallelDispatch:
    """True thread fan-out of exchange_many over real HTTP peers."""

    def _fleet(self, count, delay=0.0):
        """Start ``count`` echo peers; returns (transport, servers)."""
        import time

        servers = []
        transport = HttpTransport()
        for index in range(count):
            peer = XRPCPeer(f"peer{index}", HttpTransport())
            peer.registry.register_source(ECHO_MODULE, location="e.xq")
            handler = peer.server.handle
            if delay:
                handler = (lambda inner: lambda payload:
                           (time.sleep(delay), inner(payload))[1])(handler)
            server = HttpXRPCServer(handler).start()
            servers.append(server)
            transport.register_endpoint(f"peer{index}", server.address)
        return transport, servers

    def _request_payload(self, value):
        request = XRPCRequest(module="urn:echo", method="double",
                              arity=1, location="e.xq")
        request.add_call([[integer(value)]])
        return build_request(request)

    def test_parallel_faster_than_sum(self):
        import time

        delay = 0.12
        transport, servers = self._fleet(3, delay=delay)
        try:
            requests = [ExchangeSpec(f"peer{i}", self._request_payload(i))
                        for i in range(3)]
            started = time.perf_counter()
            raw = transport.exchange_many(requests)
            elapsed = time.perf_counter() - started
            assert [parse_response(r).results for r in raw] == \
                [[[integer(2 * i)]] for i in range(3)]
            # Concurrent: ~max of the branch delays, not 3 * delay.
            assert elapsed < 2 * delay
        finally:
            transport.close()
            for server in servers:
                server.stop()

    def test_parallel_fault_tolerance(self):
        """One peer faulting must not poison the other branches."""
        from repro.rpc.client import ClientSession

        transport, servers = self._fleet(2)
        # A third peer with no modules: its branch returns a SOAP fault.
        broken = XRPCPeer("broken", HttpTransport())
        broken_server = HttpXRPCServer(broken.server.handle).start()
        transport.register_endpoint("broken", broken_server.address)
        try:
            session = ClientSession(transport, origin="p0")
            results = session.call_parallel(
                [("peer0", "urn:echo", "e.xq", "double", 1,
                  [[[integer(1)]]], False),
                 ("broken", "urn:ghost", None, "nope", 0, [[]], False),
                 ("peer1", "urn:echo", "e.xq", "double", 1,
                  [[[integer(2)]]], False)],
                tolerate_faults=True)
            assert results[0] == [[integer(2)]]
            assert results[1] is None
            assert results[2] == [[integer(4)]]
        finally:
            transport.close()
            broken_server.stop()
            for server in servers:
                server.stop()

    def test_parallel_same_destination_stays_ordered(self):
        transport, servers = self._fleet(1)
        try:
            requests = [ExchangeSpec("peer0", self._request_payload(i))
                        for i in range(4)]
            raw = transport.exchange_many(requests)
            assert [parse_response(r).results for r in raw] == \
                [[[integer(2 * i)]] for i in range(4)]
            stats = transport.peer_stats("peer0")
            assert stats.requests == 4
            assert stats.connections_opened == 1  # all on one connection
        finally:
            transport.close()
            for server in servers:
                server.stop()


class _CountingSocket(socket.socket):
    """An accepted socket that records the size of every send."""

    def send(self, data, *args):
        self.sends.append(len(data))
        return super().send(data, *args)

    def sendall(self, data, *args):
        self.sends.append(len(data))
        return super().sendall(data, *args)


def _count_sends(server):
    """Make *server* (not yet started) hand its handler threads
    :class:`_CountingSocket` connections; returns the list they are
    collected in, in accept order."""
    accepted = []
    httpd = server._server
    accept = httpd.get_request

    def get_request():
        connection, address = accept()
        counting = _CountingSocket(connection.family, connection.type,
                                   connection.proto,
                                   fileno=connection.detach())
        counting.sends = []
        accepted.append(counting)
        return counting, address

    httpd.get_request = get_request
    return accepted


def _raw_exchange(connection, request: bytes):
    """Write *request* on a raw socket, read one HTTP response."""
    connection.sendall(request)
    response = http.client.HTTPResponse(connection)
    response.begin()
    return response, response.read().decode("utf-8")


def _post(body: bytes) -> bytes:
    return (b"POST /xrpc HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body)


def _double_payload(value: int) -> str:
    """An ``m:double(value)`` request for a peer serving ECHO_MODULE."""
    request = XRPCRequest(module="urn:echo", method="double",
                          arity=1, location="e.xq")
    request.add_call([[integer(value)]])
    return build_request(request)


class TestWirePath:
    """Deterministic (no timing) checks that an exchange cannot stall:
    a response leaves in ONE write on a TCP_NODELAY socket.  Two writes
    with Nagle on is what cost a flat ~44 ms per keep-alive exchange —
    the second segment waited out the client's delayed ACK."""

    def test_one_write_per_response_on_a_nodelay_socket(self):
        wrapper = XRPCWrapper(engine=TreeEngine())
        wrapper.engine.registry.register_source(ECHO_MODULE, location="e.xq")
        server = HttpXRPCServer(wrapper.handle)
        accepted = _count_sends(server)
        with server, HttpTransport({"peer": server.address}) as transport:
            payload = _double_payload(3)
            for _ in range(50):
                assert parse_response(
                    transport.send("peer", payload)).results == [[integer(6)]]
            stats = transport.peer_stats("peer")
            assert stats.requests == 50
            assert stats.connections_opened == 1
            assert stats.connections_reused == 49
            [connection] = accepted
            assert len(connection.sends) == 50  # one write per response
            assert connection.getsockopt(socket.IPPROTO_TCP,
                                         socket.TCP_NODELAY) != 0

    def test_fault_responses_leave_in_one_write_too(self):
        def broken_handler(payload):
            raise RuntimeError("handler bug")

        server = HttpXRPCServer(broken_handler)
        accepted = _count_sends(server)
        with server:
            host, port = server.address.split(":")
            with socket.create_connection((host, int(port)), 5) as raw:
                # 500: the handler raised.
                response, body = _raw_exchange(raw, _post(b"<x/>"))
                assert response.status == 500
                assert "env:Receiver" in body and "handler bug" in body
                # 400: the body is not UTF-8 (same connection: its
                # extent was known, so keep-alive survives).
                response, body = _raw_exchange(raw, _post(b"\xff\xfe<x/>"))
                assert response.status == 400
                assert "env:Sender" in body and "UTF-8" in body
                [connection] = accepted
                assert len(connection.sends) == 2


class TestForeignInput:
    """Input no XRPC client would send must be answered — HTTP 400 with
    an ``env:Sender`` SOAP fault — not crash the handler thread (which
    dropped the connection, so clients retried a request that can never
    succeed)."""

    @pytest.fixture
    def server(self):
        wrapper = XRPCWrapper(engine=TreeEngine())
        wrapper.engine.registry.register_source(ECHO_MODULE, location="e.xq")
        with HttpXRPCServer(wrapper.handle) as server:
            yield server

    def _connect(self, server):
        host, port = server.address.split(":")
        return socket.create_connection((host, int(port)), 5)

    def _assert_still_serving(self, server):
        with HttpTransport({"peer": server.address}) as transport:
            raw = transport.send("peer", _double_payload(21))
        assert parse_response(raw).results == [[integer(42)]]

    @pytest.mark.parametrize("header, status", [
        (b"", 400),                                  # missing
        (b"Content-Length: twelve\r\n", 400),        # not an integer
        (b"Content-Length: -5\r\n", 400),            # negative
        # Refused on the header alone: were the server to wait for the
        # promised body, this exchange would time out.
        (b"Content-Length: %d\r\n" % (MAX_REQUEST_BYTES + 1), 413),
    ], ids=["missing", "non-integer", "negative", "over the limit"])
    def test_bad_content_length_is_a_sender_fault(self, server, header,
                                                  status):
        with self._connect(server) as raw:
            response, body = _raw_exchange(
                raw, b"POST /xrpc HTTP/1.1\r\nHost: test\r\n" + header
                + b"\r\n<x/>")
            assert response.status == status
            assert "env:Sender" in body and "Content-Length" in body
            with pytest.raises(XRPCFault) as fault:
                parse_response(body)
            assert fault.value.fault_code == "env:Sender"
            # The body's extent was unknown: the server closes.
            assert response.getheader("Connection") == "close"
            assert raw.recv(1) == b""
        self._assert_still_serving(server)

    def test_non_utf8_body_is_a_sender_fault(self, server):
        with self._connect(server) as raw:
            response, body = _raw_exchange(raw, _post(b"<x>\xff\xfe</x>"))
            assert response.status == 400
            with pytest.raises(XRPCFault) as fault:
                parse_response(body)
            assert fault.value.fault_code == "env:Sender"
            assert "UTF-8" in fault.value.reason
            # ... and the same connection serves the next request.
            response, body = _raw_exchange(
                raw, _post(_double_payload(4).encode("utf-8")))
            assert response.status == 200
            assert parse_response(body).results == [[integer(8)]]
        self._assert_still_serving(server)

    def test_client_sees_a_fault_not_a_transport_error(self, server):
        """Through the real client stack: a terminal SOAP fault, not a
        RetryableTransportError for a request that can never succeed."""
        with HttpTransport({"peer": server.address}) as transport:
            status, body = transport._pool.request(
                server.address, "/xrpc", b"\xff\xfe",
                headers=transport.REQUEST_HEADERS)
            assert status == 400
            with pytest.raises(XRPCFault):
                parse_response(body.decode("utf-8"))
            assert transport.peer_stats("peer").retries == 0
