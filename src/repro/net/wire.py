"""HTTP/1.1 framing for SOAP-over-POST, both sides of the wire.

XRPC uses a small subset of HTTP/1.1 (ZhangB07 section 2):

* ``POST`` with a ``Content-Length`` body;
* keep-alive connections;
* ``Expect: 100-continue``;
* the status lines 200, 400, 405, 413, 431 and 500, each over a SOAP
  envelope.

A foreign peer's response may also be chunked, or run to the
connection's close.

A message (start line, header block, body) leaves in one gathering
write on a ``TCP_NODELAY`` socket: with two writes and Nagle on, the
second waits out the peer's delayed ACK (~40 ms on loopback).  A header
block is read by a bounded ``readline`` loop into a dict keyed by
lower-cased name, and a body by its length, never past a byte bound.
:mod:`repro.net.http` (the server) and :mod:`repro.net.pool` (the
client) both speak through :class:`Connection`.
"""

from __future__ import annotations

import socket

from repro.errors import FatalTransportError

#: Bounds on a header block: field lines, and bytes per line.
MAX_HEADER_LINES = 100
MAX_LINE_BYTES = 64 * 1024


class FramingError(ValueError):
    """Bytes that are not the HTTP/1.1 this module reads; ``status`` is
    the HTTP status a server answers them with."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def content_length(fields: dict[str, str]) -> int:
    value = fields.get("content-length", "")
    if not (value.isascii() and value.isdigit()):  # missing, negative, ...
        raise FramingError("a message needs a non-negative integer "
                           f"Content-Length, not {value[:40]!r}")
    return int(value)


def keep_alive(version: str, fields: dict[str, str]) -> bool:
    """Does a message of HTTP *version* leave its connection open?"""
    token = fields.get("connection", "").lower()
    return token != "close" and (version != "HTTP/1.0"
                                 or token == "keep-alive")


def connect(host: str, port: int, timeout: float) -> Connection:
    return Connection(socket.create_connection((host, port), timeout))


class Connection:
    """One HTTP/1.1 connection: a ``TCP_NODELAY`` socket read through a
    buffer, written one whole message at a time."""

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self._rfile = sock.makefile("rb")

    def send(self, start_line: str, fields: dict[str, str],
             body: bytes = b"") -> None:
        lines = "".join(f"{name}: {value}\r\n"
                        for name, value in fields.items())
        head = f"{start_line}\r\n{lines}\r\n".encode("latin-1")
        # One write, no copy of the body; what a full socket buffer
        # leaves over goes out after it.
        sent = self.sock.sendmsg([head, body]) - len(head)
        if sent < 0:
            self.sock.sendall(head[sent:])  # the head's unsent tail
            sent = 0
        if sent < len(body):
            self.sock.sendall(memoryview(body)[sent:])

    def read_head(self) -> tuple[str, dict[str, str]] | None:
        """The next message's start line and header fields, or ``None``
        when the peer closed the connection between messages."""
        line = self._line()
        if not line:
            return None
        return line.decode("latin-1").strip(), self._fields()

    def _fields(self) -> dict[str, str]:
        """A header block, or a chunked body's trailer."""
        fields: dict[str, str] = {}
        for _ in range(MAX_HEADER_LINES + 1):
            field = self._line()
            if field in (b"\r\n", b"\n"):
                return fields
            if not field:
                raise ConnectionResetError("closed inside a header block")
            name, colon, value = field.decode("latin-1").partition(":")
            if not colon:
                raise FramingError(f"malformed header line {field[:40]!r}")
            fields[name.strip().lower()] = value.strip()
        raise FramingError(f"more than {MAX_HEADER_LINES} header lines", 431)

    def _line(self) -> bytes:
        line = self._rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise FramingError(f"a line over {MAX_LINE_BYTES} bytes", 431)
        return line

    def read_exactly(self, size: int) -> bytes:
        data = self._rfile.read(size)
        if len(data) < size:
            raise ConnectionResetError(f"closed {size - len(data)} bytes "
                                       "short of a body's end")
        return data

    def read_response(self, limit: int) -> tuple[int, bytes, bool]:
        """``(status, body, keep-alive)`` of the next response.  A body
        over *limit* bytes is a :class:`FatalTransportError`, raised
        before a byte of it is read when its length is announced."""
        head = self.read_head()
        if head is None:
            raise ConnectionResetError("closed without a response")
        start, fields = head
        version, _, rest = start.partition(" ")
        if not version.startswith("HTTP/1.") or not rest[:3].isdigit():
            raise FramingError(f"malformed status line {start[:40]!r}")
        status, keep = int(rest[:3]), keep_alive(version, fields)
        chunks: list[bytes] = []
        total = 0
        if "chunked" in fields.get("transfer-encoding", "").lower():
            while size := _chunk_size(self._line()):
                total += size
                _check_bound(total, limit)
                chunks.append(self.read_exactly(size))
                self._line()  # the CRLF that ends a chunk
            self._fields()  # the trailer
        elif "content-length" in fields:
            total = content_length(fields)
            _check_bound(total, limit)
            chunks.append(self.read_exactly(total))
        else:  # the body runs to the connection's close
            keep = False
            while chunk := self._rfile.read1(MAX_LINE_BYTES):
                total += len(chunk)
                _check_bound(total, limit)
                chunks.append(chunk)
        return status, b"".join(chunks), keep

    def settimeout(self, timeout: float) -> None:
        self.sock.settimeout(timeout)

    def close(self) -> None:
        self._rfile.close()
        self.sock.close()


def _chunk_size(line: bytes) -> int:
    digits = line.partition(b";")[0].strip()
    try:
        if digits.isalnum():  # not signed, not empty
            return int(digits, 16)
    except ValueError:
        pass
    raise FramingError(f"malformed chunk size line {line[:40]!r}")


def _check_bound(size: int, limit: int) -> None:
    if size > limit:
        raise FatalTransportError(f"a response body of {size} bytes or more "
                                  f"exceeds the {limit}-byte limit")
