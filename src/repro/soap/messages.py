"""SOAP XRPC envelope building and parsing.

Message layout follows section 2.1 of the paper::

    <env:Envelope xmlns:xrpc="http://monetdb.cwi.nl/XQuery" ...>
      <env:Body>
        <xrpc:request module="films" method="filmsByActor" arity="1"
                      location="http://x.example.org/film.xq">
          <xrpc:queryID host="p0" timestamp="..." timeout="60"/>   (isolation ext.)
          <xrpc:call>
            <xrpc:sequence> ... one per parameter ... </xrpc:sequence>
          </xrpc:call>
          <xrpc:call> ... Bulk RPC: more calls ... </xrpc:call>
        </xrpc:request>
      </env:Body>
    </env:Envelope>

Responses carry one ``xrpc:sequence`` per call and, as the section 2.3
extension, an ``xrpc:participants`` element listing every peer touched
while serving the request (needed by the 2PC coordinator registration).

Fault-tolerance extension: when set, two optional elements ride in an
``env:Header`` block (absent otherwise, keeping the wire byte-identical
to the base protocol):

* ``<xrpc:exchange id="..."/>`` — a per-*attempt* correlation id; the
  server echoes it on the response/fault/txn-result so a client retry
  can detect stale duplicated responses deterministically.
* ``<xrpc:deadline remaining="..."/>`` — the query's remaining deadline
  budget in seconds; the remote peer rebuilds a local deadline from it
  and abandons work that cannot finish in time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

from repro.errors import XRPCFault
from repro.soap.marshal import (
    XSI_NS,
    MarshalWriter,
    atomic_reader,
    shipped_attribute,
)
from repro.xdm.nodes import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    Node,
    ProcessingInstructionNode,
    TextNode,
)
from repro.xml.parser import EventSource, collector_paused, parse_document
from repro.xml.serializer import xml_safe

XRPC_NS = "http://monetdb.cwi.nl/XQuery"
ENV_NS = "http://www.w3.org/2003/05/soap-envelope"
XS_NS = "http://www.w3.org/2001/XMLSchema"

_ENVELOPE_DECLARATIONS = {
    "xrpc": XRPC_NS,
    "env": ENV_NS,
    "xs": XS_NS,
    "xsi": XSI_NS,
}


@dataclass
class QueryID:
    """Identifies a query for repeatable-read isolation (section 2.2).

    ``host`` and ``timestamp`` identify where/when the query started;
    ``timeout`` is a *relative* number of seconds during which the remote
    peer must conserve the isolated database state.
    """

    host: str
    timestamp: float
    timeout: int = 60

    @property
    def key(self) -> tuple[str, float]:
        return (self.host, self.timestamp)


class Arguments:
    """The calls of one Bulk RPC message as the loop relation (§3.2):
    ``count`` calls and, per parameter, one ``iter|pos|item`` row list
    whose ``iter`` is the call number — ascending, ``pos`` dense from 1
    within a call.  The originator's plan builds it from its parameter
    tables, the marshaller writes from it, the decoder appends to it and
    the served plan binds its columns as they are."""

    __slots__ = ("count", "columns")

    def __init__(self, count: int = 0,
                 columns: Optional[list[list[tuple]]] = None) -> None:
        self.count = count
        self.columns: list[list[tuple]] = [] if columns is None else columns

    @classmethod
    def of(cls, calls: Iterable[list[list]]) -> "Arguments":
        """The columns of per-call parameter lists."""
        arguments = cls()
        for params in calls:
            arguments.append(params)
        return arguments

    def append(self, params: list[list]) -> None:
        """One more call, its parameters given as sequences."""
        self.count += 1
        if self.count == 1:
            self.columns = [[] for _ in params]
        it = self.count
        for rows, sequence in zip(self.columns, params):
            rows.extend((it, pos, item)
                        for pos, item in enumerate(sequence, 1))

    def extend(self, other: "Arguments") -> None:
        """*other*'s calls after these, renumbered."""
        if not self.count:
            self.columns = [[] for _ in other.columns]
        offset = self.count
        self.count += other.count
        for rows, more in zip(self.columns, other.columns):
            rows.extend((it + offset, pos, item) for it, pos, item in more)

    def calls(self) -> list[list[list]]:
        """Per call, its parameter sequences: a view for the code that
        serves or inspects one call at a time."""
        calls: list[list[list]] = [[[] for _ in self.columns]
                                   for _ in range(self.count)]
        for index, rows in enumerate(self.columns):
            for it, _pos, item in rows:
                calls[it - 1][index].append(item)
        return calls

    def __len__(self) -> int:
        return self.count


@dataclass(init=False)
class XRPCRequest:
    """A (possibly bulk) XRPC request: N calls to one function.

    The calls are :attr:`arguments`, column by column — an attribute,
    not a field: the fields are the message's header, and :attr:`calls`
    is the per-call view of the columns (``calls=`` builds them from
    per-call parameter lists).
    """

    module: str
    method: str
    arity: int
    location: Optional[str] = None
    query_id: Optional[QueryID] = None
    updating: bool = False
    exchange_id: Optional[str] = None
    deadline_remaining: Optional[float] = None

    def __init__(self, module: str, method: str, arity: int,
                 location: Optional[str] = None,
                 calls: Iterable[list[list]] = (),
                 query_id: Optional[QueryID] = None, updating: bool = False,
                 exchange_id: Optional[str] = None,
                 deadline_remaining: Optional[float] = None) -> None:
        self.module = module
        self.method = method
        self.arity = arity
        self.location = location
        self.query_id = query_id
        self.updating = updating
        self.exchange_id = exchange_id
        self.deadline_remaining = deadline_remaining
        self.arguments = Arguments.of(calls)

    def add_call(self, params: list[list]) -> None:
        if len(params) != self.arity:
            raise XRPCFault(
                "env:Sender",
                f"call has {len(params)} parameters, function arity is {self.arity}")
        self.arguments.append(params)

    @property
    def calls(self) -> list[list[list]]:
        """Per call, its parameter sequences (derived from the columns)."""
        return self.arguments.calls()

    @property
    def is_bulk(self) -> bool:
        return self.arguments.count > 1


@dataclass
class XRPCResponse:
    module: str
    method: str
    results: list[list] = field(default_factory=list)
    participating_peers: list[str] = field(default_factory=list)
    exchange_id: Optional[str] = None


@dataclass
class XRPCFaultMessage:
    fault_code: str
    reason: str
    exchange_id: Optional[str] = None

    def raise_(self) -> None:
        raise XRPCFault(self.fault_code, self.reason)


@dataclass
class TxnCommand:
    """A WS-AtomicTransaction participant operation (section 2.3).

    ``kind`` is ``"prepare"``, ``"commit"`` or ``"rollback"``; the
    queryID identifies the distributed transaction.
    """

    kind: str
    query_id: QueryID
    exchange_id: Optional[str] = None
    deadline_remaining: Optional[float] = None


@dataclass
class TxnResult:
    """Vote / acknowledgement for a :class:`TxnCommand`."""

    kind: str
    ok: bool
    detail: str = ""
    exchange_id: Optional[str] = None


Message = Union[XRPCRequest, XRPCResponse, XRPCFaultMessage,
                TxnCommand, TxnResult]


# ---------------------------------------------------------------------------
# Building


def _begin_envelope(exchange_id: Optional[str] = None,
                    deadline_remaining: Optional[float] = None
                    ) -> MarshalWriter:
    """Open ``<env:Envelope>[<env:Header>...]<env:Body>`` on a fresh
    streaming writer.

    The header block only exists when a fault-tolerance field is set, so
    base-protocol messages stay byte-identical.
    """
    writer = MarshalWriter()
    writer.prolog()
    writer.start(
        "env:Envelope",
        attributes=(("xsi:schemaLocation", f"{XRPC_NS} {XRPC_NS}/XRPC.xsd"),),
        declarations=_ENVELOPE_DECLARATIONS)
    if exchange_id is not None or deadline_remaining is not None:
        writer.start("env:Header")
        if exchange_id is not None:
            writer.element("xrpc:exchange", (("id", exchange_id),))
        if deadline_remaining is not None:
            writer.element("xrpc:deadline",
                           (("remaining", repr(deadline_remaining)),))
        writer.end()  # env:Header
    writer.start("env:Body")
    return writer


def _finish_envelope(writer: MarshalWriter) -> str:
    writer.end()  # env:Body
    writer.end()  # env:Envelope
    text = writer.getvalue()
    writer.release()  # recycle the piece buffer for the next envelope
    return text


def build_request(request: XRPCRequest) -> str:
    """Serialize an :class:`XRPCRequest` to SOAP XML text (one pass)."""
    writer = _begin_envelope(request.exchange_id, request.deadline_remaining)
    attributes = [
        ("module", request.module),
        ("method", request.method),
        ("arity", str(request.arity)),
    ]
    if request.location:
        attributes.append(("location", request.location))
    if request.updating:
        attributes.append(("updCall", "true"))
    writer.start("xrpc:request", attributes)
    if request.query_id is not None:
        writer.element("xrpc:queryID", (
            ("host", request.query_id.host),
            ("timestamp", repr(request.query_id.timestamp)),
            ("timeout", str(request.query_id.timeout)),
        ))
    writer.calls(request.arguments.count, request.arguments.columns)
    writer.end()  # xrpc:request
    return _finish_envelope(writer)


def build_response(response: XRPCResponse) -> str:
    """Serialize an :class:`XRPCResponse` to SOAP XML text (one pass)."""
    writer = _begin_envelope(response.exchange_id)
    writer.start("xrpc:response", (
        ("module", response.module),
        ("method", response.method),
    ))
    if response.participating_peers:
        writer.start("xrpc:participants")
        for peer in response.participating_peers:
            writer.element("xrpc:peer", (("uri", peer),))
        writer.end()
    for result in response.results:
        writer.sequence(result)
    writer.end()  # xrpc:response
    return _finish_envelope(writer)


def build_fault(fault_code: str, reason: str,
                exchange_id: Optional[str] = None) -> str:
    """Serialize a SOAP Fault (error message format of section 2.1)."""
    writer = _begin_envelope(exchange_id)
    writer.start("env:Fault")
    writer.start("env:Code")
    writer.element("env:Value", (), fault_code)
    writer.end()
    writer.start("env:Reason")
    writer.element("env:Text", (("xml:lang", "en"),), xml_safe(reason))
    writer.end()
    writer.end()  # env:Fault
    return _finish_envelope(writer)


def build_txn_command(command: TxnCommand) -> str:
    """Serialize a Prepare/Commit/Rollback message."""
    writer = _begin_envelope(command.exchange_id, command.deadline_remaining)
    writer.element(f"xrpc:{command.kind}", (
        ("host", command.query_id.host),
        ("timestamp", repr(command.query_id.timestamp)),
        ("timeout", str(command.query_id.timeout)),
    ))
    return _finish_envelope(writer)


def build_txn_result(result: TxnResult) -> str:
    """Serialize a vote/acknowledgement for a transaction command."""
    writer = _begin_envelope(result.exchange_id)
    attributes = [("kind", result.kind),
                  ("ok", "true" if result.ok else "false")]
    if result.detail:
        attributes.append(("detail", result.detail))
    writer.element("xrpc:txn-result", attributes)
    return _finish_envelope(writer)


# ---------------------------------------------------------------------------
# Parsing


def parse_message(text: Union[str, bytes]) -> Message:
    """Parse any SOAP XRPC message; dispatch on the body's child.

    One pass (``bytes`` are decoded by the parse frontend, BOM and
    declared encoding honoured): the envelope is consumed as parse
    events straight into the message dataclass, and only what
    ``xrpc:element`` / ``xrpc:document`` holders ship is built as nodes
    (:class:`_MessageDecoder`).  Text that is not XML is an
    :class:`~repro.xml.parser.XMLSyntaxError`, whatever else is wrong
    with it; XML that is not a message is an ``env:Sender`` fault.
    The cyclic collector is paused for the decode
    (:class:`~repro.xml.parser.collector_paused`): everything it
    allocates stays reachable until it returns.
    """
    with collector_paused():
        return parse_document(text, consumer=_MessageDecoder).finish()


def parse_request(text: Union[str, bytes]) -> XRPCRequest:
    message = parse_message(text)
    if isinstance(message, XRPCFaultMessage):
        message.raise_()
    if not isinstance(message, XRPCRequest):
        raise XRPCFault("env:Sender", "expected an XRPC request message")
    return message


def parse_response(text: Union[str, bytes]) -> XRPCResponse:
    message = parse_message(text)
    if isinstance(message, XRPCFaultMessage):
        message.raise_()
    if not isinstance(message, XRPCResponse):
        raise XRPCFault("env:Receiver", "expected an XRPC response message")
    return message


def _attribute(attributes: list[str], name: str) -> Optional[str]:
    """Value of the attribute with this lexical name, failing that with
    this local name (the rule of ``ElementNode.get_attribute``)."""
    for index in range(0, len(attributes), 2):
        if attributes[index] == name:
            return attributes[index + 1]
    for index in range(0, len(attributes), 2):
        if attributes[index].split(":")[-1] == name:
            return attributes[index + 1]
    return None


def _required(attributes: list[str], element: str, name: str) -> str:
    value = _attribute(attributes, name)
    if value is None:
        raise XRPCFault(
            "env:Sender", f"<{element}> missing required attribute {name!r}")
    return value


def _number(attributes: list[str], element: str, name: str, kind: type):
    """A required attribute that must read as a non-negative *kind*
    (``int`` or ``float``)."""
    text = _required(attributes, element, name)
    try:
        value = kind(text)
        if value >= 0:  # false for NaN too
            return value
    except ValueError:
        pass
    raise XRPCFault(
        "env:Sender",
        f"<{element}> attribute {name!r} must be a non-negative "
        f"{'integer' if kind is int else 'number'}, found {text!r}")


def _query_id(attributes: list[str], element: str) -> QueryID:
    return QueryID(
        host=_required(attributes, element, "host"),
        timestamp=_number(attributes, element, "timestamp", float),
        timeout=_number(attributes, element, "timeout", int),
    )


# What the innermost open element is to the decoder.  The first group
# are envelope levels that look at their child elements; ``_SKIPPED``
# and the value holders below it do not (a holder's text is collected
# whatever markup surrounds it, as ``string_value`` would).
(_OUTSIDE, _ENVELOPE, _HEADER, _BODY, _REQUEST, _CALL, _RESPONSE,
 _PARTICIPANTS, _SEQUENCE, _FAULT, _CODE, _REASON, _SKIPPED, _ATOMIC,
 _ELEMENT, _DOCUMENT, _TEXT, _COMMENT, _PI, _FAULT_CODE,
 _FAULT_REASON) = range(21)

#: The holders whose item is a node the decoder makes itself, under a
#: key minted as the holder opens (so it sorts where the holder stood).
_KEYED_HOLDERS = {"document": _DOCUMENT, "text": _TEXT,
                  "comment": _COMMENT, "pi": _PI}


class _MessageDecoder:
    """The :class:`~repro.xml.parser.EventConsumer` behind
    :func:`parse_message`.

    Follows the element nesting with a stack of the levels above; of a
    level's children only those the protocol names are entered — and
    where it allows one (``env:Header``, ``env:Body``, the body's
    message, ``xrpc:queryID`` …) only the first, the rest is skipped
    with everything below it.  Faults are raised at the element that
    shows them; :meth:`finish` raises the two only the end can show.
    """

    __slots__ = ("_source", "_levels", "_entered", "_message",
                 "_exchange_id", "_deadline_remaining", "_arity",
                 "_arguments", "_param", "_rows", "_pos", "_add",
                 "_sequences", "_items", "_chars", "_reader", "_key",
                 "_target")

    def __init__(self, source: EventSource) -> None:
        self._source = source
        self._levels = [_OUTSIDE]
        #: The once-only levels and elements met so far.
        self._entered: set = set()
        self._message: Optional[Message] = None
        self._exchange_id: Optional[str] = None
        self._deadline_remaining: Optional[float] = None
        #: The request's: its arity, the columns its calls append to,
        #: and the open call's count of parameter sequences so far.
        self._arity = 0
        self._arguments = Arguments()
        self._param = 0
        #: The open parameter's column and the ``pos`` of its last row.
        self._rows: list = []
        self._pos = 0
        #: The response's results, and the open result sequence's items.
        self._sequences: list = []
        self._items: list = []
        #: Where a decoded item goes: the open parameter's column
        #: (:meth:`_add_row`), or the open result sequence's items.
        self._add: Callable[[object], None] = self._items.append
        #: Text pieces of the open value holder or fault string.
        self._chars: Optional[list[str]] = None
        #: The open ``xrpc:atomic-value``'s cast of its text.
        self._reader: Callable[[str], object] = str
        self._key = (0, 0)
        self._target = ""

    def _first(self, what) -> bool:
        if what in self._entered:
            return False
        self._entered.add(what)
        return True

    # -- events -------------------------------------------------------------

    def start_element(self, name: str, local_name: str,
                      ns_uri: Optional[str], attributes: list[str]) -> bool:
        levels = self._levels
        level = levels[-1]
        if level == _SEQUENCE:
            if local_name == "element":
                levels.append(_ELEMENT)
                return True
            entered = self._start_holder(local_name, attributes)
        elif level >= _SKIPPED:
            entered = _SKIPPED
        elif level == _BODY:
            entered = self._start_message(name, local_name, ns_uri,
                                          attributes) \
                if self._first("message") else _SKIPPED
        elif level == _OUTSIDE:
            if local_name != "Envelope" or ns_uri != ENV_NS:
                raise XRPCFault("env:Sender", "not a SOAP envelope")
            entered = _ENVELOPE
        elif ns_uri == XRPC_NS:
            entered = self._start_xrpc(level, name, local_name, attributes)
        elif ns_uri == ENV_NS:
            entered = self._start_env(level, local_name)
        else:
            entered = _SKIPPED
        levels.append(entered)
        return entered == _ELEMENT or entered == _DOCUMENT

    def characters(self, data: str) -> None:
        if self._chars is not None:
            self._chars.append(data)

    def end_element(self, fragments: Optional[list[Node]]) -> None:
        level = self._levels.pop()
        if level == _ELEMENT:
            for node in fragments or ():
                if isinstance(node, ElementNode):
                    self._add(node)
                    return
            raise XRPCFault(
                "env:Sender", "xrpc:element holder without child element")
        if level == _SKIPPED or level < _CALL:
            return
        if level == _ATOMIC:
            chars = self._chars
            assert chars is not None
            self._chars = None
            self._add(self._reader("".join(chars)))
        elif level == _SEQUENCE:
            if self._levels[-1] == _RESPONSE:
                self._sequences.append(self._items)
        elif level == _CALL:
            if self._param != self._arity:
                raise XRPCFault(
                    "env:Sender",
                    f"call has {self._param} parameter sequences, "
                    f"arity is {self._arity}")
        elif level == _DOCUMENT:
            document = DocumentNode(self._key)
            for child in fragments or ():
                document.append(child)
            self._add(document)
        elif level > _ATOMIC:
            self._end_text(level)

    def _add_row(self, item) -> None:
        """One decoded item of the open parameter: its column's row."""
        self._pos += 1
        self._rows.append((self._arguments.count, self._pos, item))

    def finish(self) -> Message:
        """The decoded message, with the header's fields on it."""
        if _BODY not in self._entered:
            raise XRPCFault("env:Sender", "SOAP envelope without Body")
        message = self._message
        if message is None:
            raise XRPCFault("env:Sender", "empty SOAP Body")
        if isinstance(message, XRPCRequest) and not message.arguments.count:
            raise XRPCFault("env:Sender", "request contains no calls")
        message.exchange_id = self._exchange_id
        if isinstance(message, (XRPCRequest, TxnCommand)):
            message.deadline_remaining = self._deadline_remaining
        return message

    # -- envelope levels ----------------------------------------------------

    def _start_env(self, level: int, local_name: str) -> int:
        if level == _ENVELOPE:
            if local_name == "Header" and self._first(_HEADER):
                return _HEADER
            if local_name == "Body" and self._first(_BODY):
                return _BODY
        elif level == _FAULT:
            if local_name == "Code" and self._first(_CODE):
                return _CODE
            if local_name == "Reason" and self._first(_REASON):
                return _REASON
        elif level == _CODE:
            if local_name == "Value" and self._first(_FAULT_CODE):
                self._chars = []
                return _FAULT_CODE
        elif level == _REASON:
            if local_name == "Text" and self._first(_FAULT_REASON):
                self._chars = []
                return _FAULT_REASON
        return _SKIPPED

    def _start_xrpc(self, level: int, name: str, local_name: str,
                    attributes: list[str]) -> int:
        if level == _CALL:
            if local_name == "sequence":
                index = self._param
                self._param += 1
                self._pos = 0
                columns = self._arguments.columns
                if index == len(columns) < self._arity:  # the first call's
                    columns.append([])
                # Past the arity the call's end faults.
                self._rows = columns[index] if index < self._arity else []
                self._add = self._add_row
                return _SEQUENCE
        elif level == _RESPONSE:
            if local_name == "sequence":
                self._items = []
                self._add = self._items.append
                return _SEQUENCE
            if local_name == "participants" and self._first(_PARTICIPANTS):
                return _PARTICIPANTS
        elif level == _REQUEST:
            if local_name == "call":
                self._arguments.count += 1
                self._param = 0
                return _CALL
            if local_name == "queryID" and self._first("queryID"):
                request = self._message
                assert isinstance(request, XRPCRequest)
                request.query_id = _query_id(attributes, name)
        elif level == _PARTICIPANTS:
            if local_name == "peer":
                response = self._message
                assert isinstance(response, XRPCResponse)
                response.participating_peers.append(
                    _required(attributes, name, "uri"))
        elif level == _HEADER:
            if local_name == "exchange" and self._first("exchange"):
                self._exchange_id = _required(attributes, name, "id")
            elif local_name == "deadline" and self._first("deadline"):
                self._deadline_remaining = _number(
                    attributes, name, "remaining", float)
        return _SKIPPED

    def _start_message(self, name: str, local_name: str,
                       ns_uri: Optional[str], attributes: list[str]) -> int:
        """The first child element of ``env:Body`` is the message."""
        if ns_uri == XRPC_NS:
            if local_name == "request":
                module = _required(attributes, name, "module")
                method = _required(attributes, name, "method")
                self._arity = _number(attributes, name, "arity", int)
                request = self._message = XRPCRequest(
                    module=module, method=method, arity=self._arity,
                    location=_attribute(attributes, "location"),
                    updating=_attribute(attributes, "updCall") == "true")
                self._arguments = request.arguments
                return _REQUEST
            if local_name == "response":
                response = self._message = XRPCResponse(
                    module=_required(attributes, name, "module"),
                    method=_required(attributes, name, "method"))
                self._sequences = response.results
                return _RESPONSE
            if local_name in ("prepare", "commit", "rollback"):
                self._message = TxnCommand(
                    kind=local_name, query_id=_query_id(attributes, name))
                return _SKIPPED
            if local_name == "txn-result":
                detail = _attribute(attributes, "detail")
                self._message = TxnResult(
                    kind=_required(attributes, name, "kind"),
                    ok=_required(attributes, name, "ok") == "true",
                    detail=detail or "")
                return _SKIPPED
        elif ns_uri == ENV_NS and local_name == "Fault":
            self._message = XRPCFaultMessage(
                fault_code="env:Receiver", reason="unknown fault")
            return _FAULT
        raise XRPCFault(
            "env:Sender", f"unrecognised SOAP body element <{name}>")

    # -- value holders ------------------------------------------------------

    def _start_holder(self, kind: str, attributes: list[str]) -> int:
        """A child of ``xrpc:sequence`` other than ``xrpc:element``: one
        item, told by local name."""
        if kind == "atomic-value":
            type_name = _attribute(attributes, "xsi:type")
            if type_name is None:
                type_name = _attribute(attributes, "type")
            self._reader = atomic_reader(type_name)
            self._chars = []
            return _ATOMIC
        if kind == "attribute":
            self._add(self._attribute_item(attributes))
            return _SKIPPED
        entered = _KEYED_HOLDERS.get(kind)
        if entered is None:
            raise XRPCFault(
                "env:Sender", f"unknown XRPC value element <{kind}>")
        self._key = self._source.mint_key()
        if entered == _PI:
            target = _attribute(attributes, "target")
            self._target = "pi" if target is None else target
        if entered != _DOCUMENT:
            self._chars = []
        return entered

    def _attribute_item(self, attributes: list[str]) -> AttributeNode:
        """What an ``xrpc:attribute`` holder ships, as a parentless
        attribute node."""
        source = self._source
        names = attributes[::2]
        uris = [source.namespace_uri(name.partition(":")[0])
                if ":" in name else None for name in names]
        index = shipped_attribute(zip(names, uris))
        if index is None:
            raise XRPCFault(
                "env:Sender", "xrpc:attribute holder without attribute")
        return AttributeNode(source.mint_key(), names[index],
                             attributes[2 * index + 1], uris[index])

    def _end_text(self, level: int) -> None:
        chars = self._chars
        assert chars is not None
        self._chars = None
        text = "".join(chars)
        if level == _TEXT:
            self._add(TextNode(self._key, text))
        elif level == _COMMENT:
            self._add(CommentNode(self._key, text))
        elif level == _PI:
            self._add(
                ProcessingInstructionNode(self._key, self._target, text))
        else:
            fault = self._message
            assert isinstance(fault, XRPCFaultMessage)
            if level == _FAULT_CODE:
                fault.fault_code = text
            else:
                fault.reason = text
