"""The write half of the XRPC value-holder format (the paper's ``s2n``).

:class:`MarshalWriter` streams envelope markup and, for every item of an
XDM sequence, its value holder — ``xrpc:atomic-value`` with the XML
Schema type in ``xsi:type``, ``xrpc:element`` / ``xrpc:document`` /
``xrpc:attribute`` / ``xrpc:text`` / ``xrpc:comment`` / ``xrpc:pi`` for
nodes — straight into a string buffer; node items are serialized from
their live trees, no holder tree is built.

The read half (the paper's ``n2s``) is
:class:`repro.soap.messages._MessageDecoder`, which decodes the holders
from parse events; the two helpers at the bottom of this module are the
parts of the format it shares with the tree-walking oracle the tests
hold it against (``repro.reference.n2s``).  Between them the two halves
keep the paper's two promises: an atomic value comes back as a value of
the type it left with, and a node arrives **by value** — a standalone
fragment with fresh identity, whose upward and sideways axes are empty.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional

from repro.errors import XRPCFault
from repro.xdm.atomic import AtomicValue, cast
from repro.xdm.nodes import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    Node,
    ProcessingInstructionNode,
    TextNode,
)
from repro.xdm.types import XSType, xs
from repro.xml.serializer import (
    _serialize_wire,
    escape_attribute,
    escape_text,
    serialize_into,
)

XRPC_PREFIX = "xrpc"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"

#: Per-thread pool of piece buffers.  A bulk RPC marshals one envelope
#: per request plus one fingerprint per call; growing a fresh list each
#: time re-pays the same reallocations.  ``release()`` returns a
#: writer's (cleared) buffer here so the next writer on this thread
#: starts with list capacity already grown.  Thread-local because
#: writers are built on server worker threads concurrently.
_BUFFER_POOL = threading.local()
_POOL_LIMIT = 8


class MarshalWriter:
    """One-pass SOAP XML emitter.

    Streams envelope markup and value holders straight into a string
    buffer; node-typed items are serialized directly from their live
    XDM trees.

    Start tags are closed lazily so childless elements collapse to
    ``<name/>`` exactly like the tree serializer.
    """

    def __init__(self) -> None:
        pool = _BUFFER_POOL.__dict__.setdefault("buffers", [])
        self._out: list[str] = pool.pop() if pool else []
        self._stack: list[str] = []
        self._open = False          # a start tag still awaits '>'
        self._scope: dict[str, str] = {}  # prefixes declared so far

    # -- low-level markup ---------------------------------------------------

    def prolog(self) -> None:
        self._out.append('<?xml version="1.0" encoding="utf-8"?>')

    def _close_tag(self) -> None:
        if self._open:
            self._out.append(">")
            self._open = False

    def start(self, name: str,
              attributes: tuple | list = (),
              declarations: Optional[dict[str, str]] = None) -> None:
        """Open ``<name ...>`` with xmlns declarations before attributes."""
        self._close_tag()
        out = self._out
        out.append(f"<{name}")
        if declarations:
            self._scope.update(declarations)
            for prefix, uri in sorted(declarations.items()):
                xmlns = "xmlns" if prefix == "" else f"xmlns:{prefix}"
                out.append(f' {xmlns}="{escape_attribute(uri)}"')
        for attr_name, value in attributes:
            out.append(f' {attr_name}="{escape_attribute(value)}"')
        self._stack.append(name)
        self._open = True

    def end(self) -> None:
        name = self._stack.pop()
        if self._open:
            self._out.append("/>")
            self._open = False
        else:
            self._out.append(f"</{name}>")

    def text(self, content: str) -> None:
        if not content:
            return
        self._close_tag()
        self._out.append(escape_text(content))

    def element(self, name: str, attributes: tuple | list = (),
                content: str = "") -> None:
        """Convenience: a leaf element with optional text content."""
        self.start(name, attributes)
        self.text(content)
        self.end()

    def node(self, node: Node) -> None:
        """Serialize an XDM tree in place, honouring declared prefixes."""
        self._close_tag()
        serialize_into(node, self._out, self._scope)

    # -- the streaming s2n --------------------------------------------------

    def sequence(self, items: list) -> None:
        """Emit ``<xrpc:sequence>`` holders for an XDM sequence (s2n)."""
        self._close_tag()
        if not items:
            self._out.append("<xrpc:sequence/>")
            return
        self._out.append("<xrpc:sequence>")
        self._holders(items)
        self._out.append("</xrpc:sequence>")

    def calls(self, count: int, columns: list[list[tuple]]) -> None:
        """Emit *count* ``<xrpc:call>`` elements from the parameter
        *columns* — one ``iter|pos|item`` row list per parameter, ``iter``
        the call number — in one pass over each column: call *i*'s
        parameter *k* is the run of ``columns[k]``'s rows with ``iter``
        *i*.  The same bytes as :meth:`sequence` per parameter."""
        if not count:
            return
        self._close_tag()
        out = self._out
        if not columns:
            out.extend(["<xrpc:call/>"] * count)
            return
        runs = [iter(rows) for rows in columns]
        heads = [next(rows, None) for rows in runs]
        holders = self._holders
        for it in range(1, count + 1):
            out.append("<xrpc:call>")
            for index, rows in enumerate(runs):
                row = heads[index]
                if row is None or row[0] != it:
                    out.append("<xrpc:sequence/>")
                    continue
                out.append("<xrpc:sequence>")
                items = [row[2]]
                row = next(rows, None)
                while row is not None and row[0] == it:
                    items.append(row[2])
                    row = next(rows, None)
                heads[index] = row
                holders(items)
                out.append("</xrpc:sequence>")
            out.append("</xrpc:call>")

    def _holders(self, items: Iterable) -> None:
        """The holder of each item, inside an already closed start tag:
        an element's is its tree's markup between ``<xrpc:element>`` and
        ``</xrpc:element>``, an atomic value's one string; other kinds
        go through :meth:`value`."""
        out = self._out
        scope = self._scope
        for item in items:
            kind = type(item)
            if kind is ElementNode:
                out.append("<xrpc:element>")
                _serialize_wire(item, out, scope)
                out.append("</xrpc:element>")
            elif kind is AtomicValue:
                # What start/text/end would emit, the tags built once
                # per type.
                opening, empty = _ATOMIC_TAGS[item.type]
                text = item.string_value()
                out.append(f"{opening}{escape_text(text)}"
                           f"</{XRPC_PREFIX}:atomic-value>"
                           if text else empty)
            else:
                self.value(item)

    def value(self, item) -> None:
        """Emit the value holder of one item that is neither an element
        nor an atomic value (:meth:`_holders` writes those)."""
        if isinstance(item, DocumentNode):
            self.start(f"{XRPC_PREFIX}:document")
            for child in item.children:
                self.node(child)
            self.end()
            return
        if isinstance(item, AttributeNode):
            attributes = []
            if ":" in item.name and item.ns_uri:
                prefix = item.name.split(":", 1)[0]
                if prefix not in ("xml", "xmlns") \
                        and self._scope.get(prefix) != item.ns_uri:
                    attributes.append((f"xmlns:{prefix}", item.ns_uri))
            attributes.append((item.name, item.value))
            self.element(f"{XRPC_PREFIX}:attribute", attributes)
            return
        if isinstance(item, TextNode):
            self.element(f"{XRPC_PREFIX}:text", (), item.content)
            return
        if isinstance(item, CommentNode):
            self.element(f"{XRPC_PREFIX}:comment", (), item.content)
            return
        if isinstance(item, ProcessingInstructionNode):
            self.element(f"{XRPC_PREFIX}:pi", (("target", item.target),),
                         item.content)
            return
        raise XRPCFault("env:Sender", f"cannot marshal item {item!r}")

    def getvalue(self) -> str:
        self._close_tag()
        return "".join(self._out)

    def release(self) -> None:
        """Recycle this writer's buffer into the thread's pool.

        Call after the final ``getvalue()``; the writer must not be
        used afterwards (its buffer may be handed to another writer).
        """
        buffer = self._out
        self._out = []
        del buffer[:]
        pool = _BUFFER_POOL.__dict__.setdefault("buffers", [])
        if len(pool) < _POOL_LIMIT:
            pool.append(buffer)


def _untyped(text: str) -> AtomicValue:
    return AtomicValue(text, xs.untypedAtomic)


def _reader(target: XSType) -> Callable[[str], AtomicValue]:
    """The cast of a holder's text to *target*, as one call."""
    if target is xs.untypedAtomic or target.derives_from(xs.string):
        return lambda text: AtomicValue(text, target)
    return lambda text: cast(_untyped(text), target)


#: Per atomic type, its ``xrpc:atomic-value`` start tag and the whole
#: holder of an empty lexical form: the markup, resolved once per type.
_ATOMIC_TAGS = {
    target: (f'<{XRPC_PREFIX}:atomic-value xsi:type="{tag}">',
             f'<{XRPC_PREFIX}:atomic-value xsi:type="{tag}"/>')
    for target in xs.all_types().values()
    for tag in [escape_attribute(target.name)]}

#: Per ``xsi:type`` name of a built-in type — prefixed or not, and none
#: (``xs:string``) — the cast of a holder's text, resolved once per type.
_READERS: dict[Optional[str], Callable[[str], AtomicValue]] = {
    name: _reader(target)
    for target in xs.all_types().values()
    for name in (target.name, target.local_name)}
_READERS[None] = _READERS["xs:string"]


def atomic_reader(type_name: Optional[str]) -> Callable[[str], AtomicValue]:
    """The value an ``xrpc:atomic-value`` holder ships, as a function of
    its text: the text as the type its ``xsi:type`` *type_name* names
    (``xs:string`` when it names none).  An unknown (user-defined) type
    degrades to untypedAtomic, as the paper allows for anonymous
    user-defined schema types."""
    return _READERS.get(type_name, _untyped)


def atomic_value(type_name: Optional[str], text: str) -> AtomicValue:
    """The value an ``xrpc:atomic-value`` holder ships: *text* as the
    type its ``xsi:type`` names (``xs:string`` when it names none)."""
    return atomic_reader(type_name)(text)


def shipped_attribute(
        attributes: Iterable[tuple[str, Optional[str]]]) -> Optional[int]:
    """Which of an ``xrpc:attribute`` holder's attributes — given as
    ``(name, namespace URI)`` — it ships: the first that is neither a
    namespace declaration nor ``xsi:type``, or ``xsi:type`` itself when
    that is all there is; ``None`` when there is nothing."""
    only_type = None
    for index, (name, ns_uri) in enumerate(attributes):
        if name == "xmlns" or name.startswith("xmlns:"):
            continue
        if ns_uri == XSI_NS and name.split(":")[-1] == "type":
            if only_type is None:
                only_type = index
            continue
        return index
    return only_type
