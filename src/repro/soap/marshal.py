"""Parameter marshaling: the s2n() / n2s() functions of the paper.

``s2n`` (sequence-to-node) renders an XDM sequence into an
``<xrpc:sequence>`` element; ``n2s`` (node-to-sequence) is the inverse.
:class:`MarshalWriter` is the streaming sibling of ``s2n``: it emits the
equivalent XML text directly into a string buffer, so the message layer
never materialises holder-node trees on the hot path.

Two properties the paper calls out are enforced here:

* **Typed atomic round-trip** — atomic values carry their XML Schema
  type in ``xsi:type`` and come back as values of that type.
* **Call-by-value** — node-typed parameters are returned by ``n2s`` as
  *standalone fragments with fresh node identity*, so upward/sideways
  XPath axes on them are empty at the remote side and a query can never
  navigate into the SOAP envelope.  ``n2s`` realises this in a single
  pass by *adopting* the already-fresh parsed fragments out of the
  message tree instead of deep-copying them a second time.

``n2s`` is the tree-side half: ``nodeid``, ``validation`` and the wrapper
hold a parsed ``xrpc:sequence`` and call it.  ``parse_message`` does not
— it decodes the holders from parse events and never builds them
(:class:`repro.soap.messages._MessageDecoder`); ``n2s`` is what that
decode is tested against.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional

from repro.errors import XRPCFault
from repro.xdm.atomic import AtomicValue, cast
from repro.xdm.nodes import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    Node,
    NodeFactory,
    ProcessingInstructionNode,
    TextNode,
    copy_into,
)
from repro.xdm.types import type_by_name, is_known_type, xs
from repro.xml.serializer import escape_attribute, escape_text, serialize_into

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

    Streams envelope markup and ``s2n``-equivalent value holders straight
    into a string buffer; node-typed items are serialized directly from
    their live XDM trees.  Compared with the old
    ``NodeFactory``-tree-then-``serialize`` pipeline this removes one
    full tree materialisation (and its deep copies) per message.

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
        self.start(f"{XRPC_PREFIX}:sequence")
        for item in items:
            self.value(item)
        self.end()

    def value(self, item) -> None:
        """Emit one value holder, mirroring ``_marshal_item``."""
        if isinstance(item, AtomicValue):
            self.element(f"{XRPC_PREFIX}:atomic-value",
                         (("xsi:type", item.type.name),),
                         item.string_value())
            return
        if isinstance(item, ElementNode):
            self.start(f"{XRPC_PREFIX}:element")
            self.node(item)
            self.end()
            return
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


def marshal_fingerprint(params: list[list]) -> str:
    """Canonical serialized form of one call's parameter list.

    Two parameter lists with equal fingerprints marshal to identical
    wire bytes, so a bulk result computed for one answers the other.
    Used by the Bulk RPC replayer for O(1) index-keyed matching.
    """
    writer = MarshalWriter()
    for param in params:
        writer.sequence(param)
    fingerprint = writer.getvalue()
    writer.release()
    return fingerprint


def s2n(sequence: list, factory: Optional[NodeFactory] = None) -> ElementNode:
    """Marshal an XDM sequence into an ``<xrpc:sequence>`` element."""
    factory = factory or NodeFactory()
    wrapper = factory.element(f"{XRPC_PREFIX}:sequence",
                              "http://monetdb.cwi.nl/XQuery")
    for item in sequence:
        wrapper.append(_marshal_item(item, factory))
    return wrapper


def _marshal_item(item, factory: NodeFactory) -> Node:
    ns = "http://monetdb.cwi.nl/XQuery"
    if isinstance(item, AtomicValue):
        holder = factory.element(f"{XRPC_PREFIX}:atomic-value", ns)
        holder.set_attribute(
            factory.attribute("xsi:type", item.type.name, XSI_NS))
        text = item.string_value()
        if text:
            holder.append(factory.text(text))
        return holder
    if isinstance(item, ElementNode):
        holder = factory.element(f"{XRPC_PREFIX}:element", ns)
        holder.append(copy_into(item, factory))
        return holder
    if isinstance(item, DocumentNode):
        holder = factory.element(f"{XRPC_PREFIX}:document", ns)
        for child in item.children:
            holder.append(copy_into(child, factory))
        return holder
    if isinstance(item, AttributeNode):
        holder = factory.element(f"{XRPC_PREFIX}:attribute", ns)
        holder.set_attribute(
            factory.attribute(item.name, item.value, item.ns_uri))
        return holder
    if isinstance(item, TextNode):
        holder = factory.element(f"{XRPC_PREFIX}:text", ns)
        if item.content:
            holder.append(factory.text(item.content))
        return holder
    if isinstance(item, CommentNode):
        holder = factory.element(f"{XRPC_PREFIX}:comment", ns)
        if item.content:
            holder.append(factory.text(item.content))
        return holder
    if isinstance(item, ProcessingInstructionNode):
        holder = factory.element(f"{XRPC_PREFIX}:pi", ns)
        holder.set_attribute(factory.attribute("target", item.target))
        if item.content:
            holder.append(factory.text(item.content))
        return holder
    raise XRPCFault("env:Sender", f"cannot marshal item {item!r}")


def atomic_value(type_name: Optional[str], text: str) -> AtomicValue:
    """The value an ``xrpc:atomic-value`` holder ships: *text* as the
    type its ``xsi:type`` names (``xs:string`` when it names none)."""
    raw = AtomicValue(text, xs.untypedAtomic)
    if type_name is None:
        type_name = "xs:string"
    elif not is_known_type(type_name):
        # Unknown (user-defined) type: degrade to untypedAtomic, as the
        # paper allows for anonymous user-defined schema types.
        return raw
    return cast(raw, type_by_name(type_name))


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


def n2s(sequence_element: ElementNode) -> list:
    """Unmarshal an ``<xrpc:sequence>`` element back into an XDM sequence.

    Single-pass: node values are *adopted* out of the message tree —
    detached from their holder with the parent link cleared — rather
    than deep-copied a second time.  The parsed message tree is itself a
    fresh copy of the sender's data, so adoption preserves the
    call-by-value guarantee (empty upward/sideways axes) at zero cost.
    """
    result: list = []
    for holder in sequence_element.child_elements():
        result.append(_unmarshal_item(holder))
    return result


def _adopt(holder: ElementNode, node: Node) -> Node:
    """Detach *node* from its holder: a standalone fragment, no copy.

    The fragment becomes a tree root of its own; any structural index
    covering the message tree is invalidated so a later query against
    the fragment builds its own pre/size/level view (the parse pass
    already stamped the encoding; subtree serials stay dense).
    """
    node._invalidate_index()
    holder.children.remove(node)
    node.parent = None
    return node


def _unmarshal_item(holder: ElementNode):
    kind = holder.local_name
    if kind == "atomic-value":
        type_attr = holder.get_attribute("xsi:type") or holder.get_attribute("type")
        return atomic_value(type_attr.value if type_attr else None,
                            holder.string_value())
    if kind == "element":
        element = next(
            (c for c in holder.children if isinstance(c, ElementNode)), None)
        if element is None:
            raise XRPCFault("env:Sender", "xrpc:element holder without child element")
        return _adopt(holder, element)
    if kind == "document":
        # Reuse the holder's order key for the document node: it precedes
        # its adopted children's keys, keeping document order consistent.
        document = DocumentNode(holder.order_key)
        holder._invalidate_index()
        children = list(holder.children)
        holder.children.clear()
        for child in children:
            document.append(child)
        return document
    if kind == "attribute":
        index = shipped_attribute(
            (attribute.name, attribute.ns_uri)
            for attribute in holder.attributes)
        if index is None:
            raise XRPCFault("env:Sender", "xrpc:attribute holder without attribute")
        source = holder.attributes[index]
        source.parent = None
        return source
    if kind == "text":
        return TextNode(holder.order_key, holder.string_value())
    if kind == "comment":
        return CommentNode(holder.order_key, holder.string_value())
    if kind == "pi":
        target_attr = holder.get_attribute("target")
        target = target_attr.value if target_attr else "pi"
        return ProcessingInstructionNode(
            holder.order_key, target, holder.string_value())
    raise XRPCFault("env:Sender", f"unknown XRPC value element <{kind}>")


# Convenience aliases used by the message layer -----------------------------


def sequence_to_parts(sequence: list, factory: NodeFactory) -> ElementNode:
    return s2n(sequence, factory)


def parts_to_sequence(element: ElementNode) -> list:
    return n2s(element)
