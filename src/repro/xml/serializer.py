"""Serialization of XDM trees back to XML text.

Mirrors the XQuery serialization spec closely enough for the XRPC
protocol: predefined entities are escaped in text and attribute content,
attributes keep document order, and an optional indent mode is provided
for human-readable output (never used on the wire, where whitespace is
significant).
"""

from __future__ import annotations

import re
from typing import Iterable

from repro.errors import DynamicError
from repro.xdm.nodes import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    Node,
    ProcessingInstructionNode,
    TextNode,
)

# Most text runs and attribute values on the XRPC wire contain no
# characters that need escaping, so both escape functions do one
# C-level membership scan first and return the *same string object*
# when nothing matches — chained ``.replace`` copies otherwise.  ``\r``
# is a special in both: a parser turns a raw one into ``\n`` (a space
# in an attribute), so only ``&#13;`` arrives as it left.  The same
# scan finds the characters XML 1.0 cannot carry at all, not even as a
# character reference (its ``Char`` production): writing one would
# make the receiver refuse the whole document, so it is an error here.
_NOT_XML = "\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff"
_TEXT_SPECIALS = re.compile(f"[&<>\r{_NOT_XML}]").search
_ATTR_SPECIALS = re.compile(f'[&<"\n\t\r{_NOT_XML}]').search
_NOT_XML_CHAR = re.compile(f"[{_NOT_XML}]")


def _refuse_non_xml(text: str, start: int) -> None:
    """Raise SERE0006 if *text* holds a character XML 1.0 cannot carry
    at or after *start*."""
    match = _NOT_XML_CHAR.search(text, start)
    if match is not None:
        raise DynamicError(
            "SERE0006", f"character U+{ord(match.group()):04X} cannot be "
            "serialized as XML 1.0")


def xml_safe(text: str) -> str:
    """*text* with every character XML 1.0 cannot carry replaced by
    U+FFFD — for diagnostic prose (a fault reason), never for data."""
    return _NOT_XML_CHAR.sub("\ufffd", text)


def escape_text(text: str) -> str:
    """Escape character data content."""
    match = _TEXT_SPECIALS(text)
    if match is None:
        return text
    _refuse_non_xml(text, match.start())
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#13;")
    )


def escape_attribute(text: str) -> str:
    """Escape attribute values (quoted with double quotes)."""
    match = _ATTR_SPECIALS(text)
    if match is None:
        return text
    _refuse_non_xml(text, match.start())
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
        .replace("\t", "&#9;")
        .replace("\r", "&#13;")
    )


def serialize(node: Node, indent: bool = False,
              xml_declaration: bool = False) -> str:
    """Serialize a node (tree) to XML text.

    Parameters
    ----------
    node:
        Any XDM node; documents serialize their children in order.
    indent:
        Pretty-print with two-space indentation.  Only safe for data
        without mixed content.
    xml_declaration:
        Prepend ``<?xml version="1.0" encoding="utf-8"?>``.
    """
    pieces: list[str] = []
    if xml_declaration:
        pieces.append('<?xml version="1.0" encoding="utf-8"?>')
        if indent:
            pieces.append("\n")
    if indent:
        _serialize_node(node, pieces, indent, level=0, scope={})
    else:
        _serialize_wire(node, pieces, scope={})
    return "".join(pieces)


def serialize_into(node: Node, out: list[str],
                   scope: dict[str, str] | None = None) -> None:
    """Serialize a node (tree) by appending pieces to an existing buffer.

    ``scope`` holds the prefix->URI bindings already declared by the
    surrounding markup, so fragments embedded in a larger document (the
    streaming SOAP writer) don't redeclare prefixes the envelope binds.
    """
    _serialize_wire(node, out, scope or {})


def serialize_sequence(items: Iterable[object]) -> str:
    """Serialize a sequence the way XQuery result output does.

    Adjacent atomic values are separated by single spaces; nodes are
    serialized as markup.
    """
    from repro.xdm.atomic import AtomicValue

    pieces: list[str] = []
    previous_atomic = False
    for item in items:
        if isinstance(item, AtomicValue):
            if previous_atomic:
                pieces.append(" ")
            pieces.append(escape_text(item.string_value()))
            previous_atomic = True
        elif isinstance(item, Node):
            pieces.append(serialize(item))
            previous_atomic = False
        else:
            raise TypeError(f"cannot serialize {type(item).__name__}")
    return "".join(pieces)


def _serialize_wire(node: Node, out: list[str],
                    scope: dict[str, str]) -> None:
    """Non-indent (wire) emitter: the single-pass fast path shared by
    ``serialize``/``serialize_into`` and ``soap.MarshalWriter``.

    Byte-identical to ``_serialize_node(indent=False)``, but tuned for
    the message hot path: text children append straight to the output
    as pre-escaped string frames (batched text runs, no frame tuple per
    text node), namespace scopes are only copied when an element
    actually declares or auto-declares a binding, and child/attribute
    lists are read directly.  The indent path keeps the general emitter.
    """
    append = out.append
    # A frame carries the default namespace in scope beside the scope, so
    # the common element (unqualified, no default) costs one identity test.
    stack: list = [(node, scope, scope.get("") or None)]
    while stack:
        frame = stack.pop()
        if type(frame) is str:
            append(frame)
            continue
        node, scope, default = frame
        if type(node) is TextNode:
            append(escape_text(node.content))
            continue
        if isinstance(node, ElementNode):
            name = node.name
            attributes = node._attributes
            inherited = node.namespace_declarations
            if inherited:
                declarations = dict(inherited)
                child_scope = {**scope, **inherited}
                default = child_scope.get("") or None
            else:
                declarations = None
                child_scope = scope       # copied lazily on auto-declare
            if ":" in name:
                owners = (node, *attributes) if attributes else (node,)
            else:
                owners = attributes
                # An unprefixed element declares the default namespace it
                # is in — or undeclares it, xmlns="" — where the scope's
                # differs.
                ns_uri = node.ns_uri
                if ns_uri is not default and ns_uri != default:
                    declarations = declarations or {}
                    if child_scope is scope:
                        child_scope = dict(scope)
                    declarations[""] = child_scope[""] = ns_uri or ""
                    default = ns_uri or None
            # Auto-declare prefixes in use on this element or its
            # attributes but unbound in scope (constructed trees carry
            # resolved ns_uri without xmlns attrs).
            for owner in owners:
                owner_name = owner.name
                if ":" not in owner_name:
                    continue
                ns_uri = owner.ns_uri
                if ns_uri is None:
                    continue
                prefix = owner_name.split(":", 1)[0]
                if prefix in ("xml", "xmlns"):
                    continue
                if child_scope.get(prefix) != ns_uri:
                    if declarations is None:
                        declarations = {}
                    if child_scope is scope:
                        child_scope = dict(scope)
                    declarations[prefix] = ns_uri
                    child_scope[prefix] = ns_uri
            append("<" + name)
            if declarations:
                for prefix, uri in sorted(declarations.items()):
                    xmlns = "xmlns" if prefix == "" else "xmlns:" + prefix
                    if not any(a.name == xmlns for a in attributes):
                        append(" " + xmlns + '="' + escape_attribute(uri)
                               + '"')
            for attribute in attributes:
                append(" " + attribute.name + '="'
                       + escape_attribute(attribute.value) + '"')
            children = node._children
            if not children:
                append("/>")
                continue
            append(">")
            if len(children) == 1 and type(children[0]) is TextNode:
                # Leaf with one text child — the dominant shape in XRPC
                # value holders; skip the frame round-trip entirely.
                append(escape_text(children[0].content))
                append("</" + name + ">")
                continue
            stack.append("</" + name + ">")
            for child in reversed(children):
                if type(child) is TextNode:
                    stack.append(escape_text(child.content))
                else:
                    stack.append((child, child_scope, default))
            continue
        if isinstance(node, DocumentNode):
            for child in reversed(node._children):
                stack.append((child, scope, default))
            continue
        if isinstance(node, TextNode):
            append(escape_text(node.content))
            continue
        if isinstance(node, CommentNode):
            _refuse_non_xml(node.content, 0)
            append("<!--" + node.content + "-->")
            continue
        if isinstance(node, ProcessingInstructionNode):
            _refuse_non_xml(node.content, 0)
            append("<?" + node.target + " " + node.content + "?>")
            continue
        if isinstance(node, AttributeNode):
            append(node.name + '="' + escape_attribute(node.value) + '"')
            continue
        raise TypeError(f"cannot serialize node kind {node.kind}")


def _serialize_node(node: Node, out: list[str], indent: bool, level: int,
                    scope: dict[str, str]) -> None:
    """Iterative serialization: an explicit frame stack replaces the
    call stack, so deep trees (XRPC payloads nest thousands of levels)
    serialize under the default recursion limit.  A frame is either a
    literal string to emit or a ``(node, indent, level, scope)`` tuple;
    element frames expand into their pieces plus child frames in
    document order.  Output is byte-identical to the old recursion.
    """
    stack: list = [(node, indent, level, scope)]
    while stack:
        frame = stack.pop()
        if isinstance(frame, str):
            out.append(frame)
            continue
        node, indent, level, scope = frame
        pad = "  " * level if indent else ""
        if isinstance(node, DocumentNode):
            tokens: list = []
            for child in node.children:
                tokens.append((child, indent, level, scope))
                if indent:
                    tokens.append("\n")
            stack.extend(reversed(tokens))
            continue
        if isinstance(node, ElementNode):
            declarations = dict(node.namespace_declarations)
            child_scope = {**scope, **declarations}
            if (child_scope.get("") or None) != node.ns_uri \
                    and ":" not in node.name:
                declarations[""] = child_scope[""] = node.ns_uri or ""
            # Auto-declare prefixes in use on this element but unbound in
            # scope (constructed trees carry resolved ns_uri without
            # xmlns attrs).
            for owner in (node, *node.attributes):
                name = owner.name
                ns_uri = getattr(owner, "ns_uri", None)
                if ":" not in name or ns_uri is None:
                    continue
                prefix = name.split(":", 1)[0]
                if prefix in ("xml", "xmlns"):
                    continue
                if child_scope.get(prefix) != ns_uri:
                    declarations[prefix] = ns_uri
                    child_scope[prefix] = ns_uri
            out.append(f"{pad}<{node.name}")
            for prefix, uri in sorted(declarations.items()):
                name = "xmlns" if prefix == "" else f"xmlns:{prefix}"
                if not any(a.name == name for a in node.attributes):
                    out.append(f' {name}="{escape_attribute(uri)}"')
            for attribute in node.attributes:
                out.append(
                    f' {attribute.name}="{escape_attribute(attribute.value)}"')
            if not node.children:
                out.append("/>")
                continue
            out.append(">")
            only_text = all(isinstance(c, TextNode) for c in node.children)
            tokens = []
            if indent and not only_text:
                for child in node.children:
                    tokens.append("\n")
                    tokens.append((child, indent, level + 1, child_scope))
                tokens.append(f"\n{pad}</{node.name}>")
            else:
                for child in node.children:
                    tokens.append((child, False, 0, child_scope))
                tokens.append(f"</{node.name}>")
            stack.extend(reversed(tokens))
            continue
        if isinstance(node, TextNode):
            out.append(pad + escape_text(node.content))
            continue
        if isinstance(node, CommentNode):
            _refuse_non_xml(node.content, 0)
            out.append(f"{pad}<!--{node.content}-->")
            continue
        if isinstance(node, ProcessingInstructionNode):
            _refuse_non_xml(node.content, 0)
            out.append(f"{pad}<?{node.target} {node.content}?>")
            continue
        if isinstance(node, AttributeNode):
            # A standalone attribute serializes like the paper's example:
            # <xrpc:attribute x="y"/> wraps it; bare attributes render
            # name="value".
            out.append(f'{node.name}="{escape_attribute(node.value)}"')
            continue
        raise TypeError(f"cannot serialize node kind {node.kind}")
