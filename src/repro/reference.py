"""The reference oracles: what the product's answers are checked against.

*Queries* — :func:`evaluate`: the interpreter of
:mod:`repro.xquery.evaluator` with every path step evaluated the slow,
obviously-correct way — per context node, walk the node's own
parent/child links, filter, sort the pooled results into document order
— and no index of any kind: no :class:`StructuralIndex` window scans, no
:class:`ValueIndex` probes, no FLWOR hash joins.  It shares the language
semantics with what it checks, and none of the storage-layer machinery.

*Unmarshalling* — :func:`n2s`: the value holders of an ``xrpc:sequence``
read off a message that was parsed into a whole tree first; it shares
the holder vocabulary with the event-driven decode it checks
(:class:`repro.soap.messages._MessageDecoder`) and none of its state
machine.

*Parsing* — :func:`parse_document`: a hand-written XML parser (a scanner
and an explicit stack) that builds its tree through
:class:`NodeFactory`.  It shares the node classes with the tree builder
it checks (:mod:`repro.xml.expat_parser`, which mints keys and stamps
``pre``/``size``/``level`` inline) and none of its handlers.  It is
laxer than XML 1.0 — it does not check the ``Char`` production, and it
skips an internal subset instead of refusing its declarations — so it is
an oracle for trees, not for what is a document.

Only tests import this module; nothing under ``src/`` does (CI checks).
``Database(try_lifted=False)`` is *not* this: that is the product's
interpreter, whose path steps run the lifted plan's kernels
(:mod:`repro.algebra.paths`), value-index probe included.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterable, Optional

from repro.errors import TypeError_, XRPCFault
from repro.soap.marshal import atomic_value, shipped_attribute
from repro.xdm.atomic import AtomicValue
from repro.xdm.nodes import (
    CommentNode,
    DocumentNode,
    ElementNode,
    Node,
    NodeFactory,
    ProcessingInstructionNode,
    TextNode,
)
from repro.xdm.sequence import document_order_sort
from repro.xml.parser import XML_URI, XMLNS_URI, XMLSyntaxError
from repro.xquery import xast as A
from repro.xquery.context import DynamicContext, ExecutionContext
from repro.xquery.evaluator import CompiledQuery, Evaluator, Sequence, node_test_matches


#: Axis name -> the nodes on that axis of one context node, read off
#: the node's own links (the parser admits no other axis name).
_WALKERS: dict[str, Callable[[Node], Iterable[Node]]] = {
    "child": lambda node: node.children,
    "descendant": lambda node: node.descendants(),
    "descendant-or-self": lambda node: node.descendants(include_self=True),
    "attribute": lambda node: node.attributes,
    "self": lambda node: [node],
    "parent": lambda node: [node.parent] if node.parent is not None else [],
    "ancestor": lambda node: node.ancestors(),
    "ancestor-or-self": lambda node: [node, *node.ancestors()],
    "following-sibling": lambda node: node.following_siblings(),
    "preceding-sibling": lambda node: node.preceding_siblings(),
    "following": lambda node: node.following(),
    "preceding": lambda node: node.preceding(),
}


class ReferenceEvaluator(Evaluator):
    """The interpreter with per-node axis walks and no indexes."""

    def _eval_axis_step(self, step: A.AxisStep, input_sequence: Sequence,
                        ctx: DynamicContext) -> Sequence:
        for item in input_sequence:
            if not isinstance(item, Node):
                raise TypeError_(
                    "XPTY0019", "path step applied to a non-node item")
        results: list[Node] = []
        for item in input_sequence:
            candidates = [
                node for node in _WALKERS[step.axis](item)
                if node_test_matches(node, step.node_test, step.axis,
                                     ctx.static, ctx.constructor_namespaces)
            ]
            candidates = self._apply_predicates(candidates, step.predicates, ctx)
            results.extend(candidates)
        return document_order_sort(results)

    def _apply_predicates(self, items: Sequence, predicates: list,
                          ctx: DynamicContext) -> Sequence:
        # Every predicate evaluated per item, the positional shapes too:
        # the product ranks those with the helper this oracle checks.
        for predicate in predicates:
            items = self._filter_by_value(items, predicate, ctx)
        return items


class _ReferenceQuery(CompiledQuery):
    evaluator_class = ReferenceEvaluator


#: Compiled once per source text, like the engine's plan cache: the
#: update matrices ask the same probes after every operation.
_compile = functools.lru_cache(maxsize=512)(_ReferenceQuery)


def evaluate(source: str,
             doc_resolver: Optional[Callable[[str], DocumentNode]] = None,
             variables: Optional[dict[str, list]] = None,
             context_item: Any = None) -> Sequence:
    """The result sequence of *source* according to the oracle.

    Reads only: a pending update list is dropped, not applied (update
    tests compare against a fresh parse of the serialized tree).
    """
    result, _pul = _compile(source).run(ExecutionContext(
        doc_resolver=doc_resolver,
        variables=variables,
        context_item=context_item,
    ))
    return result


# ---------------------------------------------------------------------------
# Unmarshalling


def n2s(sequence_element: ElementNode) -> list[AtomicValue | Node]:
    """Unmarshal a parsed ``<xrpc:sequence>`` element into an XDM sequence.

    Node values are *adopted* out of the message tree — detached from
    their holder with the parent link cleared — rather than deep-copied:
    the parsed message tree is itself a fresh copy of the sender's data,
    so adoption keeps the call-by-value guarantee (empty upward/sideways
    axes).
    """
    return [_unmarshal_item(holder)
            for holder in sequence_element.child_elements()]


def _adopt(holder: ElementNode, node: Node) -> Node:
    """Detach *node* from its holder: a standalone fragment, no copy.

    The fragment becomes a tree root of its own; any structural index
    covering the message tree is invalidated so a later query against
    the fragment builds its own pre/size/level view.
    """
    node._invalidate_index()
    holder.children.remove(node)
    node.parent = None
    return node


def _unmarshal_item(holder: ElementNode) -> AtomicValue | Node:
    kind = holder.local_name
    if kind == "atomic-value":
        type_attr = holder.get_attribute("xsi:type") \
            or holder.get_attribute("type")
        return atomic_value(type_attr.value if type_attr else None,
                            holder.string_value())
    if kind == "element":
        element = next(
            (c for c in holder.children if isinstance(c, ElementNode)), None)
        if element is None:
            raise XRPCFault(
                "env:Sender", "xrpc:element holder without child element")
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
            raise XRPCFault(
                "env:Sender", "xrpc:attribute holder without attribute")
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


# ---------------------------------------------------------------------------
# Parsing


_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_NAME_START_EXTRA = set("_:")
_NAME_EXTRA = set("_:-.")


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch in _NAME_START_EXTRA


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in _NAME_EXTRA


class _Scanner:
    """Cursor over the raw XML text with position tracking."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.length = len(text)

    def location(self) -> tuple[int, int]:
        consumed = self.text[: self.pos]
        line = consumed.count("\n") + 1
        column = self.pos - (consumed.rfind("\n") + 1) + 1
        return line, column

    def error(self, message: str) -> XMLSyntaxError:
        line, column = self.location()
        return XMLSyntaxError(message, line, column)

    def at_end(self) -> bool:
        return self.pos >= self.length

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < self.length else ""

    def startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def advance(self, count: int = 1) -> None:
        self.pos += count

    def expect(self, token: str) -> None:
        if not self.startswith(token):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def skip_whitespace(self) -> None:
        while self.pos < self.length and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def read_until(self, token: str, error_message: str) -> str:
        index = self.text.find(token, self.pos)
        if index < 0:
            raise self.error(error_message)
        chunk = self.text[self.pos:index]
        self.pos = index + len(token)
        return chunk

    def read_name(self) -> str:
        start = self.pos
        if self.at_end() or not _is_name_start(self.peek()):
            raise self.error("expected XML name")
        self.advance()
        while not self.at_end() and _is_name_char(self.peek()):
            self.advance()
        return self.text[start:self.pos]


class _Parser:
    def __init__(self, text: str, uri: Optional[str]) -> None:
        if "\r" in text:
            # XML 1.0 §2.11 end-of-line handling (expat does the same).
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        self.scanner = _Scanner(text)
        self.factory = NodeFactory()
        self.uri = uri

    # -- entry points ------------------------------------------------------

    def parse_document(self) -> DocumentNode:
        document = self.factory.document(self.uri)
        scanner = self.scanner
        self._skip_prolog(document)
        scanner.skip_whitespace()
        if scanner.at_end() or scanner.peek() != "<":
            raise scanner.error("expected root element")
        root = self._parse_element(
            namespaces={"xml": XML_URI},
            level=1)
        document.append(root)
        # Trailing misc: comments / PIs / whitespace only.
        while not scanner.at_end():
            scanner.skip_whitespace()
            if scanner.at_end():
                break
            if scanner.startswith("<!--"):
                document.append(self._parse_comment(level=1))
            elif scanner.startswith("<?"):
                document.append(self._parse_pi(level=1))
            else:
                raise scanner.error("content after document element")
        # pre/size/level stamping completes within the parse pass itself:
        # the document's extent (in serial units — serials are gapped)
        # reaches to the last serial issued inside it.
        document.size = self.factory.last_serial - document.order_key[1]
        return document

    # -- prolog -------------------------------------------------------------

    def _skip_prolog(self, document: DocumentNode) -> None:
        scanner = self.scanner
        scanner.skip_whitespace()
        if scanner.startswith("<?xml"):
            scanner.read_until("?>", "unterminated XML declaration")
        while True:
            scanner.skip_whitespace()
            if scanner.startswith("<!--"):
                document.append(self._parse_comment(level=1))
            elif scanner.startswith("<!DOCTYPE"):
                self._skip_doctype()
            elif scanner.startswith("<?"):
                document.append(self._parse_pi(level=1))
            else:
                break

    def _skip_doctype(self) -> None:
        scanner = self.scanner
        scanner.expect("<!DOCTYPE")
        depth = 1
        while depth > 0:
            if scanner.at_end():
                raise scanner.error("unterminated DOCTYPE")
            ch = scanner.peek()
            if ch == "<":
                depth += 1
            elif ch == ">":
                depth -= 1
            scanner.advance()

    # -- element content ------------------------------------------------------

    def _parse_element(self, namespaces: dict[str, str],
                       level: int = 0) -> ElementNode:
        """Parse one element and its whole subtree, iteratively.

        An explicit stack of open elements replaces the old
        ``_parse_element``/``_parse_content`` mutual recursion, so
        arbitrarily deep documents (XRPC payloads routinely nest
        thousands of levels) parse under the default recursion limit.
        ``size`` is stamped from the factory serial counter when each
        element closes — the same single-pass stamping as before.
        """
        scanner = self.scanner
        root, root_scope, closed = self._parse_open_tag(namespaces, level)
        if closed:
            return root
        # (element, namespace scope, pending text pieces) per open element.
        stack: list[tuple[ElementNode, dict[str, str], list[str]]] = [
            (root, root_scope, [])]
        while stack:
            element, scope, text_buffer = stack[-1]
            content_level = element.level + 1

            def flush_text() -> None:
                if text_buffer:
                    element.append(self.factory.text(
                        "".join(text_buffer), level=content_level))
                    text_buffer.clear()

            if scanner.at_end():
                raise scanner.error(f"unterminated element <{element.name}>")
            if scanner.startswith("</"):
                flush_text()
                scanner.advance(2)
                closing = scanner.read_name()
                if closing != element.name:
                    raise scanner.error(
                        f"mismatched end tag: expected </{element.name}>, "
                        f"found </{closing}>")
                scanner.skip_whitespace()
                scanner.expect(">")
                # Subtree complete: extent reaches the last issued serial.
                element.size = self.factory.last_serial - element.order_key[1]
                stack.pop()
            elif scanner.startswith("<!--"):
                flush_text()
                element.append(self._parse_comment(level=content_level))
            elif scanner.startswith("<![CDATA["):
                scanner.advance(9)
                text_buffer.append(
                    scanner.read_until("]]>", "unterminated CDATA section"))
            elif scanner.startswith("<?"):
                flush_text()
                element.append(self._parse_pi(level=content_level))
            elif scanner.peek() == "<":
                flush_text()
                child, child_scope, child_closed = self._parse_open_tag(
                    scope, content_level)
                element.append(child)
                if not child_closed:
                    stack.append((child, child_scope, []))
            else:
                start = scanner.pos
                while not scanner.at_end() and scanner.peek() not in "<":
                    scanner.advance()
                raw = scanner.text[start:scanner.pos]
                text_buffer.append(self._expand_references(raw))
        return root

    def _parse_open_tag(self, namespaces: dict[str, str],
                        level: int) -> tuple[ElementNode, dict[str, str], bool]:
        """Parse a start (or empty-element) tag; returns the element, its
        namespace scope, and whether it was self-closing."""
        scanner = self.scanner
        scanner.expect("<")
        name = scanner.read_name()

        raw_attributes: list[tuple[str, str]] = []
        while True:
            scanner.skip_whitespace()
            if scanner.startswith("/>") or scanner.startswith(">"):
                break
            attr_name = scanner.read_name()
            scanner.skip_whitespace()
            scanner.expect("=")
            scanner.skip_whitespace()
            quote = scanner.peek()
            if quote not in ("'", '"'):
                raise scanner.error("attribute value must be quoted")
            scanner.advance()
            raw_value = scanner.read_until(quote, "unterminated attribute value")
            if "<" in raw_value:
                raise scanner.error("'<' in attribute value")
            # XML 1.0 §3.3.3 attribute-value normalization: literal
            # whitespace becomes a space *before* reference expansion
            # (&#10;/&#9; survive), matching expat.
            if "\n" in raw_value or "\t" in raw_value:
                raw_value = raw_value.replace("\n", " ").replace("\t", " ")
            value = self._expand_references(raw_value)
            if any(existing == attr_name for existing, _ in raw_attributes):
                raise scanner.error(f"duplicate attribute {attr_name!r}")
            raw_attributes.append((attr_name, value))

        # Resolve namespaces: xmlns declarations on this element first.
        scope = dict(namespaces)
        declarations: dict[str, str] = {}
        for attr_name, value in raw_attributes:
            if attr_name == "xmlns":
                scope[""] = value
                declarations[""] = value
            elif attr_name.startswith("xmlns:"):
                prefix = attr_name.split(":", 1)[1]
                scope[prefix] = value
                declarations[prefix] = value

        element = self.factory.element(
            name, self._resolve(name, scope, default=True), level=level)
        element.namespace_declarations = declarations
        for attr_name, value in raw_attributes:
            if attr_name == "xmlns" or attr_name.startswith("xmlns:"):
                ns_uri: Optional[str] = XMLNS_URI
            else:
                ns_uri = self._resolve(attr_name, scope, default=False)
            element.set_attribute(self.factory.attribute(
                attr_name, value, ns_uri, level=level + 1))

        if scanner.startswith("/>"):
            element.size = self.factory.last_serial - element.order_key[1]
            scanner.advance(2)
            return element, scope, True
        scanner.expect(">")
        return element, scope, False

    def _parse_comment(self, level: int = 0) -> Node:
        self.scanner.expect("<!--")
        content = self.scanner.read_until("-->", "unterminated comment")
        if "--" in content:
            raise self.scanner.error("'--' not allowed inside comment")
        return self.factory.comment(content, level=level)

    def _parse_pi(self, level: int = 0) -> Node:
        scanner = self.scanner
        scanner.expect("<?")
        target = scanner.read_name()
        if target.lower() == "xml":
            raise scanner.error("reserved processing-instruction target 'xml'")
        raw = scanner.read_until("?>", "unterminated processing instruction")
        return self.factory.processing_instruction(target, raw.strip(),
                                                   level=level)

    # -- helpers ---------------------------------------------------------------

    def _expand_references(self, text: str) -> str:
        if "&" not in text:
            return text
        parts: list[str] = []
        index = 0
        while index < len(text):
            amp = text.find("&", index)
            if amp < 0:
                parts.append(text[index:])
                break
            parts.append(text[index:amp])
            end = text.find(";", amp)
            if end < 0:
                raise self.scanner.error("unterminated entity reference")
            entity = text[amp + 1:end]
            if entity.startswith("#x") or entity.startswith("#X"):
                parts.append(chr(int(entity[2:], 16)))
            elif entity.startswith("#"):
                parts.append(chr(int(entity[1:])))
            elif entity in _PREDEFINED_ENTITIES:
                parts.append(_PREDEFINED_ENTITIES[entity])
            else:
                raise self.scanner.error(f"unknown entity &{entity};")
            index = end + 1
        return "".join(parts)

    def _resolve(self, qname: str, scope: dict[str, str],
                 default: bool) -> Optional[str]:
        if ":" in qname:
            prefix, _ = qname.split(":", 1)
            if prefix not in scope:
                raise self.scanner.error(f"undeclared namespace prefix {prefix!r}")
            return scope[prefix]
        if default:
            return scope.get("") or None
        return None


def parse_document(text: str, uri: Optional[str] = None) -> DocumentNode:
    """The tree of *text* according to the oracle."""
    return _Parser(text, uri).parse_document()
