"""The tree builder behind ``parse_document``: :mod:`repro.xdm` nodes
made inside the stdlib ``xml.parsers.expat`` parser's C-level events.

Every XRPC request/response body and every cold document registration is
``parse_document``-ed, and that pass is the dominant cost of the message
path.  The handlers here mint gapped order keys and stamp
``pre``/``size``/``level`` **in the same single pass**, so the
:class:`~repro.xdm.structural.StructuralIndex` and the incremental
update path get a finished encoding.  What a tree must look like — node
kinds in document order, lexical QNames and resolved namespace URIs,
``namespace_declarations``, ``(doc_id, serial)`` spacing, ``size``
extents, ``level`` stamps — is held against the hand-written parser of
:mod:`repro.reference` by ``tests/test_parse_frontend.py``.

Expat decides well-formedness; its errors come out as
:class:`~repro.xml.parser.XMLSyntaxError`.  Four handlers add to what it
refuses: internal-subset ``<!ENTITY>`` / ``<!ATTLIST>`` declarations,
external entities, and entities skipped because of an unread external
DTD are syntax errors too (no DTD belongs in a SOAP message, and a
declared entity is never expanded — the entity-bomb guard).

:class:`_EventBuilder` is the same frontend with a consumer in place of
the document: elements are handed over as events, and the tree handlers
above run only for the content the consumer asks to have built — the
one-pass SOAP decode (``parse_document(..., consumer=)``).  Its handlers
are installed once per document; an element inside such content is
passed to the tree handlers by its stack depth alone, so a sequence of
20 000 ``xrpc:element`` holders costs no handler switch.
"""

from __future__ import annotations

import xml.parsers.expat as _expat
from typing import Callable, Optional

from repro.xdm.nodes import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    KEY_STRIDE,
    ProcessingInstructionNode,
    TextNode,
    _next_doc_id,
)
from repro.xml.parser import (
    XML_URI,
    XMLNS_URI,
    EventConsumer,
    EventSource,
    XMLSyntaxError,
)

_XML_SCOPE = {"xml": XML_URI}

# The handlers below build nodes with ``cls.__new__`` + direct attribute
# stores instead of the constructors: one C-level allocation versus a
# two-deep ``__init__`` call chain per node, which is a measurable share
# of the per-event budget at ~10k nodes per XMark document.  The stores
# must mirror the constructors field for field — the differential suite
# (tests/test_parse_frontend.py, tests/test_xdm_nodes.py) pins this.
_NEW_ELEMENT = ElementNode.__new__
_NEW_TEXT = TextNode.__new__
_NEW_ATTRIBUTE = AttributeNode.__new__

#: Shared ``namespace_declarations`` of elements that declare nothing —
#: one dict allocation saved per element.  Safe because no code path
#: mutates an element's declarations in place: every writer (the
#: parser, ``copy_tree``, the constructor evaluator) assigns a fresh
#: dict, and every reader copies before mutating.
_NO_DECLARATIONS: dict = {}


class _TreeBuilder:
    """Builds one XDM tree from expat events.

    The handlers are the per-node hot path (one ``StartElementHandler``
    call per element at C speed), so they mint order keys inline —
    ``serial``/:data:`KEY_STRIDE` arithmetic identical to
    :class:`~repro.xdm.nodes.NodeFactory` — and wire parent/child links
    directly instead of going through ``append()`` (no structural index
    exists during the parse, so there is nothing to invalidate).
    """

    __slots__ = ("_doc_id", "_serial", "_document", "_stack",
                 "_scope", "_default_uri", "_scope_stack", "_text",
                 "_parser")

    def __init__(self, uri: Optional[str]) -> None:
        self._doc_id = _next_doc_id()
        document = DocumentNode((self._doc_id, 0), uri)
        document.level = 0
        self._serial = KEY_STRIDE
        self._document = document
        # Open containers, document at the bottom — a new child's level
        # is simply len(stack).  The namespace scope is kept *off* the
        # stack (declarations are rare): ``_scope``/``_default_uri`` are
        # the current bindings, and ``_scope_stack`` records
        # ``(level, scope, default_uri)`` to restore when the element
        # that declared new bindings closes.
        self._stack: list = [document]
        self._scope: dict = _XML_SCOPE
        self._default_uri: Optional[str] = None
        self._scope_stack: list[tuple] = []
        self._text: list[str] = []

    # -- hot-path handlers --------------------------------------------------

    def _start_element(self, name: str, attrs: list) -> None:
        stack = self._stack
        parent = stack[-1]
        doc_id = self._doc_id
        stride = KEY_STRIDE
        serial = self._serial
        parts = self._text
        level = len(stack)
        if parts:
            text = _NEW_TEXT(TextNode)
            text.order_key = (doc_id, serial)
            serial += stride
            text.content = "".join(parts)
            text.size = 0
            text.level = level
            text._sidx = None
            text._struct_gen = 0
            text.parent = parent
            parent._children.append(text)
            del parts[:]
        element = _NEW_ELEMENT(ElementNode)
        element.order_key = (doc_id, serial)
        serial += stride
        element.level = level
        element._sidx = None
        element._struct_gen = 0
        element.name = name
        element._children = []
        if attrs:
            # xmlns declarations on this element first (they scope the
            # element's own name), then the element, then its attributes
            # in document order — the serial order of a NodeFactory
            # build.
            declarations = None
            for index in range(0, len(attrs), 2):
                attr_name = attrs[index]
                if attr_name.startswith("xmlns") and (
                        len(attr_name) == 5 or attr_name[5] == ":"):
                    if declarations is None:
                        declarations = {}
                    declarations[attr_name[6:]] = attrs[index + 1]
            if declarations:
                self._scope_stack.append(
                    (level, self._scope, self._default_uri))
                self._scope = scope = {**self._scope, **declarations}
                self._default_uri = scope.get("") or None
                element.namespace_declarations = declarations
            else:
                scope = self._scope
                element.namespace_declarations = _NO_DECLARATIONS
            element.ns_uri = (self._resolve_prefix(name, scope)
                              if ":" in name else self._default_uri)
            element._local_name = \
                name.split(":")[-1] if ":" in name else name
            attr_level = level + 1
            attributes = element._attributes = []
            for index in range(0, len(attrs), 2):
                attr_name = attrs[index]
                if attr_name.startswith("xmlns") and (
                        len(attr_name) == 5 or attr_name[5] == ":"):
                    attr_uri: Optional[str] = XMLNS_URI
                elif ":" in attr_name:
                    attr_uri = self._resolve_prefix(attr_name, scope)
                else:
                    attr_uri = None
                attribute = _NEW_ATTRIBUTE(AttributeNode)
                attribute.order_key = (doc_id, serial)
                serial += stride
                attribute.name = attr_name
                attribute._local_name = \
                    attr_name.split(":")[-1] if ":" in attr_name else attr_name
                attribute.value = attrs[index + 1]
                attribute.ns_uri = attr_uri
                attribute.size = 0
                attribute.level = attr_level
                attribute._sidx = None
                attribute._struct_gen = 0
                attribute.parent = element
                attributes.append(attribute)
        elif ":" in name:
            element.namespace_declarations = _NO_DECLARATIONS
            element.ns_uri = self._resolve_prefix(name, self._scope)
            element._local_name = name.split(":")[-1]
            element._attributes = []
        else:
            element.namespace_declarations = _NO_DECLARATIONS
            element.ns_uri = self._default_uri
            element._local_name = name
            element._attributes = []
        self._serial = serial
        element.parent = parent
        parent._children.append(element)
        stack.append(element)

    def _end_element(self, name: str) -> None:
        stack = self._stack
        element = stack.pop()
        parts = self._text
        serial = self._serial
        if parts:
            text = _NEW_TEXT(TextNode)
            text.order_key = (self._doc_id, serial)
            serial += KEY_STRIDE
            self._serial = serial
            text.content = "".join(parts)
            text.size = 0
            text.level = len(stack) + 1
            text._sidx = None
            text._struct_gen = 0
            text.parent = element
            element._children.append(text)
            del parts[:]
        # Subtree complete: extent reaches the last issued serial.
        element.size = serial - KEY_STRIDE - element.order_key[1]
        scope_stack = self._scope_stack
        if scope_stack and scope_stack[-1][0] == len(stack):
            # This element declared namespaces; restore the outer scope.
            _, self._scope, self._default_uri = scope_stack.pop()

    # -- the rest of the event surface --------------------------------------

    def _flush_text(self) -> None:
        parts = self._text
        if parts:
            parent = self._stack[-1]
            serial = self._serial
            text = TextNode((self._doc_id, serial), "".join(parts))
            self._serial = serial + KEY_STRIDE
            text.level = len(self._stack)
            text.parent = parent
            parent._children.append(text)
            del parts[:]

    def _comment(self, data: str) -> None:
        self._flush_text()
        parent = self._stack[-1]
        serial = self._serial
        node = CommentNode((self._doc_id, serial), data)
        self._serial = serial + KEY_STRIDE
        node.level = len(self._stack)
        node.parent = parent
        parent._children.append(node)

    def _processing_instruction(self, target: str, data: str) -> None:
        self._flush_text()
        parent = self._stack[-1]
        serial = self._serial
        node = ProcessingInstructionNode((self._doc_id, serial), target,
                                         data.strip())
        self._serial = serial + KEY_STRIDE
        node.level = len(self._stack)
        node.parent = parent
        parent._children.append(node)

    def _start_cdata(self) -> None:
        # An empty CDATA section still yields an (empty) text node;
        # seeding the buffer with "" does that, and is a no-op for
        # non-empty sections.
        self._text.append("")

    # -- refused on top of what expat refuses -------------------------------

    def _error(self, message: str) -> XMLSyntaxError:
        parser = self._parser
        return XMLSyntaxError(message, parser.CurrentLineNumber,
                              parser.CurrentColumnNumber + 1)

    def _resolve_prefix(self, qname: str, scope: dict) -> str:
        prefix = qname.split(":", 1)[0]
        uri = scope.get(prefix)
        if uri is None:
            raise self._error(f"undeclared namespace prefix {prefix!r}")
        return uri

    def _entity_decl(self, *args) -> None:
        # Expat would expand references to it — without bound.
        raise self._error("internal-subset entity declaration")

    def _attlist_decl(self, *args) -> None:
        # Expat would inject the declared default attribute values.
        raise self._error("internal-subset attribute-list declaration")

    def _skipped_entity(self, name: str, is_parameter: bool) -> None:
        raise self._error(f"unknown entity &{name};")

    def _external_entity(self, *args) -> int:
        raise self._error("external entity reference")

    # -- the DOCTYPE --------------------------------------------------------

    def _start_doctype(self, *args) -> None:
        # A comment or PI of the internal subset is part of the DTD, not
        # a child of the document.
        parser = self._parser
        parser.CommentHandler = None
        parser.ProcessingInstructionHandler = None

    def _end_doctype(self) -> None:
        parser = self._parser
        parser.CommentHandler = self._comment
        parser.ProcessingInstructionHandler = self._processing_instruction

    # -- driving ------------------------------------------------------------

    def _install(self, parser) -> None:
        """The handlers that build tree nodes."""
        parser.StartElementHandler = self._start_element
        parser.EndElementHandler = self._end_element
        parser.CommentHandler = self._comment
        parser.ProcessingInstructionHandler = self._processing_instruction

    def parse(self, data: str) -> DocumentNode:
        parser = _expat.ParserCreate(intern={})
        self._parser = parser
        parser.ordered_attributes = True
        parser.buffer_text = True
        self._install(parser)
        parser.CharacterDataHandler = self._text.append
        parser.StartCdataSectionHandler = self._start_cdata
        parser.EntityDeclHandler = self._entity_decl
        parser.AttlistDeclHandler = self._attlist_decl
        parser.SkippedEntityHandler = self._skipped_entity
        parser.ExternalEntityRefHandler = self._external_entity
        parser.StartDoctypeDeclHandler = self._start_doctype
        parser.EndDoctypeDeclHandler = self._end_doctype
        try:
            parser.Parse(data, True)
        except _expat.ExpatError as exc:
            message = _expat.errors.messages.get(exc.code, str(exc))
            raise XMLSyntaxError(message, exc.lineno, exc.offset + 1) \
                from None
        except UnicodeEncodeError as exc:
            # A lone surrogate: not a character, and no ExpatError
            # because it never reaches expat.
            line = data.count("\n", 0, exc.start) + 1
            raise XMLSyntaxError(
                _expat.errors.XML_ERROR_INVALID_TOKEN, line,
                exc.start - data.rfind("\n", 0, exc.start)) from None
        finally:
            # Break the parser<->handler reference cycle promptly (the
            # builder holds the parser, the parser holds bound methods).
            self._parser = None
            parser.StartElementHandler = None
            parser.EndElementHandler = None
            parser.CharacterDataHandler = None
            parser.CommentHandler = None
            parser.ProcessingInstructionHandler = None
            parser.StartCdataSectionHandler = None
            parser.EntityDeclHandler = None
            parser.AttlistDeclHandler = None
            parser.SkippedEntityHandler = None
            parser.ExternalEntityRefHandler = None
            parser.StartDoctypeDeclHandler = None
            parser.EndDoctypeDeclHandler = None
        document = self._document
        document.size = self._serial - KEY_STRIDE
        return document


class _Holder:
    """Stands on the builder's stack for an element whose content is
    being built as fragments: the tree handlers append to it like to any
    open container, and closing it hands the list over."""

    __slots__ = ("_children",)


class _Discard:
    """The consumer in place once the real one has failed."""

    def start_element(self, name: str, local_name: str,
                      ns_uri: Optional[str], attributes: list) -> bool:
        return False

    def characters(self, data: str) -> None:
        pass

    def end_element(self, fragments: Optional[list]) -> None:
        pass


#: ``_fragment_depth`` while no element's content is being built.
_NO_FRAGMENTS = 1 << 62


class _EventBuilder(_TreeBuilder):
    """Feeds an :class:`~repro.xml.parser.EventConsumer` from expat
    events, building tree nodes only where the consumer asks for them.

    Elements reach the consumer as events — names resolved against the
    same namespace scope the tree handlers keep — and allocate nothing.
    When ``start_element`` answers true, that element's content is built
    as parentless fragments with the keys, ``size`` and ``level`` stamps
    a whole-document parse would have given them (the scope, and
    therefore any prefix declared further out, carries over), and is
    delivered with the element's ``end_element``.  The handlers are
    installed once: which side an element falls on is its stack depth,
    compared with ``_fragment_depth`` as it opens and closes — so a
    sequence of holders costs one consumer verdict and one delivery per
    holder, and no handler switch.  Comments and processing instructions
    outside such content are not events.

    An exception from the consumer is held until the document has proved
    well-formed: a syntax error anywhere beats a fault.
    """

    __slots__ = ("_consumer", "_failure", "_qnames", "_holder",
                 "_fragment_depth")

    def __init__(self,
                 consumer: Callable[[EventSource], EventConsumer]) -> None:
        super().__init__(None)
        #: (local name, namespace URI) of the prefixed names seen under
        #: the current scope; dropped whenever the scope changes.
        self._qnames: dict = {}
        self._holder = _Holder()
        #: The stack depth of the element whose content is being built:
        #: deeper elements go to the tree handlers.
        self._fragment_depth = _NO_FRAGMENTS
        self._failure: Optional[Exception] = None
        self._consumer: EventConsumer = consumer(self)

    # -- what the consumer may ask during start_element ---------------------

    def mint_key(self) -> tuple[int, int]:
        serial = self._serial
        self._serial = serial + KEY_STRIDE
        return (self._doc_id, serial)

    def namespace_uri(self, prefix: str) -> Optional[str]:
        return self._scope.get(prefix)

    # -- events -------------------------------------------------------------

    def _install(self, parser) -> None:
        parser.StartElementHandler = self._event_start
        parser.EndElementHandler = self._event_end
        parser.CommentHandler = self._comment
        parser.ProcessingInstructionHandler = self._processing_instruction

    def _fail(self, failure: Exception) -> None:
        self._failure = failure
        self._consumer = _Discard()

    def _characters(self, parts: list) -> None:
        try:
            self._consumer.characters("".join(parts))
        except Exception as failure:
            self._fail(failure)
        del parts[:]

    def _qname(self, name: str) -> tuple[str, str]:
        resolved = self._qnames[name] = (
            name.split(":")[-1], self._resolve_prefix(name, self._scope))
        return resolved

    def _event_start(self, name: str, attrs: list) -> None:
        stack = self._stack
        if len(stack) >= self._fragment_depth:
            self._start_element(name, attrs)
            return
        if self._text:
            self._characters(self._text)
        if attrs:
            declarations = None
            for index in range(0, len(attrs), 2):
                attr_name = attrs[index]
                if attr_name.startswith("xmlns") and (
                        len(attr_name) == 5 or attr_name[5] == ":"):
                    if declarations is None:
                        declarations = {}
                    declarations[attr_name[6:]] = attrs[index + 1]
            if declarations:
                self._scope_stack.append(
                    (len(stack), self._scope, self._default_uri))
                self._scope = scope = {**self._scope, **declarations}
                self._default_uri = scope.get("") or None
                self._qnames = {}
            # An undeclared prefix is the same syntax error here as on
            # an element the tree handlers build.
            qnames = self._qnames
            for index in range(0, len(attrs), 2):
                attr_name = attrs[index]
                if ":" in attr_name and attr_name not in qnames \
                        and not attr_name.startswith("xmlns:"):
                    self._qname(attr_name)
        if ":" in name:
            local_name, ns_uri = self._qnames.get(name) or self._qname(name)
        else:
            local_name, ns_uri = name, self._default_uri
        stack.append(None)
        try:
            wants_fragments = self._consumer.start_element(
                name, local_name, ns_uri, attrs)
        except Exception as failure:
            self._fail(failure)
            return
        if wants_fragments:
            holder = stack[-1] = self._holder
            holder._children = []
            self._fragment_depth = len(stack)

    def _event_end(self, name: str) -> None:
        stack = self._stack
        depth = len(stack)
        if depth > self._fragment_depth:
            self._end_element(name)
            return
        fragments = None
        if depth == self._fragment_depth:
            if self._text:
                self._flush_text()
            fragments = stack[-1]._children
            for node in fragments:
                node.parent = None
            self._fragment_depth = _NO_FRAGMENTS
        elif self._text:
            self._characters(self._text)
        stack.pop()
        scope_stack = self._scope_stack
        if scope_stack and scope_stack[-1][0] == depth - 1:
            # This element declared namespaces; restore the outer scope.
            _, self._scope, self._default_uri = scope_stack.pop()
            self._qnames = {}
        try:
            self._consumer.end_element(fragments)
        except Exception as failure:
            self._fail(failure)

    def _comment(self, data: str) -> None:
        if len(self._stack) >= self._fragment_depth:
            super()._comment(data)

    def _processing_instruction(self, target: str, data: str) -> None:
        if len(self._stack) >= self._fragment_depth:
            super()._processing_instruction(target, data)

    def result(self) -> EventConsumer:
        """The consumer, fed — or the exception it raised."""
        if self._failure is not None:
            raise self._failure
        return self._consumer


def parse_events_expat(data: str,
                       consumer: Callable[[EventSource], EventConsumer],
                       ) -> Callable[[], EventConsumer]:
    """Feed ``consumer(source)`` the events of a complete document.  A
    syntax error raises here; what comes back for a well-formed document
    is a call that returns the consumer or raises what the consumer
    raised, so the caller can tell the two kinds apart."""
    builder = _EventBuilder(consumer)
    builder.parse(data)
    return builder.result


def parse_document_expat(data: str,
                         uri: Optional[str] = None) -> DocumentNode:
    """The tree of a complete document, or
    :class:`~repro.xml.parser.XMLSyntaxError`."""
    return _TreeBuilder(uri).parse(data)
