"""The XML frontend: which bytes are a document, and who says why not.

:func:`parse_document` is the one way XML text becomes
:mod:`repro.xdm` nodes, and stdlib expat is the parser behind it
(:mod:`repro.xml.expat_parser` builds the tree — or feeds a consumer —
inside expat's C-level events).  What expat refuses is refused, once,
with expat's diagnosis as an :class:`XMLSyntaxError`: there is no second
parser to ask again.  So a document here is what any SOAP stack would
call one — XML 1.0 with namespaces:

* characters outside the XML ``Char`` production (``\x01``, ``&#1;``,
  U+FFFE, a lone surrogate) and ``]]>`` in character data are errors;
* DTD *declarations* are errors — an internal-subset ``<!ENTITY>`` or
  ``<!ATTLIST>``, an external or an undeclared entity.  SOAP 1.2 forbids
  a DTD in a message, and refusing the declaration (rather than the
  reference) is also the guard against entity-expansion bombs.  A
  ``<!DOCTYPE>`` that declares nothing is skipped;
* line endings and literal attribute whitespace are normalized (XML 1.0
  §2.11 / §3.3.3); character references are exempt, which is why the
  serializer writes ``\r`` as ``&#13;``.

``bytes`` are decoded first by :func:`decode_xml_bytes` (BOM, then the
declared encoding, default UTF-8), so expat always sees a ``str`` and
any codec Python knows is a readable document encoding.
"""

from __future__ import annotations

import codecs
import re
from typing import Callable, Optional, Protocol, TypeVar, Union, overload

from repro.errors import XRPCReproError
from repro.xdm.nodes import DocumentNode, ElementNode, Node
from repro.xml.stats import count_parse


class XMLSyntaxError(XRPCReproError):
    """Raised on malformed XML input, with 1-based line/column info."""

    def __init__(self, message: str, line: int, column: int) -> None:
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


XMLNS_URI = "http://www.w3.org/2000/xmlns/"
XML_URI = "http://www.w3.org/XML/1998/namespace"


class EventSource(Protocol):
    """What a parse driver offers the consumer it feeds; both methods
    are for use inside ``start_element`` and speak of that element."""

    def mint_key(self) -> tuple[int, int]:
        """The next order key of this parse, for a node the consumer
        makes itself — fragments built after it sort after it."""

    def namespace_uri(self, prefix: str) -> Optional[str]:
        """The namespace bound to *prefix* on the element (its own
        declarations included), ``None`` when undeclared."""


class EventConsumer(Protocol):
    """Takes a document as events instead of as a tree
    (``parse_document(..., consumer=)``): elements and character data
    only, in document order, every name already resolved."""

    def start_element(self, name: str, local_name: str,
                      ns_uri: Optional[str], attributes: list[str]) -> bool:
        """*attributes* is the flat ``[name, value, ...]`` list, xmlns
        declarations included.  Answer true to have the element's
        content built as tree nodes: no events arrive for it, and its
        ``end_element`` brings the children as parentless fragments."""

    def characters(self, data: str) -> None:
        """A piece of text; one run may arrive in several pieces."""

    def end_element(self, fragments: Optional[list[Node]]) -> None:
        """Closes the innermost open element."""


_Consumer = TypeVar("_Consumer", bound=EventConsumer)

_ENCODING_DECL = re.compile(
    rb'^<\?xml[^>]*?encoding\s*=\s*["\']([A-Za-z][A-Za-z0-9._-]*)["\']')

_BOMS = (
    (codecs.BOM_UTF8, "utf-8-sig"),
    (codecs.BOM_UTF32_LE, "utf-32"),
    (codecs.BOM_UTF32_BE, "utf-32"),
    (codecs.BOM_UTF16_LE, "utf-16"),
    (codecs.BOM_UTF16_BE, "utf-16"),
)


def decode_xml_bytes(data: bytes) -> str:
    """Decode raw XML bytes honouring BOMs and the declared encoding.

    A BOM wins, then the XML declaration's ``encoding=`` pseudo-attribute
    (resolved through Python's codec registry, so aliases like
    ``latin-1`` and multi-byte encodings like ``shift_jis`` work),
    defaulting to UTF-8.  An unknown encoding, or bytes that are not in
    the one they claim, are a syntax error of the document.
    """
    for bom, encoding in _BOMS:
        if data.startswith(bom):
            break
    else:
        match = _ENCODING_DECL.match(data[:256])
        encoding = match.group(1).decode("ascii") if match else "utf-8"
    try:
        return data.decode(encoding)
    except (LookupError, UnicodeDecodeError) as exc:
        raise XMLSyntaxError(f"cannot decode document: {exc}", 1, 1) \
            from None


@overload
def parse_document(text: Union[str, bytes],
                   uri: Optional[str] = None) -> DocumentNode: ...


@overload
def parse_document(text: Union[str, bytes], uri: Optional[str] = None, *,
                   consumer: Callable[[EventSource], _Consumer]
                   ) -> _Consumer: ...


def parse_document(text: Union[str, bytes], uri: Optional[str] = None, *,
                   consumer: Optional[
                       Callable[[EventSource], EventConsumer]] = None
                   ) -> Union[DocumentNode, EventConsumer]:
    """Parse a complete XML document into an XDM document node.

    Parameters
    ----------
    text:
        The XML source — ``str``, or raw ``bytes``
        (:func:`decode_xml_bytes`).  Anything else is a ``TypeError``.
    uri:
        Optional document URI recorded on the document node (what
        ``fn:document-uri`` would return).
    consumer:
        When given, no document is built: ``consumer(source)`` makes an
        :class:`EventConsumer` (*source* is the :class:`EventSource` of
        this parse), the document is streamed to it — nodes are built
        only where it asks for fragments — and it is what comes back.
        What the consumer raises is raised here, once the document has
        proved well-formed.

    Raises :class:`XMLSyntaxError` — expat's message, 1-based line and
    column — for everything that is not a document (module docstring).
    """
    from repro.xml.expat_parser import parse_document_expat, \
        parse_events_expat
    size = len(text)
    if isinstance(text, (bytes, bytearray)):
        text = decode_xml_bytes(bytes(text))
    if consumer is None:
        document = parse_document_expat(text, uri)
        count_parse(size)
        return document
    fed = parse_events_expat(text, consumer)
    # A well-formed document counts, whatever its consumer made of it.
    count_parse(size)
    return fed()


def parse_fragment(text: Union[str, bytes]) -> ElementNode:
    """Parse a single element (fragment); returns the parentless element."""
    root = parse_document(text).root_element
    if root is None:
        raise XMLSyntaxError("fragment has no element", 1, 1)
    root.parent = None
    return root
