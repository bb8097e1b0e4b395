"""XML in and out of :mod:`repro.xdm` node trees.

The paper's system relies on an XML engine for shredding SOAP messages
and serializing results; the reproduction may not assume lxml, so the
parser is the stdlib's expat — :func:`parse_document` builds the trees
inside its events and is the one judge of what a document is — and the
serializer that renders trees back to markup is written here.
"""

from repro.xml.parser import (
    XMLSyntaxError,
    parse_document,
    parse_fragment,
)
from repro.xml.serializer import serialize, escape_text, escape_attribute
from repro.xml.stats import PARSE_STATS

__all__ = [
    "PARSE_STATS",
    "parse_document",
    "parse_fragment",
    "XMLSyntaxError",
    "serialize",
    "escape_text",
    "escape_attribute",
]
