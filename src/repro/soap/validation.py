"""SOAP XRPC message validation against a built-in schema model.

The paper publishes an XML Schema (XRPC.xsd) for the protocol and notes
that XRPC "supports ... the ability to validate SOAP messages".  Rather
than a generic XSD engine, this module encodes the XRPC.xsd content
model directly: element structure, required attributes, and the value
vocabulary, producing precise error lists.

Use :func:`validate_message` on raw XML text (or a parsed envelope) to
obtain a :class:`ValidationReport`; servers may reject invalid messages
with ``env:Sender`` faults before attempting execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.xdm.nodes import DocumentNode, ElementNode, TextNode
from repro.xdm.types import is_known_type
from repro.xml.parser import XMLSyntaxError, parse_document

XRPC_NS = "http://monetdb.cwi.nl/XQuery"
ENV_NS = "http://www.w3.org/2003/05/soap-envelope"

_VALUE_ELEMENTS = {
    "atomic-value", "element", "document", "attribute", "text",
    "comment", "pi",
}


@dataclass
class ValidationReport:
    """Outcome of validating one SOAP XRPC message."""

    errors: list[str] = field(default_factory=list)
    message_kind: str = "unknown"  # request | response | fault | txn | unknown

    @property
    def valid(self) -> bool:
        return not self.errors

    def error(self, message: str) -> None:
        self.errors.append(message)


def validate_message(message: Union[str, bytes, DocumentNode],
                     ) -> ValidationReport:
    """Validate a SOAP XRPC message; never raises on invalid content.

    Accepts raw text (``str`` or encoded ``bytes``, which the parse
    frontend decodes per XML declaration/BOM) or an already-parsed
    envelope.
    """
    report = ValidationReport()
    if isinstance(message, (str, bytes)):
        try:
            document = parse_document(message)
        except XMLSyntaxError as exc:
            report.error(f"not well-formed XML: {exc}")
            return report
    else:
        document = message

    envelope = document.root_element
    if envelope is None:
        report.error("document has no root element")
        return report
    if envelope.local_name != "Envelope" or envelope.ns_uri != ENV_NS:
        report.error(
            f"root must be env:Envelope in {ENV_NS}, found <{envelope.name}>")
        return report

    body = envelope.find("Body", ENV_NS)
    if body is None:
        report.error("env:Envelope must contain an env:Body child")
        return report
    payloads = body.child_elements()
    if len(payloads) != 1:
        report.error(
            f"env:Body must contain exactly one child element, "
            f"found {len(payloads)}")
        return report
    payload = payloads[0]

    if payload.ns_uri == XRPC_NS and payload.local_name == "request":
        report.message_kind = "request"
        _validate_request(payload, report)
    elif payload.ns_uri == XRPC_NS and payload.local_name == "response":
        report.message_kind = "response"
        _validate_response(payload, report)
    elif payload.ns_uri == ENV_NS and payload.local_name == "Fault":
        report.message_kind = "fault"
        _validate_fault(payload, report)
    elif payload.ns_uri == XRPC_NS and payload.local_name in (
            "prepare", "commit", "rollback", "txn-result"):
        report.message_kind = "txn"
        _validate_txn(payload, report)
    else:
        report.error(f"unrecognised body element <{payload.name}>")
    return report


def _require_attributes(element: ElementNode, names: tuple[str, ...],
                        report: ValidationReport) -> None:
    for name in names:
        if element.get_attribute(name) is None:
            report.error(
                f"<{element.name}> is missing required attribute {name!r}")


def _validate_request(request: ElementNode, report: ValidationReport) -> None:
    _require_attributes(request, ("module", "method", "arity"), report)
    arity_attr = request.get_attribute("arity")
    arity = None
    if arity_attr is not None:
        if arity_attr.value.isdigit():
            arity = int(arity_attr.value)
        else:
            report.error(f"arity must be a non-negative integer, "
                         f"found {arity_attr.value!r}")

    calls = request.find_all("call", XRPC_NS)
    if not calls:
        report.error("xrpc:request must contain at least one xrpc:call")
    for index, call in enumerate(calls, start=1):
        sequences = call.find_all("sequence", XRPC_NS)
        non_sequences = [c for c in call.child_elements()
                         if c.local_name != "sequence"]
        if non_sequences:
            report.error(
                f"call {index}: unexpected children "
                f"{[c.name for c in non_sequences]}")
        if arity is not None and len(sequences) != arity:
            report.error(
                f"call {index}: has {len(sequences)} parameter sequences, "
                f"declared arity is {arity}")
        for seq_index, sequence in enumerate(sequences, start=1):
            _validate_sequence(sequence, f"call {index} param {seq_index}",
                               report)

    for child in request.child_elements():
        if child.local_name not in ("call", "queryID"):
            report.error(f"unexpected request child <{child.name}>")
    query_id = request.find("queryID", XRPC_NS)
    if query_id is not None:
        _require_attributes(query_id, ("host", "timestamp", "timeout"),
                            report)


def _validate_response(response: ElementNode,
                       report: ValidationReport) -> None:
    _require_attributes(response, ("module", "method"), report)
    for child in response.child_elements():
        if child.local_name == "sequence":
            _validate_sequence(child, "response sequence", report)
        elif child.local_name == "participants":
            for peer in child.child_elements():
                if peer.local_name != "peer" or \
                        peer.get_attribute("uri") is None:
                    report.error(
                        "xrpc:participants children must be "
                        "<xrpc:peer uri='...'/>")
        else:
            report.error(f"unexpected response child <{child.name}>")


def _validate_sequence(sequence: ElementNode, where: str,
                       report: ValidationReport) -> None:
    for child in sequence.children:
        if isinstance(child, TextNode):
            if child.content.strip():
                report.error(f"{where}: stray text {child.content!r} "
                             "inside xrpc:sequence")
            continue
        if not isinstance(child, ElementNode):
            continue
        if child.ns_uri != XRPC_NS or child.local_name not in _VALUE_ELEMENTS:
            report.error(
                f"{where}: invalid value element <{child.name}> "
                f"(expected one of {sorted(_VALUE_ELEMENTS)})")
            continue
        if child.local_name == "atomic-value":
            type_attr = child.get_attribute("xsi:type") \
                or child.get_attribute("type")
            if type_attr is None:
                report.error(f"{where}: atomic-value without xsi:type")
            elif type_attr.value.startswith("xs:") \
                    and not is_known_type(type_attr.value):
                report.error(
                    f"{where}: unknown XML Schema type {type_attr.value!r}")
        if child.local_name == "element":
            if not any(isinstance(c, ElementNode) for c in child.children):
                report.error(
                    f"{where}: xrpc:element must wrap exactly one element")
        if child.local_name == "pi":
            if child.get_attribute("target") is None:
                report.error(f"{where}: xrpc:pi without target attribute")


def _validate_fault(fault: ElementNode, report: ValidationReport) -> None:
    code = fault.find("Code", ENV_NS)
    if code is None or code.find("Value", ENV_NS) is None:
        report.error("env:Fault must contain env:Code/env:Value")
    reason = fault.find("Reason", ENV_NS)
    if reason is None or reason.find("Text", ENV_NS) is None:
        report.error("env:Fault must contain env:Reason/env:Text")


def _validate_txn(element: ElementNode, report: ValidationReport) -> None:
    if element.local_name == "txn-result":
        _require_attributes(element, ("kind", "ok"), report)
        return
    _require_attributes(element, ("host", "timestamp", "timeout"), report)
