"""SOAP XRPC message protocol (section 2.1 / 3.2 of the paper).

Implements the document/literal SOAP sub-protocol XRPC uses over HTTP:

* request messages — ``xrpc:request`` with module/method/arity/location,
  one ``xrpc:call`` per function application (**Bulk RPC**: many calls in
  one message), each parameter an ``xrpc:sequence`` of typed values;
* response messages — one ``xrpc:sequence`` per call, plus the
  participating-peers piggyback extension (section 2.3);
* fault messages — SOAP Fault (``env:Fault``) carrying code + reason;
* one codec for the value holders inside an ``xrpc:sequence``, with
  strict call-by-value node semantics: :class:`MarshalWriter` writes
  them (the paper's ``s2n``), ``parse_message``'s decoder reads them
  (``n2s``) and raises a typed ``env:Sender`` fault on anything else.
"""

from repro.soap.marshal import MarshalWriter, marshal_fingerprint
from repro.soap.messages import (
    QueryID,
    XRPCRequest,
    XRPCResponse,
    XRPCFaultMessage,
    build_request,
    build_response,
    build_fault,
    parse_message,
    parse_request,
    parse_response,
)

__all__ = [
    "MarshalWriter",
    "marshal_fingerprint",
    "QueryID",
    "XRPCRequest",
    "XRPCResponse",
    "XRPCFaultMessage",
    "build_request",
    "build_response",
    "build_fault",
    "parse_message",
    "parse_request",
    "parse_response",
]
