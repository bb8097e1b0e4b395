"""Static and dynamic evaluation contexts for the XQuery engine.

The static context holds namespace bindings and the function registry
(builtins + module functions); the dynamic context holds variable
bindings, the focus (context item / position / size), the document
resolver, and the two hooks the paper's architecture needs:

* ``dispatch`` — ships ``execute at`` calls as Bulk RPC messages;
  installed by the RPC layer (:mod:`repro.rpc`) or by tests.
* ``pul`` — the pending update list accumulating XQUF update primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.errors import DynamicError, StaticError

if TYPE_CHECKING:  # pragma: no cover
    from repro.xdm.nodes import DocumentNode
    from repro.xquery import xast as A

FN_NS = "http://www.w3.org/2005/xpath-functions"
XS_NS = "http://www.w3.org/2001/XMLSchema"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"
XML_NS = "http://www.w3.org/XML/1998/namespace"
LOCAL_NS = "http://www.w3.org/2005/xquery-local-functions"
XRPC_NS = "http://monetdb.cwi.nl/XQuery"
ENV_NS = "http://www.w3.org/2003/05/soap-envelope"

_DEFAULT_NAMESPACES = {
    "xs": XS_NS,
    "xsi": XSI_NS,
    "fn": FN_NS,
    "xml": XML_NS,
    "local": LOCAL_NS,
    "xrpc": XRPC_NS,
}


@dataclass
class ExecutionContext:
    """One options object for every prepare/execute surface, threaded
    through :class:`~repro.engine.base.Engine`,
    :class:`~repro.xquery.evaluator.CompiledQuery`,
    :class:`~repro.pathfinder.LoopLiftedQuery` and
    :class:`~repro.rpc.XRPCPeer`.

    ``dispatch`` is the one remote hook, for both plan kinds:
    ``dispatch(dest, module_uri, location, function, arity, calls,
    updating) -> results`` ships one Bulk RPC message, *calls* its
    parameter columns (a :class:`~repro.soap.Arguments`), and returns
    one result sequence per call.  The lifted plan ships one message per
    (destination, function) group of a sequence's sibling ``execute
    at`` sites; the interpreter ships each ``execute at`` as a message
    of one call.  Local sessions leave it ``None``, so a query
    containing ``execute at`` runs in the interpreter and fails there.
    """

    doc_resolver: Optional[Callable[[str], "DocumentNode"]] = None
    variables: Optional[dict[str, list]] = None
    context_item: Any = None
    dispatch: Optional[Callable[..., list]] = None
    #: Optional parallel variant of ``dispatch``: takes a list of
    #: ``(destination, module_uri, location, function, arity, calls,
    #: updating)`` tuples, returns per-request results in order — lifted
    #: plans use it to fan bulk messages out to distinct peers at once.
    dispatch_parallel: Optional[Callable[[list], list]] = None
    put_store: Optional[Callable[[str, Any], None]] = None
    #: Try the loop-lifted relational plan before the tree interpreter.
    try_lifted: bool = True


class StaticContext:
    """Namespace environment + function registry of one module/query."""

    def __init__(self, parent: Optional["StaticContext"] = None) -> None:
        self.namespaces: dict[str, str] = dict(_DEFAULT_NAMESPACES)
        self.default_element_namespace: Optional[str] = None
        self.default_function_namespace: str = FN_NS
        # (namespace_uri, local_name, arity) -> FunctionDecl | builtin callable
        self.functions: dict[tuple[str, str, int], Any] = {}
        self.options: dict[str, str] = {}
        self.module_locations: dict[str, str] = {}  # namespace uri -> at-hint
        if parent is not None:
            self.namespaces.update(parent.namespaces)
            self.functions.update(parent.functions)
            self.options.update(parent.options)
            self.module_locations.update(parent.module_locations)
            self.default_element_namespace = parent.default_element_namespace
            self.default_function_namespace = parent.default_function_namespace

    def declare_namespace(self, prefix: str, uri: str) -> None:
        if prefix == "(default element)":
            self.default_element_namespace = uri
        elif prefix == "(default function)":
            self.default_function_namespace = uri
        else:
            self.namespaces[prefix] = uri

    def resolve_prefix(self, prefix: str) -> str:
        try:
            return self.namespaces[prefix]
        except KeyError:
            raise StaticError("XPST0081", f"undeclared namespace prefix {prefix!r}")

    def resolve_function_name(self, lexical: str) -> tuple[str, str]:
        """Resolve a lexical function QName to (namespace uri, local)."""
        if ":" in lexical:
            prefix, local = lexical.split(":", 1)
            return self.resolve_prefix(prefix), local
        return self.default_function_namespace, lexical

    def lookup_function(self, uri: str, local: str, arity: int) -> Any:
        return self.functions.get((uri, local, arity))

    def register_function(self, uri: str, local: str, arity: int,
                          implementation: Any) -> None:
        self.functions[(uri, local, arity)] = implementation


class DynamicContext:
    """Run-time state of one query evaluation."""

    def __init__(
        self,
        static: StaticContext,
        variables: Optional[dict[str, list]] = None,
        doc_resolver: Optional[Callable[[str], "DocumentNode"]] = None,
        dispatch: Optional[Callable[..., list]] = None,
    ) -> None:
        self.static = static
        self.variables: dict[str, list] = dict(variables or {})
        self.focus_item: Optional[Any] = None
        self.focus_position: int = 0
        self.focus_size: int = 0
        self.doc_resolver = doc_resolver
        self.dispatch = dispatch
        # XQUF pending update list; created lazily by updating expressions.
        self.pul: Optional[Any] = None
        # Store hook for fn:put (installed by the document-store layer).
        self.put_store: Optional[Callable[[str, Any], None]] = None
        # Namespace bindings from enclosing direct constructors (xmlns attrs).
        self.constructor_namespaces: dict[str, str] = {}
        # Depth guard against runaway recursion in user functions.
        self.call_depth = 0

    # -- derivation ------------------------------------------------------

    def child(self) -> "DynamicContext":
        """A context sharing everything but with its own variable scope."""
        derived = DynamicContext(
            self.static, self.variables, self.doc_resolver, self.dispatch)
        derived.focus_item = self.focus_item
        derived.focus_position = self.focus_position
        derived.focus_size = self.focus_size
        derived.pul = self.pul
        derived.put_store = self.put_store
        derived.constructor_namespaces = self.constructor_namespaces
        derived.call_depth = self.call_depth
        return derived

    def function_scope(self, static: StaticContext,
                       variables: dict[str, list]) -> "DynamicContext":
        """Fresh scope for a user-function body: params only, no focus."""
        derived = DynamicContext(
            static, variables, self.doc_resolver, self.dispatch)
        derived.pul = self.pul
        derived.put_store = self.put_store
        derived.call_depth = self.call_depth + 1
        if derived.call_depth > 512:
            raise DynamicError("FODC9999", "function recursion too deep")
        return derived

    def with_focus(self, item: Any, position: int, size: int) -> "DynamicContext":
        derived = self.child()
        derived.focus_item = item
        derived.focus_position = position
        derived.focus_size = size
        return derived

    # -- lookups -----------------------------------------------------------

    def variable(self, name: str) -> list:
        try:
            return self.variables[name]
        except KeyError:
            # Fall back to the local-name part: module-qualified globals
            # ($film:x) may be referenced with a different prefix.
            raise DynamicError("XPDY0002", f"unbound variable ${name}")

    def resolve_doc(self, uri: str) -> "DocumentNode":
        if self.doc_resolver is None:
            raise DynamicError("FODC0002", f"no document resolver for {uri!r}")
        document = self.doc_resolver(uri)
        if document is None:
            raise DynamicError("FODC0002", f"document {uri!r} not found")
        return document
