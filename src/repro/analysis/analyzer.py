"""The prepare-time analysis pass.

:func:`analyze_compiled` walks a :class:`CompiledQuery`'s AST once and
answers four questions:

* **liftability** — will the loop-lifting pipeline take this query, or
  fall back to the interpreter?  The verdict is the lifted compiler's
  own :meth:`check
  <repro.pathfinder.compiler.LoopLiftingCompiler.check>` — the plan run
  over zero iterations, with sentinel dispatch/doc-resolver
  capabilities — so there is no predictor to disagree with the
  compiler: the first statically detectable
  :class:`UnsupportedExpression` an execution would raise is the one
  reported, message and stable code, and executions consult the
  memoized verdict instead of deriving it again.  A liftable verdict
  is final: the lifted plan raises no :class:`UnsupportedExpression`
  at run time.
* **updating-ness** — does the whole locally-evaluated expression tree
  (query body plus locally-called function bodies, transitively)
  contain XQUF update expressions, ``fn:put``, or updating remote
  calls?
* **site profile** — how many ``execute at`` sites dispatch locally,
  to which destinations.
* **diagnostics** — unknown/mis-aritied functions, unbound variables,
  undeclared prefixes and unreachable remote bodies, each with the
  ``line:column`` of the offending main-module expression.

Results are memoized on the compiled query keyed by the capability
tuple, so plan-cache hits re-analyze nothing.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.properties import Diagnostic, QueryProperties, SiteProfile
from repro.errors import StaticError, XRPCReproError
from repro.pathfinder.compiler import (
    LoopLiftingCompiler,
    UnsupportedExpression,
)
from repro.xquery import xast as A
from repro.xquery.context import FN_NS
from repro.xquery.functions import builtin_exists, builtin_known_name
from repro.xquery.lexer import source_location


def _sentinel_capability(*_args, **_kwargs):  # pragma: no cover
    raise AssertionError("analysis sentinel capability must never be called")


_UPDATE_NODES = (A.InsertExpr, A.DeleteExpr, A.ReplaceExpr, A.RenameExpr)


# ---------------------------------------------------------------------------
# Liftability: the lifted compiler over zero iterations


def _predict_lift(compiled, *, has_dispatch: bool, has_doc_resolver: bool,
                  bound: set, context_item: bool):
    """``(liftable, fallback_reason, fallback_code)`` — what
    :meth:`LoopLiftingCompiler.check` raises under the given
    capabilities (sentinels: the dry run calls none) and bindings.  A
    :class:`StaticError` (an ``execute at`` function name that does not
    resolve) is not a verdict: the query stays liftable, the
    diagnostics report the error, execution raises it."""
    body = compiled.ast.body
    if body is None:
        return False, "QueryModule: library module has no query body", \
            "expr-not-lifted"
    checker = LoopLiftingCompiler(
        compiled.static,
        dispatch=_sentinel_capability if has_dispatch else None,
        doc_resolver=_sentinel_capability if has_doc_resolver else None)
    try:
        checker.check(body, bound, context_item)
    except UnsupportedExpression as error:
        return False, str(error), error.code
    except StaticError:
        pass
    return True, None, None


def function_liftable(decl: A.FunctionDecl) -> bool:
    """The served verdict on a module function: does its body pass
    :meth:`LoopLiftingCompiler.check` over its parameters, with a
    document resolver and *no* dispatch function — so a body with a
    nested ``execute at`` is served one call at a time."""
    if decl.body is None:
        return False
    checker = LoopLiftingCompiler(decl.module.static,
                                  doc_resolver=_sentinel_capability)
    try:
        checker.check(decl.body, [param.name for param in decl.params],
                      False)
    except UnsupportedExpression:
        return False
    return True


# ---------------------------------------------------------------------------
# Graph walk: sites and updating-ness (environment-independent,
# memoized) — one pass, with per-type field caching: these
# walks run on every first prepare, so repeated dataclasses.fields()
# introspection is the difference between noise and real overhead.

_FIELD_NAMES: dict = {}
_IS_NODE: dict = {}


def _is_node(value) -> bool:
    kind = value.__class__
    flag = _IS_NODE.get(kind)
    if flag is None:
        flag = _IS_NODE[kind] = hasattr(kind, "__dataclass_fields__")
    return flag


def _child_exprs(node):
    """Dataclass children of one AST node, through nested lists/tuples."""
    kind = node.__class__
    names = _FIELD_NAMES.get(kind)
    if names is None:
        names = _FIELD_NAMES[kind] = \
            [field.name for field in dataclasses.fields(node)]
    for name in names:
        value = getattr(node, name)
        if _is_node(value):
            yield value
        elif isinstance(value, (list, tuple)):
            # Arbitrarily nested containers (DirectElement.attributes is
            # a list of (name, content-list) pairs) flatten fully.
            stack = list(value)
            while stack:
                item = stack.pop()
                if _is_node(item):
                    yield item
                elif isinstance(item, (list, tuple)):
                    stack.extend(item)


def _iter_tree(root):
    """Every dataclass node under *root* (root included), skipping the
    remotely-evaluated parts: an ``execute at`` target's body never runs
    locally, so only its destination and arguments are descended."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, A.ExecuteAt):
            stack.append(node.destination)
            stack.extend(node.call.args)
        else:
            stack.extend(_child_exprs(node))


def _resolve_call(static, name: str, arity: int):
    """``(uri, local, declaration-or-None)``; ``(None, None, None)`` when
    the prefix itself does not resolve."""
    try:
        uri, local = static.resolve_function_name(name)
    except XRPCReproError:
        return None, None, None
    return uri, local, static.lookup_function(uri, local, arity)


class _Graph:
    """Environment-independent facts about the locally-evaluated tree."""

    def __init__(self) -> None:
        self.site_count = 0
        self.destinations: list = []
        self.dynamic_destinations = 0
        self.updating_remote = False
        self.updating_local = False
        self.called_decl_ids: set = set()


def _scan_local_tree(root, static, graph: _Graph) -> None:
    """Accumulate sites and updating-ness over *root* plus the bodies of
    every locally-called user function (transitively, each body once)."""
    for node in _iter_tree(root):
        if isinstance(node, _UPDATE_NODES):
            graph.updating_local = True
        elif isinstance(node, A.ExecuteAt):
            graph.site_count += 1
            destination = node.destination
            if isinstance(destination, A.Literal):
                value = destination.value
                graph.destinations.append(
                    value.string_value() if hasattr(value, "string_value")
                    else str(value))
            else:
                graph.dynamic_destinations += 1
            _, _, decl = _resolve_call(static, node.call.name,
                                       len(node.call.args))
            if decl is None or getattr(decl, "updating", False):
                # Unresolvable names count as updating (conservative).
                graph.updating_remote = True
        elif isinstance(node, A.FunctionCall):
            uri, local, decl = _resolve_call(static, node.name,
                                             len(node.args))
            if isinstance(decl, A.FunctionDecl):
                if decl.updating:
                    graph.updating_local = True
                if id(decl) not in graph.called_decl_ids:
                    graph.called_decl_ids.add(id(decl))
                    _scan_local_tree(decl.body, static, graph)
            elif decl is None and uri == FN_NS and local == "put":
                # fn:put is the one updating builtin (XQUF §7).
                graph.updating_local = True


def _build_graph(compiled) -> _Graph:
    graph = getattr(compiled, "_analysis_graph", None)
    if graph is not None:
        return graph
    graph = _Graph()
    if compiled.ast.body is not None:
        _scan_local_tree(compiled.ast.body, compiled.static, graph)
    compiled._analysis_graph = graph
    return graph


# ---------------------------------------------------------------------------
# Diagnostics: semantic lint over the main module, with source spans


class _DiagnosticCollector:
    def __init__(self, compiled, graph: _Graph) -> None:
        self.compiled = compiled
        self.static = compiled.static
        self.graph = graph
        self.diagnostics: list = []

    def emit(self, severity: str, code: str, message: str, node) -> None:
        line = column = None
        pos = getattr(node, "pos", None)
        if pos is not None:
            line, column = source_location(self.compiled.source, pos)
        self.diagnostics.append(
            Diagnostic(severity, code, message, line, column))

    # -- function-name checks ------------------------------------------------

    def _known_by_other_arity(self, uri: str, local: str) -> bool:
        if builtin_known_name(uri, local):
            return True
        return any(key[0] == uri and key[1] == local
                   for key in self.static.functions)

    def check_call_name(self, node, name: str, arity: int,
                        remote: bool) -> None:
        try:
            uri, local = self.static.resolve_function_name(name)
        except XRPCReproError as error:
            self.emit("error", "XPST0081", str(error).split("] ", 1)[-1],
                      node)
            return
        if self.static.lookup_function(uri, local, arity) is not None:
            return
        if not remote and builtin_exists(uri, local, arity):
            return
        if remote:
            # The remote peer resolves the function against its own
            # module registry; an unknown name here is only suspicious.
            self.emit(
                "warning", "XPST0017",
                f"remote function {name}#{arity} is not resolvable "
                "locally; the peer at the destination must provide it",
                node)
        elif self._known_by_other_arity(uri, local):
            self.emit("error", "XPST0017",
                      f"wrong arity for function {name}: "
                      f"no {arity}-argument form is declared", node)
        else:
            self.emit("error", "XPST0017",
                      f"unknown function {name}#{arity}", node)

    def check_execute_at(self, node: A.ExecuteAt) -> None:
        self.check_call_name(node, node.call.name, len(node.call.args),
                             remote=True)
        _, _, decl = _resolve_call(self.static, node.call.name,
                                   len(node.call.args))
        if isinstance(decl, A.FunctionDecl) \
                and id(decl) not in self.graph.called_decl_ids \
                and any(isinstance(inner, A.ExecuteAt)
                        for inner in _iter_tree(decl.body)):
            self.emit(
                "warning", "unreachable-remote-body",
                f"function {node.call.name} is only invoked through "
                "execute at; its body (including its nested execute at) "
                "runs at the remote peer and never dispatches locally",
                node)

    # -- scoped expression walk ----------------------------------------------

    def walk(self, expr, scope: set) -> None:
        if isinstance(expr, A.VarRef):
            if expr.name not in scope:
                self.emit("error", "XPST0008",
                          f"variable ${expr.name} is not declared", expr)
            return
        if isinstance(expr, A.FLWOR):
            scope = set(scope)
            for clause in expr.clauses:
                if isinstance(clause, A.LetClause):
                    self.walk(clause.value, scope)
                    scope.add(clause.var)
                elif isinstance(clause, A.ForClause):
                    self.walk(clause.source, scope)
                    scope.add(clause.var)
                    if clause.position_var:
                        scope.add(clause.position_var)
                elif isinstance(clause, A.WhereClause):
                    self.walk(clause.condition, scope)
                elif isinstance(clause, A.OrderByClause):
                    for spec in clause.specs:
                        self.walk(spec.key, scope)
            self.walk(expr.return_expr, scope)
            return
        if isinstance(expr, A.Quantified):
            scope = set(scope)
            for var, source in expr.bindings:
                self.walk(source, scope)
                scope.add(var)
            self.walk(expr.satisfies, scope)
            return
        if isinstance(expr, A.TypeSwitch):
            self.walk(expr.operand, scope)
            for case in list(expr.cases) + [expr.default]:
                case_scope = set(scope)
                if case.var:
                    case_scope.add(case.var)
                self.walk(case.body, case_scope)
            return
        if isinstance(expr, A.ExecuteAt):
            self.walk(expr.destination, scope)
            for arg in expr.call.args:
                self.walk(arg, scope)
            self.check_execute_at(expr)
            return
        if isinstance(expr, A.FunctionCall):
            self.check_call_name(expr, expr.name, len(expr.args),
                                 remote=False)
            for arg in expr.args:
                self.walk(arg, scope)
            return
        for child in _child_exprs(expr):
            self.walk(child, scope)


def _diagnose(compiled, graph: _Graph, extra_bound) -> tuple:
    collector = _DiagnosticCollector(compiled, graph)
    declared = set(extra_bound or ())
    for decl in compiled.ast.variables:
        if decl.value is not None:
            collector.walk(decl.value, set(declared))
        declared.add(decl.name)
    for fdecl in getattr(compiled, "_local_functions", []):
        # Function bodies see their parameters only — module-level
        # variables are NOT in a function's dynamic scope (matches
        # DynamicContext.function_scope), so lint them the same way.
        collector.walk(fdecl.body, {param.name for param in fdecl.params})
    if compiled.ast.body is not None:
        collector.walk(compiled.ast.body, declared)
    return tuple(collector.diagnostics)


# ---------------------------------------------------------------------------
# Entry point


def analyze_compiled(compiled, *, has_dispatch: bool = False,
                     has_doc_resolver: bool = True,
                     variables=None,
                     context_item: bool = False) -> QueryProperties:
    """Analyze a compiled query under the given execution capabilities.

    ``variables`` is the set (or dict) of variable names the caller will
    bind at execution time; ``None`` means "unknown" and assumes every
    ``declare variable ... external`` will be bound (the ``repro
    check`` stance).  Results are memoized per compiled query and
    capability key, so repeated :meth:`Engine.execute` calls on a
    plan-cache hit pay a dictionary lookup, not a re-analysis.
    """
    key = (has_dispatch, has_doc_resolver,
           frozenset(variables) if variables is not None else None,
           bool(context_item))
    cache = getattr(compiled, "_analysis_cache", None)
    if cache is None:
        cache = compiled._analysis_cache = {}
    cached = cache.get(key)
    if cached is not None:
        return cached

    if variables is not None:
        bound = set(variables)
        extra_scope = set(variables)
    else:
        bound = {decl.name for decl in compiled.ast.variables
                 if decl.external}
        extra_scope = set()
    # Declared-with-value variables never enter the lifted environment
    # (LoopLiftedQuery binds only the passed variables), so they are
    # deliberately absent from `bound`.
    liftable, reason, code = _predict_lift(
        compiled, has_dispatch=has_dispatch,
        has_doc_resolver=has_doc_resolver,
        bound=bound, context_item=context_item)

    graph = _build_graph(compiled)
    sites = SiteProfile(
        count=graph.site_count,
        destinations=tuple(graph.destinations),
        dynamic_destinations=graph.dynamic_destinations,
        updating_remote=graph.updating_remote,
    )
    properties = QueryProperties(
        liftable=liftable,
        fallback_reason=reason,
        fallback_code=code,
        updating=graph.updating_local or graph.updating_remote,
        updating_local=graph.updating_local,
        sites=sites,
        diagnostics=_diagnose(compiled, graph, extra_scope),
    )
    if len(cache) >= 32:
        # One compiled query is normally analyzed under a handful of
        # capability keys; a caller cycling through many distinct
        # variable-name sets must not grow the memo without bound.
        cache.clear()
    cache[key] = properties
    return properties
