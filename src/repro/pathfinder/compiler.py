"""The loop-lifting compiler.

Sequences are tables with schema ``iter|pos|item`` (section 3.1): one
row per item per iteration of the enclosing for-loop nest.  A ``loop``
relation holds the live iteration numbers so empty sequences are
representable (absence of rows).

Supported core: literals, sequence construction, ranges, variables,
FLWOR (for/let/where), arithmetic, comparisons, a few row-wise builtins
(``concat``, ``string``, ``doc``), path expressions over *every* XPath
axis — evaluated as window predicates over the
:class:`~repro.xdm.structural.StructuralIndex`
pre/size/level columns, see :mod:`repro.algebra.paths` — with
effective-boolean-value predicates, the statically positional shapes
(``[n]``, ``[last()]``, ``position()``/``last()`` comparisons) and
predicates whose value is a number only at run time (``[$n]``), all
compiled as rank computations over per-context windows, and ``execute
at`` — compiled by the Figure 2 rule.  Anything else raises
:class:`UnsupportedExpression` over zero iterations, signalling the
caller to fall back to the interpreter (MonetDB similarly falls back to
non-loop-lifted paths for exotic constructs); what fails on the data
raises the interpreter's XQuery error.  Every
:class:`UnsupportedExpression` carries a stable ``code`` plus a message
starting with the offending AST node's type name (``"FLWOR: order by is
outside the loop-lifted core"``), so fallback telemetry can histogram
*why* a query wasn't lifted.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.algebra.paths import (
    axis_step,
    contains_filter,
    equality_probe_step,
    merge_exploded_contexts,
    positional_filter,
)
from repro.algebra.table import Table
from repro.errors import DynamicError, TypeError_, XRPCReproError
from repro.xdm.atomic import AtomicValue, general_compare_pair, integer, string
from repro.xdm.nodes import Node
from repro.xdm.sequence import atomize, effective_boolean_value
from repro.xdm.structural import REVERSE_AXES
from repro.xdm.types import xs
from repro.xquery import xast as A
from repro.xquery.context import ExecutionContext, StaticContext
from repro.xquery.evaluator import (
    CompiledQuery,
    _arith,
    _fuse_descendant_steps,
    _indexable_predicate_key_path,
    node_test_matches,
    positional_predicate_spec,
)
from repro.xquery.functions import _numeric


def contains_predicate_spec(predicate: A.Expr) -> Optional[str]:
    """The needle of a liftable ``[contains(., "lit")]`` predicate.

    The shape the posting-list prefilter serves: an ``fn:contains``
    call whose haystack is the candidate context item and whose needle
    is a string literal (known at compile time, so the term-index plan
    can be built once per step instead of per candidate).  Returns the
    needle string, ``None`` for a call of another shape, and raises the
    ``search-dynamic-needle`` fallback when only the needle is not a
    string literal.
    """
    if not (isinstance(predicate, A.FunctionCall)
            and predicate.name.split(":")[-1] == "contains"
            and len(predicate.args) == 2
            and isinstance(predicate.args[0], A.ContextItem)):
        return None
    needle = predicate.args[1]
    value = needle.value if isinstance(needle, A.Literal) else None
    if not isinstance(value, AtomicValue) \
            or value.type not in (xs.string, xs.untypedAtomic) \
            or not isinstance(value.value, str):
        raise _unsupported(predicate,
                           "contains() needle is not a string literal",
                           "search-dynamic-needle")
    return value.value


_ROWWISE_STRING = {
    "concat": lambda *parts: "".join(parts),
    "upper-case": lambda s: s.upper(),
    "lower-case": lambda s: s.lower(),
    "string": lambda s: s,
}

# The lifted library's functions that never yield a number.
_NON_NUMERIC_FUNCTIONS = frozenset(("doc", "contains", *_ROWWISE_STRING))


def _statically_non_numeric(predicate: A.Expr) -> bool:
    """Can *predicate*'s value never be a single number — decided from
    the AST alone?  A comparison yields a boolean, a lifted path nodes,
    the lifted library strings or a document.  Such a predicate filters
    by effective boolean value over a whole step; every other
    non-positional predicate may turn out numeric at run time, so it
    takes the per-context-window (positional) regime."""
    if positional_predicate_spec(predicate) is not None:
        return False
    if isinstance(predicate, A.FunctionCall):
        return predicate.name.split(":")[-1] in _NON_NUMERIC_FUNCTIONS
    return isinstance(predicate, (A.Comparison, A.PathExpr, A.Literal))


def _by_iter(table: Table) -> dict:
    """Each iteration's items of an ``iter|pos|item`` table, in row
    order (absent iterations hold the empty sequence)."""
    groups: dict = {}
    for it, _pos, item in table.rows:
        groups.setdefault(it, []).append(item)
    return groups


def _number(item) -> AtomicValue:
    """An arithmetic operand, converted as the interpreter does."""
    return _numeric(atomize([item])[0])


def _context_free_probe(expr: A.Expr) -> bool:
    """May *expr* be evaluated under the outer loop (no candidate focus)?"""
    if isinstance(expr, (A.Literal, A.VarRef)):
        return True
    if isinstance(expr, A.SequenceExpr):
        return all(_context_free_probe(item) for item in expr.items)
    return False

# dispatch(destination, module_uri, location, function, arity,
#          calls, updating) -> list of result sequences, one per call
Dispatch = Callable[..., list]

# doc_resolver(uri) -> DocumentNode | None (same contract the
# interpreter's DynamicContext uses).
DocResolver = Callable[[str], Optional[Node]]

# Reserved environment key binding the context item ("."): not a valid
# variable name, so it can never clash with a user binding.  The context
# item lifts through for-clauses exactly like a variable table.
_DOT = "."


class UnsupportedExpression(XRPCReproError):
    """The expression is outside the loop-liftable core.

    Carries a stable machine-readable ``code`` alongside the
    human-readable message, so fallback telemetry can histogram *why*
    queries were not lifted without parsing prose (the codes survive
    message rewording).  Every code but ``execute-at-routing`` is raised
    over zero iterations, so :meth:`LoopLiftingCompiler.check` decides
    it before any row is touched:

    ===================== ==================================================
    code                  meaning
    ===================== ==================================================
    step-not-lifted       a non-axis path step (filter-expression step)
    expr-not-lifted       an expression kind outside the core
    clause-not-lifted     a FLWOR clause kind outside the core
    function-not-lifted   a function outside the row-wise builtins
    comparison-not-lifted a non-general comparison
    search-dynamic-needle a ``contains(., needle)`` predicate whose
                          needle is not a string literal
    unbound-variable      variable reference with no binding
    context-item          path or ``.`` with no context item in scope
    document              ``fn:doc`` with no document resolver
    dispatch              ``execute at`` with no dispatch function
    execute-at-routing    a multi-site query, routed to the batching
                          executor (peer layer)
    ===================== ==================================================
    """

    def __init__(self, message: str, code: str = "expr-not-lifted") -> None:
        super().__init__(message)
        self.code = code


def _unsupported(node: object, reason: str,
                 code: str = "expr-not-lifted") -> UnsupportedExpression:
    """Uniform fallback signal: ``<NodeType>: <reason>`` plus a stable code."""
    return UnsupportedExpression(f"{type(node).__name__}: {reason}", code)


class LoopLiftingCompiler:
    """Compiles (and immediately evaluates) loop-lifted plans.

    Parameters
    ----------
    static:
        Static context for function-name resolution of ``execute at``.
    dispatch:
        Callable shipping one bulk request; wired to a
        :class:`~repro.rpc.client.ClientSession` in production.
    trace:
        Record the per-peer intermediate tables (map/req/msg/res) of
        every ``execute at`` translation — lets tests and the Figure 1
        benchmark inspect the exact tables of the paper.
    doc_resolver:
        Resolves ``fn:doc`` URIs to document nodes, enabling path roots
        over stored documents.  Without one, ``fn:doc`` falls back.
    """

    def __init__(self, static: StaticContext,
                 dispatch: Optional[Dispatch] = None,
                 trace: bool = False,
                 doc_resolver: Optional[DocResolver] = None,
                 dispatch_parallel: Optional[Callable[[list], list]] = None,
                 ) -> None:
        self.static = static
        self.dispatch = dispatch
        self.dispatch_parallel = dispatch_parallel
        self.trace_enabled = trace
        self.trace: list[dict] = []
        self.doc_resolver = doc_resolver
        self._documents: dict[str, Node] = {}

    # ------------------------------------------------------------------

    def check(self, expr: A.Expr, names: Iterable[str],
              dot: bool) -> None:
        """The static verdict on *expr*: the plan run over zero
        iterations, each of *names* (and the context item, when *dot*)
        an empty table.  Raises the first statically detectable
        :class:`UnsupportedExpression` in evaluation order and, with no
        row, ships, resolves, traces and counts nothing (the invariant
        is :meth:`compile_expr`'s) — so a fallback decided here happens
        before any ``execute at`` ships.  A passing check is final:
        what can fail on the data raises the interpreter's XQuery
        error, never :class:`UnsupportedExpression`."""
        empty = Table(("iter", "pos", "item"))
        env = dict.fromkeys(names, empty)
        if dot:
            env[_DOT] = empty
        self.compile_expr(expr, Table(("iter",)), env)

    def evaluate(self, expr: A.Expr, bindings: list[dict[str, list]],
                 context_item=None) -> list[list]:
        """Evaluate *expr* set-at-a-time: once, for ``len(bindings)``
        iterations; returns one result sequence per iteration.

        Iteration *i* sees the variables of ``bindings[i - 1]`` (every
        iteration binds the same names) and *context_item*, if any.  The
        loop relation is ``iter = 1..N``, each variable one
        ``iter|pos|item`` table over all iterations, and the result
        table is split back by ``iter`` — a main-module query is the
        N = 1 caller, a Bulk RPC message of N calls the general one.
        Callers :meth:`check` first, or hold its verdict.
        """
        iters = range(1, len(bindings) + 1)
        loop = Table(("iter",), [(it,) for it in iters])
        env: dict[str, Table] = {
            name: Table(
                ("iter", "pos", "item"),
                [(it, pos, item) for it, bound in enumerate(bindings, 1)
                 for pos, item in enumerate(bound[name], 1)])
            for name in (bindings[0] if bindings else ())}
        if context_item is not None:
            env[_DOT] = Table(("iter", "pos", "item"),
                              [(it, 1, context_item) for it in iters])
        table = self.compile_expr(expr, loop, env)
        results: list[list] = [[] for _ in iters]
        for it, _pos, item in table.sort("iter", "pos").rows:
            results[it - 1].append(item)
        return results

    def compile_expr(self, expr: A.Expr, loop: Table,
                     env: dict[str, Table]) -> Table:
        """Compile *expr* under the given loop relation and environment;
        returns its iter|pos|item table.

        Invariant (:meth:`check` rests on it): no branch on data outside
        a row loop — which sub-expressions compile, in what order, is
        fixed by the AST and the environment's names, so over zero rows
        every static failure still raises and nothing else happens.
        ``_try_equality_probe`` returning ``None`` on the probe values'
        *types* only re-enters constructs the probe path already
        admitted (an index key path against the probe it just compiled).
        """
        if isinstance(expr, A.Literal):
            return Table(
                ("iter", "pos", "item"),
                [(it, 1, expr.value) for (it,) in loop.rows])
        if isinstance(expr, A.VarRef):
            if expr.name not in env:
                raise _unsupported(expr, f"unbound variable ${expr.name}",
                                   "unbound-variable")
            return env[expr.name]
        if isinstance(expr, A.ContextItem):
            dot = env.get(_DOT)
            if dot is None:
                raise _unsupported(expr, "no context item in scope",
                                   "context-item")
            return dot
        if isinstance(expr, A.SequenceExpr):
            return self._compile_sequence(expr, loop, env)
        if isinstance(expr, A.RangeExpr):
            return self._compile_range(expr, loop, env)
        if isinstance(expr, A.FLWOR):
            return self._compile_flwor(expr, loop, env)
        if isinstance(expr, A.ExecuteAt):
            return self._compile_execute_at(expr, loop, env)
        if isinstance(expr, A.Arithmetic):
            return self._compile_arith(expr, loop, env)
        if isinstance(expr, A.Comparison):
            return self._compile_comparison(expr, loop, env)
        if isinstance(expr, A.FunctionCall):
            return self._compile_function_call(expr, loop, env)
        if isinstance(expr, A.PathExpr):
            return self._compile_path(expr, loop, env)
        raise _unsupported(expr, "outside the loop-lifted core")

    # -- simple expressions -------------------------------------------------

    def _compile_sequence(self, expr: A.SequenceExpr, loop: Table,
                          env: dict[str, Table]) -> Table:
        if not expr.items:
            return Table(("iter", "pos", "item"))
        merged: Optional[Table] = None
        for ordinal, item in enumerate(expr.items):
            part = self.compile_expr(item, loop, env).attach("ord", ordinal)
            merged = part if merged is None else merged.union(part)
        assert merged is not None
        renumbered = merged.rownum("newpos", order_by=("ord", "pos"),
                                   partition_by="iter")
        return renumbered.project("iter", "pos:newpos", "item") \
                         .sort("iter", "pos")

    def _compile_range(self, expr: A.RangeExpr, loop: Table,
                       env: dict[str, Table]) -> Table:
        start = self._singleton_per_iter(
            self.compile_expr(expr.start, loop, env), "RangeExpr: range start")
        end = self._singleton_per_iter(
            self.compile_expr(expr.end, loop, env), "RangeExpr: range end")
        rows = []
        for (it,) in loop.rows:
            if it not in start or it not in end:
                continue
            low = int(_number(start[it]).value)
            high = int(_number(end[it]).value)
            for pos, value in enumerate(range(low, high + 1), start=1):
                rows.append((it, pos, integer(value)))
        return Table(("iter", "pos", "item"), rows)

    def _singleton_per_iter(self, table: Table, who: str) -> dict:
        values: dict = {}
        for it, pos, item in table.rows:
            if it in values:
                raise TypeError_("XPTY0004", f"{who} has more than one item")
            values[it] = item
        return values

    # -- FLWOR ------------------------------------------------------------------

    def _compile_flwor(self, expr: A.FLWOR, loop: Table,
                       env: dict[str, Table]) -> Table:
        env = dict(env)
        # Stack of map tables (outer|inner) to unwind afterwards.
        maps: list[Table] = []
        for clause in expr.clauses:
            if isinstance(clause, A.LetClause):
                env[clause.var] = self.compile_expr(clause.value, loop, env)
            elif isinstance(clause, A.ForClause):
                loop, env, mapping = self._lift_for(clause, loop, env)
                maps.append(mapping)
            elif isinstance(clause, A.WhereClause):
                loop, env = self._apply_where(clause, loop, env)
            else:
                raise _unsupported(clause, "outside the loop-lifted core",
                                   "clause-not-lifted")
        result = self.compile_expr(expr.return_expr, loop, env)
        # Unwind nesting: map inner iterations back to outer ones.
        for mapping in reversed(maps):
            joined = result.join(mapping, "iter", "inner")
            renumbered = joined.rownum(
                "newpos", order_by=("iter", "pos"), partition_by="outer")
            result = renumbered.project("iter:outer", "pos:newpos", "item") \
                               .sort("iter", "pos")
        return result

    def _lift_for(self, clause: A.ForClause, loop: Table,
                  env: dict[str, Table]):
        source = self.compile_expr(clause.source, loop, env)
        _, mapping, lifted_env, items = self._explode(source, env)
        lifted_env[clause.var] = items
        new_loop = mapping.project("iter:inner")
        if clause.position_var:
            positions = source.rownum(
                "relpos", order_by=("pos",), partition_by="iter") \
                .rownum("inner", order_by=("iter", "pos"))
            lifted_env[clause.position_var] = positions.project(
                "iter:inner", "relpos").fun(
                    "item", lambda p: integer(p), "relpos") \
                .attach("pos", 1).project("iter", "pos", "item")
        return new_loop, lifted_env, mapping

    @staticmethod
    def _explode(table: Table, env: dict[str, Table]):
        """The for-clause map construction: one inner iteration per row
        of *table*.  Returns the numbered rows (``inner`` column), the
        ``outer|inner`` map, *env* lifted to the inner iterations, and
        the rows as one singleton sequence per inner iteration."""
        numbered = table.rownum("inner", order_by=("iter", "pos"))
        mapping = numbered.project("outer:iter", "inner")
        lifted_env = {
            name: bound.join(mapping, "iter", "outer")
                       .project("iter:inner", "pos", "item")
                       .sort("iter", "pos")
            for name, bound in env.items()}
        items = numbered.project("iter:inner", "item") \
                        .attach("pos", 1).project("iter", "pos", "item")
        return numbered, mapping, lifted_env, items

    def _apply_where(self, clause: A.WhereClause, loop: Table,
                     env: dict[str, Table]):
        values = _by_iter(self.compile_expr(clause.condition, loop, env))
        keep = {it for (it,) in loop.rows
                if effective_boolean_value(values.get(it, []))}
        new_loop = Table(("iter",), [row for row in loop.rows
                                     if row[0] in keep])
        new_env = {
            name: Table(table.columns,
                        [row for row in table.rows if row[0] in keep])
            for name, table in env.items()
        }
        return new_loop, new_env

    # -- row-wise computation ----------------------------------------------------

    def _compile_arith(self, expr: A.Arithmetic, loop: Table,
                       env: dict[str, Table]) -> Table:
        left = self._singleton_per_iter(
            self.compile_expr(expr.left, loop, env), "Arithmetic: operand")
        right = self._singleton_per_iter(
            self.compile_expr(expr.right, loop, env), "Arithmetic: operand")
        rows = []
        for (it,) in loop.rows:
            if it in left and it in right:
                rows.append((it, 1, _arith(expr.op, _number(left[it]),
                                           _number(right[it]))))
        return Table(("iter", "pos", "item"), rows)

    def _compile_comparison(self, expr: A.Comparison, loop: Table,
                            env: dict[str, Table]) -> Table:
        if expr.kind != "general":
            raise _unsupported(expr, "only general comparisons are lifted",
                               "comparison-not-lifted")
        left = self.compile_expr(expr.left, loop, env)
        right = self.compile_expr(expr.right, loop, env)
        op = {"=": "eq", "!=": "ne", "<": "lt",
              "<=": "le", ">": "gt", ">=": "ge"}[expr.op]
        by_iter_left = _by_iter(left)
        by_iter_right = _by_iter(right)
        from repro.xdm.atomic import boolean as make_boolean
        rows = []
        for (it,) in loop.rows:
            outcome = any(
                general_compare_pair(lv, op, rv)
                for lv in atomize(by_iter_left.get(it, []))
                for rv in atomize(by_iter_right.get(it, [])))
            rows.append((it, 1, make_boolean(outcome)))
        return Table(("iter", "pos", "item"), rows)

    def _compile_function_call(self, expr: A.FunctionCall, loop: Table,
                               env: dict[str, Table]) -> Table:
        local = expr.name.split(":")[-1]
        if local == "doc" and len(expr.args) == 1:
            return self._compile_doc(expr, loop, env)
        func = _ROWWISE_STRING.get(local)
        if func is None:
            raise _unsupported(
                expr, f"function {expr.name} is outside the loop-lifted core",
                "function-not-lifted")
        param_maps = [
            self._singleton_per_iter(
                self.compile_expr(arg, loop, env),
                f"FunctionCall: {expr.name} argument")
            for arg in expr.args
        ]
        rows = []
        for (it,) in loop.rows:
            parts = []
            for mapping in param_maps:
                if it not in mapping:
                    parts.append("")
                    continue
                parts.append(atomize([mapping[it]])[0].string_value())
            rows.append((it, 1, string(func(*parts))))
        return Table(("iter", "pos", "item"), rows)

    def _compile_doc(self, expr: A.FunctionCall, loop: Table,
                     env: dict[str, Table]) -> Table:
        """``fn:doc`` — the absolute path root over stored documents."""
        if self.doc_resolver is None:
            raise _unsupported(expr, "fn:doc requires a document resolver",
                               "document")
        uris = self._singleton_per_iter(
            self.compile_expr(expr.args[0], loop, env),
            "FunctionCall: fn:doc uri")
        rows = []
        for (it,) in loop.rows:
            uri = atomize([uris[it]])[0].string_value() if it in uris else ""
            if not uri:
                continue  # fn:doc(()) and fn:doc("") are ()
            document = self._documents.get(uri)
            if document is None:
                document = self.doc_resolver(uri)
                if document is None:
                    raise DynamicError("FODC0002",
                                       f"document {uri!r} not found")
                self._documents[uri] = document
            rows.append((it, 1, document))
        return Table(("iter", "pos", "item"), rows)

    # -- path expressions: the relational pushdown ----------------------------
    #
    # An axis step over an iter|pos|item node table is one algebra
    # operator (repro.algebra.paths.axis_step): per iteration, the
    # context nodes become staircase-pruned window scans over the
    # structural index's pre/size/level columns, so every step's output
    # is duplicate-free and document-ordered by construction — the
    # set-at-a-time evaluation the interpreter's accelerator performs,
    # reused at the algebra layer.

    def _compile_path(self, expr: A.PathExpr, loop: Table,
                      env: dict[str, Table]) -> Table:
        steps: list = list(expr.steps)
        if expr.absolute != "none":
            dot = env.get(_DOT)
            if dot is None:
                raise _unsupported(expr, "absolute path without a context item",
                                   "context-item")
            rows = []
            for it, pos, item in dot.rows:
                if not isinstance(item, Node):
                    raise DynamicError(
                        "XPDY0002", "absolute path requires a node context item")
                rows.append((it, 1, item.root()))
            current = Table(("iter", "pos", "item"), rows)
            if expr.absolute == "root-descendant":
                steps.insert(0, A.AxisStep("descendant-or-self",
                                           A.KindTest("node")))
        elif expr.start is None:
            dot = env.get(_DOT)
            if dot is None:
                raise _unsupported(expr, "relative path without a context item",
                                   "context-item")
            current = dot
        else:
            current = self.compile_expr(expr.start, loop, env)
        for step in _fuse_descendant_steps(steps):
            if not isinstance(step, A.AxisStep):
                raise _unsupported(
                    expr, f"step {type(step).__name__} is not lifted",
                    "step-not-lifted")
            current = self._compile_axis_step(step, current, loop, env)
        return current

    def _compile_axis_step(self, step: A.AxisStep,
                           current: Table, loop: Table,
                           env: dict[str, Table]) -> Table:
        axis = step.axis
        test = step.node_test
        local = None
        if isinstance(test, A.NameTest) and test.local != "*":
            local = test.local
        match_all = isinstance(test, A.KindTest) and test.kind == "node"
        matches = lambda node: node_test_matches(node, test, axis, self.static)
        if all(_statically_non_numeric(p) for p in step.predicates):
            probed = self._try_equality_probe(step, current, loop, env)
            if probed is not None:
                return probed
            result = axis_step(current, axis, matches=matches,
                               local_name=local, match_all=match_all)
            if step.predicates:
                result = self._apply_step_predicates(result, step.predicates,
                                                     env)
            return result
        # Positional regime: position()/last() — and a predicate value
        # that turns out numeric — count within EACH context node's
        # candidate window, which the set-at-a-time step folds away — so
        # explode the context into one inner iteration per context node
        # (the for-clause map construction), rank each window, and merge
        # back to step semantics afterwards.
        specs = [positional_predicate_spec(p) for p in step.predicates]
        _, mapping, lifted_env, exploded = self._explode(current, env)
        reverse = axis in REVERSE_AXES
        # A leading [n] early-exits the window scan after the n-th hit in
        # axis order — the rank filter result is identical on the
        # truncated window (forward: first n keep their ranks; reverse:
        # the n-th-from-the-end keeps rank n).
        limit = None
        if specs[0] is not None and specs[0][0] == "literal":
            n = specs[0][1]
            if n == int(n) and n >= 1:
                limit = int(n)
        result = axis_step(exploded, axis, matches=matches,
                           local_name=local, match_all=match_all, limit=limit)
        for spec, predicate in zip(specs, step.predicates):
            if spec is not None:
                result = positional_filter(result, spec, reverse=reverse)
            elif _statically_non_numeric(predicate):
                result = self._apply_step_predicates(result, [predicate],
                                                     lifted_env)
            else:
                result = self._value_filter(predicate, result, lifted_env,
                                            reverse)
        return merge_exploded_contexts(result, mapping)

    def _try_equality_probe(self, step: A.AxisStep, current: Table,
                            loop: Table, env: dict[str, Table],
                            ) -> Optional[Table]:
        """``axis::name[path = value]`` as a value-index hash probe.

        The algebra twin of the interpreter's indexed step: when the
        step carries exactly one indexable equality predicate, probe the
        per-anchor value index cached on the tree's ``StructuralIndex``
        instead of scanning the axis window and re-filtering every
        candidate.  The probe expression compiles under the *outer*
        loop, so it must not reference the candidate context item —
        only literals, variables and sequences of those qualify (the
        ``[x = $v]`` / ``[x = 'lit']`` shapes of the ROADMAP item).
        Returns ``None`` whenever any precondition fails; the generic
        scan-then-filter pipeline takes over.
        """
        if len(step.predicates) != 1 or step.axis not in ("child", "descendant"):
            return None
        if not isinstance(step.node_test, A.NameTest) \
                or step.node_test.local == "*":
            return None
        key_path = _indexable_predicate_key_path(step.predicates[0])
        if key_path is None:
            return None
        predicate = step.predicates[0]
        assert isinstance(predicate, A.Comparison)
        if not _context_free_probe(predicate.right):
            return None
        probes_by_iter = _by_iter(
            self.compile_expr(predicate.right, loop, env))
        for it, items in probes_by_iter.items():
            values = atomize(items)
            if not all(v.type in (xs.string, xs.untypedAtomic)
                       for v in values):
                return None  # non-string probes: general comparison rules
            probes_by_iter[it] = [v.string_value() for v in values]
        return equality_probe_step(current, step.axis, step.node_test,
                                   key_path, probes_by_iter, self.static)

    def _predicate_values(self, predicate: A.Expr, table: Table,
                          env: dict[str, Table]) -> tuple[Table, dict]:
        """Every candidate row of *table* becomes one inner iteration —
        the same map construction as a for-clause — with the candidate
        bound as the context item, and *predicate* compiles under that
        inner loop.  Returns the numbered candidates (``inner`` column)
        and the predicate's value per inner iteration."""
        numbered, mapping, lifted_env, focus = self._explode(table, env)
        lifted_env[_DOT] = focus
        condition = self.compile_expr(predicate, mapping.project("iter:inner"),
                                      lifted_env)
        return numbered, _by_iter(condition)

    def _value_filter(self, predicate: A.Expr, table: Table,
                      env: dict[str, Table], reverse: bool) -> Table:
        """A predicate that may be numeric at run time, over per-context
        windows (one iteration per window): a single number keeps the
        candidate whose position equals it, any other value filters by
        effective boolean value — the interpreter's rule, ranked by
        :func:`~repro.algebra.paths.positional_filter`."""
        numbered, values = self._predicate_values(predicate, table, env)
        inner_index = numbered.col("inner")

        def keep(row: tuple, position: int, count: int) -> bool:
            value = values.get(row[inner_index], [])
            if len(value) == 1 and isinstance(value[0], AtomicValue) \
                    and value[0].is_numeric:
                return float(value[0].value) == position
            return effective_boolean_value(value)
        return positional_filter(numbered, keep, reverse=reverse)

    def _apply_step_predicates(self, table: Table, predicates: list,
                               env: dict[str, Table]) -> Table:
        """Filter step candidates by statically non-numeric predicates
        (see :func:`_statically_non_numeric`): each candidate's
        predicate value, by effective boolean value."""
        for predicate in predicates:
            needle = contains_predicate_spec(predicate)
            if needle is not None:
                # Posting-list prefilter + exact verify over the term
                # index — never compiles the predicate body, so the
                # per-candidate focus machinery below is skipped whole.
                table = contains_filter(table, needle)
                continue
            numbered, values = self._predicate_values(predicate, table, env)
            inner_index = numbered.col("inner")
            kept = Table(numbered.columns,
                         [row for row in numbered.rows
                          if effective_boolean_value(
                              values.get(row[inner_index], []))])
            table = kept.rownum("newpos", order_by=("pos",),
                                partition_by="iter") \
                        .project("iter", "pos:newpos", "item")
        return table

    # -- execute at: the Figure 2 rule ----------------------------------------

    def _compile_execute_at(self, expr: A.ExecuteAt, loop: Table,
                            env: dict[str, Table]) -> Table:
        if self.dispatch is None:
            raise _unsupported(expr, "execute at requires a dispatch function",
                               "dispatch")
        dst = self.compile_expr(expr.destination, loop, env)
        destinations = _by_iter(dst)
        if any(len(destinations.get(it, ())) != 1 for (it,) in loop.rows):
            raise TypeError_(
                "XPTY0004", "execute at: destination must be a single string")
        params = [self.compile_expr(arg, loop, env) for arg in expr.call.args]

        uri, local = self.static.resolve_function_name(expr.call.name)
        location = self.static.module_locations.get(uri)
        decl = self.static.lookup_function(uri, local, len(expr.call.args))
        updating = bool(decl is not None and getattr(decl, "updating", False))

        # Distinct destination peers: δ(π_item(dst)).
        peers = [atomize([item])[0].string_value()
                 for item in dst.project("item").distinct().column_values("item")]
        if not peers:  # no live iteration: nothing to ship or to trace
            return Table(("iter", "pos", "item"))

        # Per-peer translation (Figure 2), requests gathered first so the
        # dispatch layer can ship them in parallel.
        per_peer: list[dict] = []
        for peer in peers:
            selected = dst.fun(
                "sel",
                lambda item, peer=peer:
                    atomize([item])[0].string_value() == peer,
                "item").select("sel")
            mapping = selected.rownum("iterp", order_by=("iter",)) \
                              .project("iter", "iterp")
            req_tables = []
            for param in params:
                joined = mapping.join(param, "iter", "iter")
                req = joined.rownum("newpos", order_by=("pos",),
                                    partition_by="iterp") \
                            .project("iterp", "pos:newpos", "item") \
                            .sort("iterp", "pos")
                req_tables.append(req)
            by_req = [_by_iter(req) for req in req_tables]
            iterps = sorted(row[mapping.col("iterp")] for row in mapping.rows)
            calls = [[groups.get(iterp, []) for groups in by_req]
                     for iterp in iterps]
            per_peer.append({
                "peer": peer,
                "map": mapping,
                "req": req_tables,
                "calls": calls,
            })

        # Ship one Bulk RPC per peer — fanned out in parallel across
        # distinct destinations when the dispatch layer supports it
        # (Figure 2's parallel dispatch).
        if self.dispatch_parallel is not None and len(per_peer) > 1:
            requests = [
                (entry["peer"], uri, location, local, len(params),
                 entry["calls"], updating)
                for entry in per_peer
            ]
            all_results = self.dispatch_parallel(requests)
        else:
            all_results = [
                self.dispatch(entry["peer"], uri, location, local,
                              len(params), entry["calls"], updating)
                for entry in per_peer
            ]
        for entry, results in zip(per_peer, all_results):
            rows = []
            for iterp, sequence in enumerate(results, start=1):
                for pos, item in enumerate(sequence, start=1):
                    rows.append((iterp, pos, item))
            entry["msg"] = Table(("iterp", "pos", "item"), rows)

        # Map iterp back to iter and merge-union all peers' results.
        result = Table(("iter", "pos", "item"))
        for entry in per_peer:
            res = entry["msg"].join(entry["map"], "iterp", "iterp") \
                              .project("iter", "pos", "item")
            entry["res"] = res
            result = result.union(res)
        result = result.sort("iter", "pos")

        if self.trace_enabled:
            self.trace.append({
                "peers": peers,
                "per_peer": per_peer,
                "result": result,
            })
        return result


class LoopLiftedQuery:
    """A main-module query through the loop-lifting pipeline.

    The query body is evaluated bottom-up into algebra tables under the
    singleton loop relation (iter=1), exactly as Pathfinder does for a
    top-level query; the compiled query and the execution context are
    the only inputs, as for :meth:`CompiledQuery.run`.  Raises
    :class:`UnsupportedExpression` for queries outside the core —
    callers fall back to the interpreter.
    """

    def __init__(self, compiled: CompiledQuery,
                 context: Optional[ExecutionContext] = None, *,
                 trace: bool = False) -> None:
        assert compiled.ast.body is not None
        self.body = compiled.ast.body
        self.context = context if context is not None else ExecutionContext()
        self.compiler = LoopLiftingCompiler(
            compiled.static, self.context.dispatch, trace=trace,
            doc_resolver=self.context.doc_resolver,
            dispatch_parallel=self.context.dispatch_parallel)
        self.trace = self.compiler.trace

    def run(self) -> list:
        """:meth:`~LoopLiftingCompiler.check`, then :meth:`evaluate` —
        for a caller that holds no static verdict on the query."""
        self.compiler.check(self.body, self.context.variables or (),
                            self.context.context_item is not None)
        return self.evaluate()

    def evaluate(self) -> list:
        """Execute; returns the XDM result sequence of iteration 1.  For
        a caller that has consulted the verdict (the analysis memoized
        on the compiled query) under this context."""
        [result] = self.compiler.evaluate(
            self.body, [self.context.variables or {}],
            self.context.context_item)
        return result
