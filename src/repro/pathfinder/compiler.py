"""The loop-lifting compiler.

Sequences are tables with schema ``iter|pos|item`` (section 3.1): one
row per item per iteration of the enclosing for-loop nest.  A ``loop``
relation holds the live iteration numbers so empty sequences are
representable (absence of rows).

**Order invariant.**  A loop relation is ascending in ``iter``, and
every table :meth:`LoopLiftingCompiler.compile_expr` returns is ordered
by ``(iter, pos)``, with ``pos`` dense (``1..n``) within each iteration
and only live iterations present.  Operators rely on it instead of
re-establishing it: grouping by iteration is one pass, a for-clause
numbers its inner iterations in row order, unwinding maps them back
through a list, and the result is split per iteration without a sort.

Supported core: literals, sequence construction, ranges, variables,
FLWOR (for/let/where), conditionals, arithmetic, general and node
comparisons, direct and computed element, attribute and text
constructors, the builtin function library (``fn:doc`` as the path
root), path expressions over *every* XPath axis — evaluated as window
predicates over the :class:`~repro.xdm.structural.StructuralIndex`
pre/size/level columns, see :mod:`repro.algebra.paths` — with
effective-boolean-value predicates, the statically positional shapes
(``[n]``, ``[last()]``, ``position()``/``last()`` comparisons) — one
operator that ranks each context node's window per tree in one pass
(:func:`~repro.algebra.paths.positional_step`) — and predicates whose
value is a number only at run time (``[$n]``), ranked over one inner
iteration per context node, and ``execute at`` — compiled by the
Figure 2 rule.  Anything else raises
:class:`UnsupportedExpression` over zero iterations, signalling the
caller to fall back to the interpreter (MonetDB similarly falls back to
non-loop-lifted paths for exotic constructs); what fails on the data
raises the interpreter's XQuery error.  Every
:class:`UnsupportedExpression` carries a stable ``code`` plus a message
starting with the offending AST node's type name (``"FLWOR: order by is
outside the loop-lifted core"``), so fallback telemetry can histogram
*why* a query wasn't lifted.

A constructor mints one tree per live iteration, all iterations of one
constructor before the next constructor's; distinct trees compare in
minting order, which XQuery leaves implementation-dependent.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional

from repro.algebra.paths import (
    _walk_key_path,
    axis_step,
    contains_filter,
    equality_probe_step,
    merge_exploded_contexts,
    window_rank,
)
# Bound under the name the benchmark's ``algebra.positional_filter``
# span wraps (``benchmarks/e2e/e2e_layers.py``).
from repro.algebra.paths import positional_step as positional_filter
from repro.algebra.table import Table
from repro.errors import DynamicError, TypeError_, XRPCReproError
from repro.net.transport import normalize_peer_uri
from repro.soap.messages import Arguments
from repro.xdm.atomic import AtomicValue, boolean, integer, untyped
from repro.xdm.nodes import ElementNode, Node, NodeFactory
from repro.xdm.sequence import atomize, effective_boolean_value
from repro.xdm.structural import REVERSE_AXES
from repro.xdm.types import xs
from repro.xquery import xast as A
from repro.xquery.context import (
    FN_NS,
    DynamicContext,
    ExecutionContext,
    StaticContext,
)
from repro.xquery.evaluator import (
    CompiledQuery,
    _arith,
    _free_variables,
    _fuse_descendant_steps,
    _statically_boolean,
    build_computed_attribute,
    build_computed_element,
    build_computed_text,
    build_direct_element,
    constructor_name,
    direct_namespaces,
    equality_probe_shape,
    focus_free,
    general_comparison,
    node_comparison,
    node_test_matches,
    positional_predicate_spec,
)
from repro.xquery.functions import (
    _numeric,
    builtin_reads_context,
    get_builtin,
)


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


# Builtins that never yield a number (beside the boolean ones of
# _statically_boolean): strings and documents.
_NON_NUMERIC_FUNCTIONS = frozenset((
    "doc", "string", "concat", "string-join", "upper-case", "lower-case"))


def _statically_non_numeric(predicate: A.Expr) -> bool:
    """Can *predicate*'s value never be a single number — decided from
    the AST alone?  A comparison yields a boolean, a lifted path nodes,
    a boolean or string builtin no number.  Such a predicate filters by
    effective boolean value over a whole step; every other
    non-positional predicate may turn out numeric at run time, so it
    takes the per-context-window (positional) regime."""
    if positional_predicate_spec(predicate) is not None:
        return False
    if _statically_boolean(predicate):
        return True
    if isinstance(predicate, A.FunctionCall):
        return predicate.name.split(":")[-1] in _NON_NUMERIC_FUNCTIONS
    return isinstance(predicate, (A.PathExpr, A.Literal))


_IPI = ("iter", "pos", "item")
_ITER = itemgetter(0)


def _loop(count: int) -> Table:
    """The loop relation ``iter = 1..count``."""
    return Table(("iter",), [(it,) for it in range(1, count + 1)])


def _by_iter(table: Table) -> dict:
    """Each iteration's items of an ``iter|pos|item`` table (absent
    iterations hold the empty sequence) — one pass, by the order
    invariant."""
    rows = table.rows
    if not rows:
        return {}
    if rows[0][0] == rows[-1][0]:  # one iteration
        return {rows[0][0]: [row[2] for row in rows]}
    return {it: [row[2] for row in group]
            for it, group in groupby(rows, _ITER)}


def _table(sequences: Iterable[tuple[int, list]]) -> Table:
    """The ``iter|pos|item`` table of one sequence per iteration,
    given in ascending iteration order."""
    return Table(_IPI, [(it, pos, item) for it, items in sequences
                        for pos, item in enumerate(items, 1)])


def _lexical(pairs: Iterable[tuple[int, object]]) -> Iterator[tuple[int, str]]:
    """Each ``(iter, item)`` pair's item as its atomized string — read
    once per run of one item, as a literal's rows all hold the same."""
    last: object = None
    text = ""
    for it, item in pairs:
        if item is not last:
            last = item
            text = atomize([item])[0].string_value()
        yield it, text


def _renumbered(pairs: Iterable[tuple]) -> Table:
    """The ``iter|pos|item`` table of ``(iter, item)`` pairs in
    ``iter`` order, ``pos`` counted afresh per iteration."""
    rows = []
    last = pos = 0
    for it, item in pairs:
        if it != last:
            last, pos = it, 0
        pos += 1
        rows.append((it, pos, item))
    return Table(_IPI, rows)


def _restrict(loop: Table, env: dict[str, Table],
              live: set) -> tuple[Table, dict[str, Table]]:
    """*loop* and *env* cut down to the *live* iterations."""
    if len(live) == len(loop.rows):
        return loop, env
    return (Table(("iter",), [row for row in loop.rows if row[0] in live]),
            {name: Table(table.columns,
                         [row for row in table.rows if row[0] in live])
             for name, table in env.items()})


def _lifted(table: Table, outer: list[int]) -> Table:
    """*table* seen from inner iterations: inner iteration *k* (of outer
    iteration ``outer[k - 1]``) holds its outer iteration's sequence."""
    groups = _by_iter(table)
    return _table((inner, groups.get(it, ()))
                  for inner, it in enumerate(outer, 1))


def _unwind(table: Table, outer: list[int]) -> Table:
    """The for-clause map undone: each inner iteration's sequence
    becomes part of its outer iteration's, concatenated in inner order
    (``outer`` is non-decreasing, so the result stays ordered)."""
    return _renumbered((outer[it - 1], item) for it, _pos, item in table.rows)


def _explode(table: Table, env: dict[str, Table],
             reads: Optional[set] = None):
    """The for-clause map construction: one inner iteration per row of
    *table*, numbered in row order.  Returns the outer iteration of each
    inner one (a list: inner *k* is entry ``k - 1``), *env* lifted to
    the inner iterations — only the names in *reads*, when given: what
    the inner expression can read — and the rows as one singleton
    sequence per inner iteration."""
    rows = table.rows
    outer = [row[0] for row in rows]
    lifted_env = {name: _lifted(bound, outer) for name, bound in env.items()
                  if reads is None or name in reads}
    items = Table(_IPI, [(inner, 1, row[2])
                         for inner, row in enumerate(rows, 1)])
    return outer, lifted_env, items


def _match_hash_join(clause: A.ForClause, following,
                     bound: set) -> Optional[tuple[A.Expr, A.Expr]]:
    """``(key, probe)`` when *clause* and the *following* one read
    ``for $v in S where key($v) = probe`` (a general ``=``): ``S`` reads
    nothing the FLWOR *bound*, the key no variable but ``$v``, and the
    probe neither ``$v`` nor the position variable, but some other
    variable or the focus — a probe that reads neither is one value for
    every pair: a selection, which the where clause applies as is."""
    if not isinstance(following, A.WhereClause):
        return None
    condition = following.condition
    if not isinstance(condition, A.Comparison) or condition.op != "=" \
            or condition.kind != "general":
        return None
    if _free_variables(clause.source) & bound:
        return None
    var = clause.var
    for key, probe in ((condition.left, condition.right),
                       (condition.right, condition.left)):
        reads = _free_variables(probe)
        if _free_variables(key) == {var} \
                and not reads & {var, clause.position_var} \
                and (reads or not focus_free(probe)):
            return key, probe
    return None


_STRINGS = (xs.string, xs.untypedAtomic)

#: What yields fresh node identities, or ships, every time it runs.
_FRESH = (A.ExecuteAt, A.DirectElement, A.ComputedElement,
          A.ComputedAttribute, A.ComputedText, A.ComputedComment,
          A.ComputedPI, A.ComputedDocument)


def _same_every_time(expr: A.Expr) -> bool:
    """Does *expr* read no focus, construct no node and ship no call —
    so that, its variables bound alike, two evaluations yield the same
    items?"""
    if not focus_free(expr):
        return False
    stack: list = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, _FRESH):
            return False
        if isinstance(node, (list, tuple)):
            stack.extend(node)
        elif isinstance(node, (A.Expr, A.AxisStep, A.ForClause, A.LetClause,
                               A.WhereClause, A.OrderByClause, A.OrderSpec,
                               A.TypeSwitchCase)):
            stack.extend(vars(node).values())
    return True


def _number(item) -> AtomicValue:
    """An arithmetic operand, converted as the interpreter does."""
    return _numeric(atomize([item])[0])


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
    message rewording).  Every code is raised over zero iterations, so
    :meth:`LoopLiftingCompiler.check` decides it before any row is
    touched:

    ===================== ==================================================
    code                  meaning
    ===================== ==================================================
    step-not-lifted       a non-axis path step (filter-expression step)
    expr-not-lifted       an expression kind outside the core
    clause-not-lifted     a FLWOR clause kind outside the core
    function-not-lifted   a user-defined function, or a builtin that reads
                          the dynamic context (``position()``, ``fn:put``,
                          ``fn:doc-available`` …)
    comparison-not-lifted a value comparison
    search-dynamic-needle a ``contains(., needle)`` predicate whose
                          needle is not a string literal
    unbound-variable      variable reference with no binding
    context-item          path or ``.`` with no context item in scope
    document              ``fn:doc`` with no document resolver
    dispatch              ``execute at`` with no dispatch function
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
        # The builtins the plan calls read no dynamic context (see
        # builtin_reads_context); they are handed an empty one.
        self._builtin_context = DynamicContext(static)
        # xmlns declarations of the enclosing direct constructors.
        self._namespaces: dict[str, str] = {}

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
        env = {name: Table(_IPI, []) for name in names}
        if dot:
            env[_DOT] = Table(_IPI, [])
        self.compile_expr(expr, _loop(0), env)

    def evaluate(self, expr: A.Expr, count: int,
                 columns: dict[str, list[tuple]]) -> list[tuple]:
        """Evaluate *expr* set-at-a-time: once, for the iterations
        ``1..count``; returns the result's ``iter|pos|item`` rows.

        Each variable of *columns* is its ``iter|pos|item`` rows over
        all iterations (the context item binds under ``"."``), taken as
        they are — a main-module query is the one-iteration caller, a
        Bulk RPC message of N calls, its parameter columns as decoded,
        the general one.  Callers :meth:`check` first, or hold its
        verdict.
        """
        env = {name: Table(_IPI, rows) for name, rows in columns.items()}
        return self.compile_expr(expr, _loop(count), env).rows

    def compile_expr(self, expr: A.Expr, loop: Table,
                     env: dict[str, Table]) -> Table:
        """Compile *expr* under the given loop relation and environment;
        returns its iter|pos|item table, ordered as the module's order
        invariant states.

        Invariant (:meth:`check` rests on it): no branch on data outside
        a row loop — which sub-expressions compile, in what order, is
        fixed by the AST and the environment's names, so over zero rows
        every static failure still raises and nothing else happens.
        """
        method = _COMPILERS.get(type(expr))
        if method is None:
            raise _unsupported(expr, "outside the loop-lifted core")
        return method(self, expr, loop, env)

    # -- simple expressions -------------------------------------------------

    def _compile_literal(self, expr: A.Literal, loop: Table,
                         env: dict[str, Table]) -> Table:
        return Table(_IPI, [(it, 1, expr.value) for (it,) in loop.rows])

    def _compile_var_ref(self, expr: A.VarRef, loop: Table,
                         env: dict[str, Table]) -> Table:
        if expr.name not in env:
            raise _unsupported(expr, f"unbound variable ${expr.name}",
                               "unbound-variable")
        return env[expr.name]

    def _compile_context_item(self, expr: A.ContextItem, loop: Table,
                              env: dict[str, Table]) -> Table:
        dot = env.get(_DOT)
        if dot is None:
            raise _unsupported(expr, "no context item in scope",
                               "context-item")
        return dot

    def _compile_sequence(self, expr: A.SequenceExpr, loop: Table,
                          env: dict[str, Table]) -> Table:
        sites = [item for item in expr.items if isinstance(item, A.ExecuteAt)]
        shipped: Optional[Iterator[Table]] = None
        parts = []
        for item in expr.items:
            if not isinstance(item, A.ExecuteAt):
                table = self.compile_expr(item, loop, env)
            else:
                if shipped is None:  # the sibling sites ship together, here
                    shipped = iter(self._compile_sites(sites, loop, env))
                table = next(shipped)
            parts.append(_by_iter(table))
        return _table((it, [item for groups in parts
                            for item in groups.get(it, ())])
                      for (it,) in loop.rows)

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
        return Table(_IPI, rows)

    def _singleton_per_iter(self, table: Table, who: str) -> dict:
        values: dict = {}
        for it, pos, item in table.rows:
            if it in values:
                raise TypeError_("XPTY0004", f"{who} has more than one item")
            values[it] = item
        return values

    # -- FLWOR and conditionals -------------------------------------------

    def _compile_flwor(self, expr: A.FLWOR, loop: Table,
                       env: dict[str, Table]) -> Table:
        entry = loop, env
        env = dict(env)
        # Per for-clause, the outer iteration of each inner one, to
        # unwind the nesting afterwards.
        outers: list[list[int]] = []
        bound: set[str] = set()
        clauses = expr.clauses
        index = 0
        while index < len(clauses):
            clause = clauses[index]
            index += 1
            if isinstance(clause, A.LetClause):
                env[clause.var] = self.compile_expr(clause.value, loop, env)
                bound.add(clause.var)
            elif isinstance(clause, A.ForClause):
                following = clauses[index] if index < len(clauses) else None
                join = _match_hash_join(clause, following, bound)
                if join is None:
                    source = self._for_source(clause.source, loop, env)
                else:
                    source = self._join_source(clause, *join, following,
                                               entry, outers, loop, env)
                    index += 1  # the where clause is the join's
                outer, env, items = _explode(source, env)
                env[clause.var] = items
                if clause.position_var:  # a row's pos: its position in S
                    env[clause.position_var] = Table(_IPI, [
                        (inner, 1, integer(row[1]))
                        for inner, row in enumerate(source.rows, 1)])
                loop = _loop(len(outer))
                outers.append(outer)
                bound.add(clause.var)
                if clause.position_var:
                    bound.add(clause.position_var)
            elif isinstance(clause, A.WhereClause):
                loop, env = self._apply_where(clause, loop, env)
            else:
                raise _unsupported(clause, "outside the loop-lifted core",
                                   "clause-not-lifted")
        result = self.compile_expr(expr.return_expr, loop, env)
        for outer in reversed(outers):
            result = _unwind(result, outer)
        return result

    def _for_source(self, source: A.Expr, loop: Table,
                    env: dict[str, Table]) -> Table:
        """The rows of a for clause's *source* in every iteration of
        *loop*.  A source that reads no variable and is the same every
        time (:func:`_same_every_time`) compiles once, over one
        iteration — or none, with no live iteration — and each iteration
        gets its rows; any other, a constructing one included, compiles
        under the whole loop."""
        if _free_variables(source) or not _same_every_time(source):
            return self.compile_expr(source, loop, env)
        once = self.compile_expr(source, _loop(min(len(loop.rows), 1)), {})
        return Table(_IPI, [(it, pos, item) for (it,) in loop.rows
                            for _once, pos, item in once.rows])

    def _join_source(self, clause: A.ForClause, key: A.Expr, probe: A.Expr,
                     where: A.WhereClause, entry: tuple, outers: list,
                     loop: Table, env: dict[str, Table]) -> Table:
        """The source table of ``for $v in S where key($v) = probe``, the
        where clause applied: per current iteration, the items of ``S``
        whose key equals its probe, in ``S`` order with ``S``'s ``pos``.
        ``S`` compiles once per live iteration of the FLWOR's *entry*
        loop (the one each current iteration maps to through *outers*)
        and hashes by key string — once in all when ``S`` reads no
        variable and neither it nor the key reads the focus, constructs
        a node or ships a call: one table serves every entry iteration.
        A key or probe that is not a string compares pair by pair in the
        condition's own orientation, as the nested loop does.  Each part
        compiles over zero rows too, and with no live iteration ``S``
        resolves nothing."""
        if _free_variables(clause.source) or not _same_every_time(
                clause.source) or not _same_every_time(key):
            entry_of = {it: it for (it,) in loop.rows}
            for outer in reversed(outers):
                entry_of = {it: outer[e - 1] for it, e in entry_of.items()}
            entry_loop, entry_env = _restrict(*entry, set(entry_of.values()))
        else:  # loop-invariant: entry iteration 1 stands for them all
            entry_of = dict.fromkeys((it for (it,) in loop.rows), 1)
            entry_loop, entry_env = _loop(min(len(entry_of), 1)), {}
        source = self.compile_expr(clause.source, entry_loop, entry_env)
        # The key reads $v, and the focus at most besides.
        _, key_env, items = _explode(source, entry_env, {_DOT})
        key_env[clause.var] = items
        keys = _by_iter(self.compile_expr(key, _loop(len(source.rows)),
                                          key_env))
        rows = source.rows
        key_values, members, table, unhashed = [], {}, {}, set()
        for index, (e, _pos, _item) in enumerate(rows):
            key_values.append(atomize(keys.get(index + 1, [])))
            members.setdefault(e, []).append(index)
            for value in key_values[index]:
                if value.type in _STRINGS:
                    table.setdefault((e, value.string_value()),
                                     []).append(index)
                else:
                    unhashed.add(e)
        # An iteration with nothing to join evaluates no probe, as the
        # nested loop evaluates no where clause.
        probe_loop, probe_env = _restrict(
            loop, env, {it for it, e in entry_of.items() if e in members})
        probes = _by_iter(self.compile_expr(probe, probe_loop, probe_env))
        key_left = key is where.condition.left
        joined = []
        for (it,) in probe_loop.rows:
            e, values = entry_of[it], atomize(probes.get(it, []))
            if e in unhashed or any(v.type not in _STRINGS for v in values):
                matched = [index for index in members[e] if general_comparison(
                    "=", *((key_values[index], values) if key_left
                           else (values, key_values[index])))]
            else:
                matched = sorted({index for v in values for index in
                                  table.get((e, v.string_value()), ())})
            joined.extend((it, rows[index][1], rows[index][2])
                          for index in matched)
        return Table(_IPI, joined)

    def _ebv_split(self, condition: A.Expr, loop: Table,
                   env: dict[str, Table]) -> set:
        """The iterations of *loop* whose *condition* is true (by
        effective boolean value)."""
        values = _by_iter(self.compile_expr(condition, loop, env))
        return {it for (it,) in loop.rows
                if effective_boolean_value(values.get(it, []))}

    def _apply_where(self, clause: A.WhereClause, loop: Table,
                     env: dict[str, Table]):
        return _restrict(loop, env,
                         self._ebv_split(clause.condition, loop, env))

    def _compile_if(self, expr: A.IfExpr, loop: Table,
                    env: dict[str, Table]) -> Table:
        """Each branch compiles under the loop of the iterations that
        take it — so a branch no iteration takes runs over zero rows
        and raises nothing, as in the interpreter — and the two results
        merge by ``iter``."""
        taken = self._ebv_split(expr.condition, loop, env)
        then_part = self.compile_expr(
            expr.then_branch, *_restrict(loop, env, taken))
        else_part = self.compile_expr(
            expr.else_branch, *_restrict(
                loop, env, {it for (it,) in loop.rows if it not in taken}))
        if not else_part.rows:
            return then_part
        if not then_part.rows:
            return else_part
        # Two iter-ordered runs over disjoint iterations: a stable merge.
        return Table(_IPI, sorted(then_part.rows + else_part.rows,
                                  key=_ITER))

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
        return Table(_IPI, rows)

    def _compile_comparison(self, expr: A.Comparison, loop: Table,
                            env: dict[str, Table]) -> Table:
        if expr.kind == "value":
            raise _unsupported(expr, "value comparisons are not lifted",
                               "comparison-not-lifted")
        left = _by_iter(self.compile_expr(expr.left, loop, env))
        right = _by_iter(self.compile_expr(expr.right, loop, env))
        if expr.kind == "general":
            return Table(_IPI, [
                (it, 1, boolean(general_comparison(
                    expr.op, left.get(it, []), right.get(it, []))))
                for (it,) in loop.rows])
        return _table((it, node_comparison(expr.op, left.get(it, []),
                                           right.get(it, [])))
                      for (it,) in loop.rows)

    def _compile_function_call(self, expr: A.FunctionCall, loop: Table,
                               env: dict[str, Table]) -> Table:
        """A builtin that reads its arguments only, called once per
        live iteration with that iteration's argument sequences — the
        interpreter's implementation, so its semantics by construction."""
        arity = len(expr.args)
        try:
            uri, local = self.static.resolve_function_name(expr.name)
        except XRPCReproError:  # an undeclared prefix, raised if reached
            uri = local = None
        if uri == FN_NS and local == "doc" and arity == 1:
            return self._compile_doc(expr, loop, env)
        builtin = None
        if uri is not None and not builtin_reads_context(uri, local, arity):
            builtin = get_builtin(uri, local, arity)
        if builtin is None:
            raise _unsupported(
                expr, f"function {expr.name} is outside the loop-lifted core",
                "function-not-lifted")
        args = [_by_iter(self.compile_expr(arg, loop, env))
                for arg in expr.args]
        context = self._builtin_context
        return _table((it, builtin([groups.get(it, []) for groups in args],
                                   context))
                      for (it,) in loop.rows)

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
        for it, uri in _lexical(uris.items()):
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
        return Table(_IPI, rows)

    # -- constructors: one node per live iteration --------------------------

    def _compile_parts(self, parts: list, loop: Table,
                       env: dict[str, Table]) -> list:
        """Content or attribute-value parts: literal strings as they
        are, enclosed expressions as their sequences per iteration."""
        return [part if isinstance(part, str)
                else _by_iter(self.compile_expr(part, loop, env))
                for part in parts]

    def _constructor_names(self, name, loop: Table,
                           env: dict[str, Table]) -> dict:
        """A computed constructor's name per live iteration."""
        if isinstance(name, str):
            return {it: name for (it,) in loop.rows}
        names = _by_iter(self.compile_expr(name, loop, env))
        return {it: constructor_name(names.get(it, []))
                for (it,) in loop.rows}

    def _compile_direct_element(self, expr: A.DirectElement, loop: Table,
                                env: dict[str, Table]) -> Table:
        declarations, in_scope = direct_namespaces(expr, self._namespaces)
        enclosing, self._namespaces = self._namespaces, in_scope
        try:
            attributes = [self._compile_parts(parts, loop, env)
                          for _, parts in expr.attributes]
            content = self._compile_parts(expr.content, loop, env)
        finally:
            self._namespaces = enclosing

        def at(parts: list, it: int) -> list:
            return [part if isinstance(part, str) else part.get(it, [])
                    for part in parts]
        return Table(_IPI, [
            (it, 1, build_direct_element(
                expr, declarations, in_scope, self.static,
                [at(parts, it) for parts in attributes], at(content, it),
                NodeFactory()))
            for (it,) in loop.rows])

    def _compile_computed_element(self, expr: A.ComputedElement,
                                  loop: Table, env: dict[str, Table]) -> Table:
        names = self._constructor_names(expr.name, loop, env)
        content = _by_iter(self.compile_expr(expr.content, loop, env)) \
            if expr.content is not None else {}
        return Table(_IPI, [
            (it, 1, build_computed_element(
                names[it], self._namespaces, self.static,
                content.get(it, []), NodeFactory()))
            for (it,) in loop.rows])

    def _compile_computed_attribute(self, expr: A.ComputedAttribute,
                                    loop: Table,
                                    env: dict[str, Table]) -> Table:
        names = self._constructor_names(expr.name, loop, env)
        content = _by_iter(self.compile_expr(expr.content, loop, env)) \
            if expr.content else {}
        return Table(_IPI, [
            (it, 1, build_computed_attribute(names[it], content.get(it, [])))
            for (it,) in loop.rows])

    def _compile_computed_text(self, expr: A.ComputedText, loop: Table,
                               env: dict[str, Table]) -> Table:
        if not expr.content:
            return _table((it, build_computed_text(None))
                          for (it,) in loop.rows)
        content = _by_iter(self.compile_expr(expr.content, loop, env))
        return _table((it, build_computed_text(content.get(it, [])))
                      for (it,) in loop.rows)

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
            current = Table(_IPI, rows)
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

    def _step_matcher(self, step: A.AxisStep) -> Callable[[Node], bool]:
        test, axis, static = step.node_test, step.axis, self.static
        if isinstance(test, A.NameTest) and test.local == "*" \
                and test.prefix is None and axis != "attribute":
            # ``*`` is any element, whatever its namespace.
            return lambda node: isinstance(node, ElementNode)
        namespaces = self._namespaces
        return lambda node: node_test_matches(node, test, axis, static,
                                              namespaces)

    def _compile_axis_step(self, step: A.AxisStep,
                           current: Table, loop: Table,
                           env: dict[str, Table]) -> Table:
        axis = step.axis
        test = step.node_test
        local = None
        if isinstance(test, A.NameTest) and test.local != "*":
            local = test.local
        match_all = isinstance(test, A.KindTest) and test.kind == "node"
        matches = self._step_matcher(step)
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
        # candidate window, which the set-at-a-time step folds away.
        specs = [positional_predicate_spec(p) for p in step.predicates]
        if all(spec is not None for spec in specs):
            # Every rank is known statically: one operator ranks each
            # context node's window in one pass over the windows.
            return positional_filter(current, axis, specs, matches,
                                     local_name=local, match_all=match_all)
        # A predicate known per row only at run time: explode the context
        # into one inner iteration per context node (the for-clause map
        # construction) with only what the predicates read lifted, rank
        # each window, and merge back to step semantics afterwards.
        reads = {_DOT}.union(*map(_free_variables, step.predicates))
        outer, lifted_env, exploded = _explode(current, env, reads)
        reverse = axis in REVERSE_AXES
        result = axis_step(exploded, axis, matches=matches,
                           local_name=local, match_all=match_all)
        for spec, predicate in zip(specs, step.predicates):
            if spec is not None:
                result = window_rank(result, spec, reverse=reverse)
            elif _statically_non_numeric(predicate):
                result = self._apply_step_predicates(result, [predicate],
                                                     lifted_env)
            else:
                result = self._value_filter(predicate, result, lifted_env,
                                            reverse)
        return merge_exploded_contexts(result, outer)

    def _try_equality_probe(self, step: A.AxisStep, current: Table,
                            loop: Table, env: dict[str, Table],
                            ) -> Optional[Table]:
        """``axis::name[path = value]`` with *value* compiled once per
        iteration, not per candidate.

        The interpreter's probe, lifted (both run
        :func:`equality_probe_step` on the :func:`equality_probe_shape`):
        *value* compiles under the *outer* loop.  String probes then
        probe the per-anchor value index cached on the tree's
        ``StructuralIndex`` instead of scanning the axis window; other
        probe values, or contexts the index does not serve, scan the
        window and compare each candidate's key path with its
        iteration's probe values — the predicate's own comparison, its
        right side evaluated once.  Returns ``None`` — the generic
        scan-then-filter pipeline takes the step — when the step is not
        of this shape, a decision made on the AST alone.
        """
        shape = equality_probe_shape(step, self.static, self._namespaces)
        if shape is None:
            return None
        name, key_path, value = shape
        # One walk over the probe column: each iteration's atomized
        # values, and their strings while every value is a string.
        probes: dict = {}
        strings: Optional[dict] = {}
        for it, _pos, item in self.compile_expr(value, loop, env).rows:
            for atom in atomize((item,)):
                probes.setdefault(it, []).append(atom)
                if strings is not None and atom.type in _STRINGS:
                    strings.setdefault(it, []).append(atom.string_value())
                else:
                    strings = None
        if strings is not None:
            probed = equality_probe_step(
                current, step.axis, name, key_path, strings,
                self._step_matcher(step))
            if probed is not None:
                return probed
        scanned = axis_step(current, step.axis,
                            matches=self._step_matcher(step),
                            local_name=step.node_test.local)
        return _renumbered(
            (it, node) for it, _pos, node in scanned.rows
            if general_comparison(
                "=", [untyped(key) for key in _walk_key_path(node, key_path)],
                probes.get(it, [])))

    def _predicate_values(self, predicate: A.Expr, table: Table,
                          env: dict[str, Table]) -> dict:
        """Every candidate row of *table* becomes one inner iteration —
        the same map construction as a for-clause — with the candidate
        bound as the context item, and *predicate* compiles under that
        inner loop, with only the variables it reads lifted.  Returns the
        predicate's value per inner iteration (row *k* of *table* is
        inner iteration *k*)."""
        outer, lifted_env, focus = _explode(table, env,
                                            _free_variables(predicate))
        lifted_env[_DOT] = focus
        return _by_iter(self.compile_expr(predicate, _loop(len(outer)),
                                          lifted_env))

    def _value_filter(self, predicate: A.Expr, table: Table,
                      env: dict[str, Table], reverse: bool) -> Table:
        """A predicate that may be numeric at run time, over per-context
        windows (one iteration per window): a single number keeps the
        candidate whose position equals it, any other value filters by
        effective boolean value — the interpreter's rule, ranked by
        :func:`~repro.algebra.paths.window_rank`."""
        values = self._predicate_values(predicate, table, env)
        numbered = Table(_IPI + ("inner",), [
            row + (inner,) for inner, row in enumerate(table.rows, 1)])

        def keep(row: tuple, position: int, count: int) -> bool:
            value = values.get(row[3], [])
            if len(value) == 1 and isinstance(value[0], AtomicValue) \
                    and value[0].is_numeric:
                return float(value[0].value) == position
            return effective_boolean_value(value)
        return window_rank(numbered, keep, reverse=reverse)

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
            values = self._predicate_values(predicate, table, env)
            table = _renumbered(
                (row[0], row[2]) for inner, row in enumerate(table.rows, 1)
                if effective_boolean_value(values.get(inner, [])))
        return table

    # -- execute at: the Figure 2 rule ----------------------------------------

    def _compile_execute_at(self, expr: A.ExecuteAt, loop: Table,
                            env: dict[str, Table]) -> Table:
        [table] = self._compile_sites([expr], loop, env)
        return table

    def _compile_sites(self, sites: list[A.ExecuteAt], loop: Table,
                       env: dict[str, Table]) -> list[Table]:
        """The sibling ``execute at`` *sites* of one sequence under one
        loop, one result table each.  Per site and distinct destination
        peer (by :func:`~repro.net.transport.normalize_peer_uri`): the
        ``map`` of its iterations to call numbers ``iterp``, the ``req``
        parameter tables, the ``msg`` answers and the ``res`` answers
        mapped back to ``iter`` — each built in one pass over
        iter-ordered input.  The sites' requests then ship as one Bulk
        RPC per (peer, module, function, arity, updating) group, in
        order of first appearance and through one parallel dispatch,
        and each site's answers are split back out of its groups."""
        if self.dispatch is None:
            raise _unsupported(sites[0],
                               "execute at requires a dispatch function",
                               "dispatch")
        planned = [self._site_requests(site, loop, env) for site in sites]
        groups: dict[tuple, list[tuple]] = {}
        for _, requests in planned:
            for request in requests:
                groups.setdefault(_group_key(request), []).append(request)
        shipped = []
        for members in groups.values():
            request = members[0]
            if len(members) > 1:  # sibling sites' calls, one message
                calls = Arguments()
                for member in members:
                    calls.extend(member[5])
                request = request[:5] + (calls, request[6])
            shipped.append(request)
        if self.dispatch_parallel is not None and len(shipped) > 1:
            answers = self.dispatch_parallel(shipped)
        else:
            answers = [self.dispatch(*request) for request in shipped]

        answer_of = dict(zip(groups, answers))
        taken = dict.fromkeys(groups, 0)
        tables = []
        for iters_of, requests in planned:
            answered = []
            for request in requests:
                key = _group_key(request)
                start = taken[key]
                taken[key] += len(request[5])
                answered.append(answer_of[key][start:taken[key]])
            rows = [(it, pos, item)
                    for iters, results in zip(iters_of.values(), answered)
                    for it, sequence in zip(iters, results)
                    for pos, item in enumerate(sequence, 1)]
            if len(iters_of) > 1:  # merge-union the peers' answers by iter
                rows.sort(key=_ITER)
            result = Table(_IPI, rows)
            if self.trace_enabled and iters_of:
                self.trace.append(_figure2_trace(iters_of, requests,
                                                 answered, result))
            tables.append(result)
        return tables

    def _site_requests(self, expr: A.ExecuteAt, loop: Table,
                       env: dict[str, Table],
                       ) -> tuple[dict[str, list[int]], list[tuple]]:
        """One ``execute at``'s iterations per distinct destination peer
        and its per-peer request tuples, in the dispatch's ``(peer,
        module_uri, location, function, arity, calls, updating)`` shape;
        both empty when no iteration is live."""
        destinations = _by_iter(self.compile_expr(expr.destination, loop, env))
        if any(len(destinations.get(it, ())) != 1 for (it,) in loop.rows):
            raise TypeError_(
                "XPTY0004", "execute at: destination must be a single string")
        params = [self.compile_expr(arg, loop, env) for arg in expr.call.args]
        # Distinct destination peers, δ(π_item(dst)), and the iterations
        # of each in ascending order: map_p, iterp - 1 indexing the list.
        iters_of: dict[str, list[int]] = {}
        peer_of: dict[str, str] = {}  # each spelling normalized once
        for it, uri in _lexical((it, item)
                                for it, [item] in destinations.items()):
            peer = peer_of.get(uri)
            if peer is None:
                peer = peer_of[uri] = normalize_peer_uri(uri)
            iters_of.setdefault(peer, []).append(it)
        if not iters_of:  # no live iteration: nothing to ship or to trace
            return iters_of, []

        # req_p: each parameter table's rows, iter mapped to iterp, in
        # one pass per table — the message's columns as they ship.
        columns: list[list[list[tuple]]] = [[[] for _ in params]
                                            for _ in iters_of]
        where = {it: (columns[index], iterp)
                 for index, iters in enumerate(iters_of.values())
                 for iterp, it in enumerate(iters, 1)}
        for index, table in enumerate(params):
            for it, pos, item in table.rows:
                peer_columns, iterp = where[it]
                peer_columns[index].append((iterp, pos, item))
        uri, local = self.static.resolve_function_name(expr.call.name)
        location = self.static.module_locations.get(uri)
        decl = self.static.lookup_function(uri, local, len(expr.call.args))
        updating = bool(decl is not None and getattr(decl, "updating", False))
        return iters_of, [
            (peer, uri, location, local, len(params),
             Arguments(len(iters), peer_columns), updating)
            for (peer, iters), peer_columns in zip(iters_of.items(), columns)]


def _group_key(request: tuple) -> tuple:
    """The Bulk RPC group of a dispatch request: (peer, module,
    function, arity, updating) — the location rides along from the
    group's first request."""
    peer, uri, _location, local, arity, _calls, updating = request
    return peer, uri, local, arity, updating


def _figure2_trace(iters_of: dict[str, list[int]], requests: list,
                   answers: list, result: Table) -> dict:
    """The per-peer tables of Figure 2 (map, req, msg, res) for one
    ``execute at``, as :attr:`LoopLiftingCompiler.trace` records them."""
    per_peer = []
    for (peer, iters), request, results in zip(iters_of.items(), requests,
                                               answers):
        per_peer.append({
            "peer": peer,
            "map": Table(("iter", "iterp"),
                         [(it, iterp) for iterp, it in enumerate(iters, 1)]),
            "req": [Table(_IPI, rows) for rows in request[5].columns],
            "msg": _table(enumerate(results, 1)),
            "res": _table(zip(iters, results)),
        })
    return {"peers": list(iters_of), "per_peer": per_peer, "result": result}


_COMPILERS: dict[type, Callable] = {
    A.Literal: LoopLiftingCompiler._compile_literal,
    A.VarRef: LoopLiftingCompiler._compile_var_ref,
    A.ContextItem: LoopLiftingCompiler._compile_context_item,
    A.SequenceExpr: LoopLiftingCompiler._compile_sequence,
    A.RangeExpr: LoopLiftingCompiler._compile_range,
    A.FLWOR: LoopLiftingCompiler._compile_flwor,
    A.IfExpr: LoopLiftingCompiler._compile_if,
    A.ExecuteAt: LoopLiftingCompiler._compile_execute_at,
    A.Arithmetic: LoopLiftingCompiler._compile_arith,
    A.Comparison: LoopLiftingCompiler._compile_comparison,
    A.FunctionCall: LoopLiftingCompiler._compile_function_call,
    A.PathExpr: LoopLiftingCompiler._compile_path,
    A.DirectElement: LoopLiftingCompiler._compile_direct_element,
    A.ComputedElement: LoopLiftingCompiler._compile_computed_element,
    A.ComputedAttribute: LoopLiftingCompiler._compile_computed_attribute,
    A.ComputedText: LoopLiftingCompiler._compile_computed_text,
}


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
        columns = {name: [(1, pos, item) for pos, item in enumerate(value, 1)]
                   for name, value in (self.context.variables or {}).items()}
        if self.context.context_item is not None:
            columns[_DOT] = [(1, 1, self.context.context_item)]
        return [row[2] for row in
                self.compiler.evaluate(self.body, 1, columns)]
