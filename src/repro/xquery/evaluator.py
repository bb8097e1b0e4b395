"""Tree-walking evaluator for the XQuery subset (+ XQUF + XRPC).

This is the "Saxon-style" execution engine of the reproduction: a direct
interpreter over the AST.  The loop-lifted relational backend
(:mod:`repro.pathfinder`) compiles a subset of the same AST to algebra
plans; both produce identical XDM results.

``execute at`` is evaluated through ``ctx.dispatch`` — the paper's
"stub code" boundary, and the lifted plan's too: the evaluator hands it
a Bulk RPC message of one call and the RPC layer does SOAP marshaling,
networking and unmarshaling.
"""

from __future__ import annotations

import math
from decimal import Decimal
from itertools import groupby
from operator import itemgetter
from typing import Callable, Optional

from repro.algebra.paths import (
    ANY_NAMESPACE,
    axis_step,
    axis_value_index as axis_value_index,  # the benchmark wraps it here too
    equality_probe_step,
    positional_spec_keep,
    positional_step,
)
from repro.algebra.table import Table
from repro.errors import DynamicError, StaticError, TypeError_, UpdateError
from repro.soap.messages import Arguments
from repro.xdm.atomic import (
    AtomicValue,
    boolean,
    cast,
    cast_by_name,
    general_compare_pair,
    integer,
    string,
    value_compare,
)
from repro.xdm.atomic import _compare_key  # ordering helper for 'order by'
from repro.xdm.nodes import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    Node,
    NodeFactory,
    ProcessingInstructionNode,
    TextNode,
    copy_into,
)
from repro.xdm.sequence import (
    atomize,
    document_order_sort,
    effective_boolean_value,
)
from repro.xdm.structural import REVERSE_AXES
from repro.xdm.types import xs
from repro.xquery import xast as A
from repro.xquery import seqtype
from repro.xquery.context import (
    DynamicContext,
    ExecutionContext,
    StaticContext,
    FN_NS,
)
from repro.xquery.functions import builtin_reads_context, get_builtin
from repro.xquery.modules import ModuleRegistry
from repro.xquery.parser import parse_main_module
from repro.xquf.pul import (
    DeleteNode,
    InsertAfter,
    InsertBefore,
    InsertFirst,
    InsertInto,
    InsertLast,
    PendingUpdateList,
    RenameNode,
    ReplaceNode,
    ReplaceValue,
)

Sequence = list

_IPI = ("iter", "pos", "item")


class Evaluator:
    """Evaluates AST expressions against a dynamic context."""

    def __init__(self) -> None:
        self._dispatch: dict[type, Callable[[A.Expr, DynamicContext], Sequence]] = {
            A.Literal: self._eval_literal,
            A.VarRef: self._eval_var_ref,
            A.ContextItem: self._eval_context_item,
            A.SequenceExpr: self._eval_sequence,
            A.RangeExpr: self._eval_range,
            A.Arithmetic: self._eval_arithmetic,
            A.Unary: self._eval_unary,
            A.Comparison: self._eval_comparison,
            A.Logical: self._eval_logical,
            A.IfExpr: self._eval_if,
            A.FLWOR: self._eval_flwor,
            A.Quantified: self._eval_quantified,
            A.PathExpr: self._eval_path,
            A.FilterExpr: self._eval_filter,
            A.FunctionCall: self._eval_function_call,
            A.ExecuteAt: self._eval_execute_at,
            A.DirectElement: self._eval_direct_element,
            A.ComputedElement: self._eval_computed_element,
            A.ComputedAttribute: self._eval_computed_attribute,
            A.ComputedText: self._eval_computed_text,
            A.ComputedComment: self._eval_computed_comment,
            A.ComputedPI: self._eval_computed_pi,
            A.ComputedDocument: self._eval_computed_document,
            A.CastExpr: self._eval_cast,
            A.CastableExpr: self._eval_castable,
            A.InstanceOf: self._eval_instance_of,
            A.TreatAs: self._eval_treat_as,
            A.TypeSwitch: self._eval_typeswitch,
            A.SetOp: self._eval_set_op,
            A.InsertExpr: self._eval_insert,
            A.DeleteExpr: self._eval_delete,
            A.ReplaceExpr: self._eval_replace,
            A.RenameExpr: self._eval_rename,
        }

    def eval(self, expr: A.Expr, ctx: DynamicContext) -> Sequence:
        handler = self._dispatch.get(type(expr))
        if handler is None:
            raise DynamicError(
                "XPST0003", f"no evaluator for {type(expr).__name__}")
        return handler(expr, ctx)

    # ------------------------------------------------------------------
    # Primaries

    def _eval_literal(self, expr: A.Literal, ctx: DynamicContext) -> Sequence:
        return [expr.value]

    def _eval_var_ref(self, expr: A.VarRef, ctx: DynamicContext) -> Sequence:
        return ctx.variable(expr.name)

    def _eval_context_item(self, expr: A.ContextItem, ctx: DynamicContext) -> Sequence:
        if ctx.focus_item is None:
            raise DynamicError("XPDY0002", "context item is undefined")
        return [ctx.focus_item]

    def _eval_sequence(self, expr: A.SequenceExpr, ctx: DynamicContext) -> Sequence:
        result: Sequence = []
        for item in expr.items:
            result.extend(self.eval(item, ctx))
        return result

    def _eval_range(self, expr: A.RangeExpr, ctx: DynamicContext) -> Sequence:
        start = self._numeric_operand(expr.start, ctx, "range")
        end = self._numeric_operand(expr.end, ctx, "range")
        if start is None or end is None:
            return []
        return [integer(i) for i in range(int(start.value), int(end.value) + 1)]

    def _numeric_operand(self, expr: A.Expr, ctx: DynamicContext,
                         who: str) -> Optional[AtomicValue]:
        values = atomize(self.eval(expr, ctx))
        if not values:
            return None
        if len(values) > 1:
            raise TypeError_("XPTY0004", f"{who}: operand has more than one item")
        value = values[0]
        if value.type is xs.untypedAtomic:
            value = cast(value, xs.double)
        if not value.is_numeric:
            raise TypeError_(
                "XPTY0004", f"{who}: expected numeric, got {value.type.name}")
        return value

    # ------------------------------------------------------------------
    # Arithmetic

    def _eval_arithmetic(self, expr: A.Arithmetic, ctx: DynamicContext) -> Sequence:
        left = self._numeric_operand(expr.left, ctx, expr.op)
        right = self._numeric_operand(expr.right, ctx, expr.op)
        if left is None or right is None:
            return []
        return [_arith(expr.op, left, right)]

    def _eval_unary(self, expr: A.Unary, ctx: DynamicContext) -> Sequence:
        value = self._numeric_operand(expr.operand, ctx, "unary")
        if value is None:
            return []
        if expr.op == "-":
            return [AtomicValue(-value.value, value.type)]
        return [value]

    # ------------------------------------------------------------------
    # Comparisons / logic

    def _eval_comparison(self, expr: A.Comparison, ctx: DynamicContext) -> Sequence:
        if expr.kind == "general":
            return [boolean(general_comparison(
                expr.op, self.eval(expr.left, ctx), self.eval(expr.right, ctx)))]
        if expr.kind == "value":
            left = atomize(self.eval(expr.left, ctx))
            right = atomize(self.eval(expr.right, ctx))
            if not left or not right:
                return []
            if len(left) > 1 or len(right) > 1:
                raise TypeError_(
                    "XPTY0004", "value comparison operand is not a singleton")
            return [boolean(value_compare(left[0], expr.op, right[0]))]
        return node_comparison(expr.op, self.eval(expr.left, ctx),
                               self.eval(expr.right, ctx))

    def _eval_logical(self, expr: A.Logical, ctx: DynamicContext) -> Sequence:
        left = effective_boolean_value(self.eval(expr.left, ctx))
        if expr.op == "and":
            if not left:
                return [boolean(False)]
            return [boolean(effective_boolean_value(self.eval(expr.right, ctx)))]
        if left:
            return [boolean(True)]
        return [boolean(effective_boolean_value(self.eval(expr.right, ctx)))]

    def _eval_if(self, expr: A.IfExpr, ctx: DynamicContext) -> Sequence:
        if effective_boolean_value(self.eval(expr.condition, ctx)):
            return self.eval(expr.then_branch, ctx)
        return self.eval(expr.else_branch, ctx)

    # ------------------------------------------------------------------
    # FLWOR

    def _eval_flwor(self, expr: A.FLWOR, ctx: DynamicContext) -> Sequence:
        tuples = [ctx.child()]
        for clause in expr.clauses:
            if isinstance(clause, A.ForClause):
                expanded: list[DynamicContext] = []
                for tup in tuples:
                    source = self.eval(clause.source, tup)
                    for position, item in enumerate(source, start=1):
                        bound = tup.child()
                        bound.variables[clause.var] = [item]
                        if clause.position_var:
                            bound.variables[clause.position_var] = [integer(position)]
                        expanded.append(bound)
                tuples = expanded
            elif isinstance(clause, A.LetClause):
                rebound: list[DynamicContext] = []
                for tup in tuples:
                    bound = tup.child()
                    bound.variables[clause.var] = self.eval(clause.value, bound)
                    rebound.append(bound)
                tuples = rebound
            elif isinstance(clause, A.WhereClause):
                tuples = [
                    tup for tup in tuples
                    if effective_boolean_value(self.eval(clause.condition, tup))
                ]
            elif isinstance(clause, A.OrderByClause):
                tuples = self._order_tuples(clause, tuples)
        result: Sequence = []
        for tup in tuples:
            result.extend(self.eval(expr.return_expr, tup))
        return result

    def _order_tuples(self, clause: A.OrderByClause,
                      tuples: list[DynamicContext]) -> list[DynamicContext]:
        decorated = []
        for tup in tuples:
            keys = []
            for spec in clause.specs:
                values = atomize(self.eval(spec.key, tup))
                if len(values) > 1:
                    raise TypeError_(
                        "XPTY0004", "order by key is not a singleton")
                key = values[0] if values else None
                if key is not None and key.type is xs.untypedAtomic:
                    key = cast(key, xs.string)
                keys.append(key)
            decorated.append((keys, tup))

        import functools

        def compare(a, b) -> int:
            for spec, ka, kb in zip(clause.specs, a[0], b[0]):
                if ka is None and kb is None:
                    continue
                if ka is None:
                    ordering = -1 if spec.empty_least else 1
                elif kb is None:
                    ordering = 1 if spec.empty_least else -1
                else:
                    ordering = _compare_key(ka, kb)
                    if ordering == 2:  # NaN involvement: treat as equal
                        ordering = 0
                if spec.descending:
                    ordering = -ordering
                if ordering:
                    return ordering
            return 0

        decorated.sort(key=functools.cmp_to_key(compare))
        return [tup for _, tup in decorated]

    def _eval_quantified(self, expr: A.Quantified, ctx: DynamicContext) -> Sequence:
        def recurse(bindings: list[tuple[str, A.Expr]],
                    scope: DynamicContext) -> bool:
            if not bindings:
                return effective_boolean_value(self.eval(expr.satisfies, scope))
            var, source = bindings[0]
            for item in self.eval(source, scope):
                bound = scope.child()
                bound.variables[var] = [item]
                result = recurse(bindings[1:], bound)
                if expr.kind == "some" and result:
                    return True
                if expr.kind == "every" and not result:
                    return False
            return expr.kind == "every"

        return [boolean(recurse(expr.bindings, ctx))]

    # ------------------------------------------------------------------
    # Paths

    def _eval_path(self, expr: A.PathExpr, ctx: DynamicContext) -> Sequence:
        steps = list(expr.steps)
        if expr.absolute != "none":
            if ctx.focus_item is None or not isinstance(ctx.focus_item, Node):
                raise DynamicError(
                    "XPDY0002", "absolute path requires a node context item")
            current: Sequence = [ctx.focus_item.root()]
            if expr.absolute == "root-descendant":
                steps.insert(0, A.AxisStep("descendant-or-self", A.KindTest("node")))
        elif expr.start is None:
            if ctx.focus_item is None:
                raise DynamicError("XPDY0002", "relative path without context item")
            current = [ctx.focus_item]
        else:
            current = self.eval(expr.start, ctx)
        for step in _fuse_descendant_steps(steps):
            if isinstance(step, A.AxisStep):
                current = self._eval_axis_step(step, current, ctx)
            else:
                current = self._eval_expr_step(step, current, ctx)
        return current

    def _eval_expr_step(self, step: A.Expr, input_sequence: Sequence,
                        ctx: DynamicContext) -> Sequence:
        """E1/E2 where E2 is a primary/filter expression: evaluate E2 with
        each node of E1 as focus; node results are doc-order merged."""
        results: Sequence = []
        size = len(input_sequence)
        for position, item in enumerate(input_sequence, start=1):
            if not isinstance(item, Node):
                raise TypeError_(
                    "XPTY0019", "path step applied to a non-node item")
            focus = ctx.with_focus(item, position, size)
            results.extend(self.eval(step, focus))
        if all(isinstance(r, Node) for r in results):
            return document_order_sort(results)
        if any(isinstance(r, Node) for r in results):
            raise TypeError_(
                "XPTY0018", "path step mixes nodes and atomic values")
        return results

    # -- axis steps: the plan's kernels over one iteration -----------------
    #
    # The context sequence becomes a one-iteration iter|pos|item table and
    # the step is one call of the kernel the lifted plan runs for it
    # (repro.algebra.paths): staircase-pruned window scans over the
    # per-tree pre/size/level columns, duplicate-free and document-ordered
    # by construction; a positional step ranks each context node's window;
    # ``axis::name[path = value]`` probes the maintained value index — the
    # hash join the paper observes in Saxon (section 4, Table 3).

    def _eval_axis_step(self, step: A.AxisStep, input_sequence: Sequence,
                        ctx: DynamicContext) -> Sequence:
        axis, test, predicates = step.axis, step.node_test, step.predicates
        static, namespaces = ctx.static, ctx.constructor_namespaces
        # Holds no dynamic context: a value index keeps its node test.
        matches = lambda node: node_test_matches(node, test, axis, static,
                                                 namespaces)
        local = test.local if isinstance(test, A.NameTest) \
            and test.local != "*" else None
        match_all = isinstance(test, A.KindTest) and test.kind == "node"
        probe = specs = None
        if predicates:
            probe = self._equality_probe(step, input_sequence, ctx)
            if probe is None:
                specs = [positional_predicate_spec(p) for p in predicates]
        if specs is not None and None in specs:
            # A predicate known only at run time counts position() and
            # last() within each context node's window: one iteration
            # per context node, each window filtered in axis order, then
            # merged.
            exploded = Table(_IPI, [(it, 1, item) for it, item
                                    in enumerate(input_sequence, 1)])
            results: list[Node] = []
            for _it, rows in groupby(axis_step(
                    exploded, axis, matches, local, match_all).rows,
                    itemgetter(0)):
                window = [row[2] for row in rows]
                if axis in REVERSE_AXES:
                    window.reverse()
                results.extend(self._apply_predicates(window, predicates,
                                                      ctx))
            return document_order_sort(results)
        table = Table(_IPI, [(1, pos, item)
                             for pos, item in enumerate(input_sequence, 1)])
        if probe is not None:
            result = equality_probe_step(table, axis, *probe, matches)
        elif specs:
            result = positional_step(table, axis, specs, matches, local,
                                     match_all)
        else:
            result = axis_step(table, axis, matches, local, match_all)
        return [row[2] for row in result.rows]

    def _equality_probe(self, step: A.AxisStep, input_sequence: Sequence,
                        ctx: DynamicContext) -> Optional[tuple]:
        """``(name, key path, probe strings of iteration 1)`` when *step*
        has the :func:`equality_probe_shape`, its context is one element
        or document node and the value, evaluated once, is all strings;
        ``None`` sends the step down the scan."""
        shape = equality_probe_shape(step, ctx.static,
                                     ctx.constructor_namespaces)
        if shape is None or len(input_sequence) != 1:
            return None
        context = input_sequence[0]
        if not isinstance(context, Node) or isinstance(context, AttributeNode):
            return None
        name, key_path, value = shape
        probes = []
        for atom in atomize(self.eval(value, ctx)):
            if atom.type not in (xs.string, xs.untypedAtomic):
                return None
            probes.append(atom.string_value())
        return name, key_path, {1: probes}

    def _apply_predicates(self, items: Sequence, predicates: list[A.Expr],
                          ctx: DynamicContext) -> Sequence:
        for predicate in predicates:
            spec = positional_predicate_spec(predicate)
            if spec is None:
                items = self._filter_by_value(items, predicate, ctx)
                continue
            # [n], [last()], position() comparisons: a rank, with no
            # focus built and nothing evaluated per item.
            size = len(items)
            items = [item for position, item in enumerate(items, start=1)
                     if positional_spec_keep(spec, position, size)]
        return items

    def _filter_by_value(self, items: Sequence, predicate: A.Expr,
                         ctx: DynamicContext) -> Sequence:
        """*predicate* evaluated with each item as the focus: a single
        number keeps the item at that position, any other value filters
        by effective boolean value."""
        size = len(items)
        kept = []
        for position, item in enumerate(items, start=1):
            focus = ctx.with_focus(item, position, size)
            value = self.eval(predicate, focus)
            if len(value) == 1 and isinstance(value[0], AtomicValue) \
                    and value[0].is_numeric:
                if float(value[0].value) == position:
                    kept.append(item)
            elif effective_boolean_value(value):
                kept.append(item)
        return kept

    def _eval_filter(self, expr: A.FilterExpr, ctx: DynamicContext) -> Sequence:
        base = self.eval(expr.base, ctx)
        return self._apply_predicates(base, expr.predicates, ctx)

    # ------------------------------------------------------------------
    # Function calls

    def _eval_function_call(self, expr: A.FunctionCall,
                            ctx: DynamicContext) -> Sequence:
        uri, local = ctx.static.resolve_function_name(expr.name)
        arity = len(expr.args)
        args = [self.eval(arg, ctx) for arg in expr.args]

        builtin = get_builtin(uri, local, arity)
        if builtin is not None:
            return builtin(args, ctx)

        decl = ctx.static.lookup_function(uri, local, arity)
        if decl is None:
            raise StaticError(
                "XPST0017", f"unknown function {expr.name}#{arity}")
        return self.call_user_function(decl, args, ctx)

    def call_user_function(self, decl: A.FunctionDecl, args: list[Sequence],
                           ctx: DynamicContext) -> Sequence:
        """Apply a user-defined function to already-evaluated arguments."""
        if decl.body is None:
            raise DynamicError(
                "XPDY0130", f"external function {decl.name} has no implementation")
        bindings = seqtype.convert_arguments(decl, args)
        module_static = decl.module.static if decl.module is not None else ctx.static
        body_ctx = ctx.function_scope(module_static, bindings)
        result = self.eval(decl.body, body_ctx)
        if decl.updating:
            return result
        return seqtype.convert_result(decl, result)

    # ------------------------------------------------------------------
    # XRPC

    def _eval_execute_at(self, expr: A.ExecuteAt, ctx: DynamicContext) -> Sequence:
        if ctx.dispatch is None:
            raise DynamicError(
                "XRPC0001",
                "execute at: no XRPC dispatch installed in this context")
        destination_values = atomize(self.eval(expr.destination, ctx))
        if len(destination_values) != 1:
            raise TypeError_(
                "XPTY0004", "execute at: destination must be a single string")
        destination = destination_values[0].string_value()

        uri, local = ctx.static.resolve_function_name(expr.call.name)
        arity = len(expr.call.args)
        decl = ctx.static.lookup_function(uri, local, arity)
        updating = bool(decl is not None and getattr(decl, "updating", False))
        location = ctx.static.module_locations.get(uri)
        args = [self.eval(arg, ctx) for arg in expr.call.args]
        [result] = ctx.dispatch(destination, uri, location, local, arity,
                                Arguments.of([args]), updating)
        return result

    # ------------------------------------------------------------------
    # Constructors

    # Each constructor evaluates its operands here and hands them, already
    # evaluated, to the module-level builder the loop-lifted plan calls
    # with its per-iteration operands (repro.pathfinder.compiler).

    def _eval_direct_element(self, expr: A.DirectElement,
                             ctx: DynamicContext) -> Sequence:
        factory = NodeFactory()
        declarations, in_scope = direct_namespaces(
            expr, ctx.constructor_namespaces)
        content_ctx = ctx.child()
        content_ctx.constructor_namespaces = in_scope
        attribute_values = [
            [part if isinstance(part, str) else self.eval(part, content_ctx)
             for part in parts]
            for _, parts in expr.attributes]
        content = [
            part if isinstance(part, str) else self.eval(part, content_ctx)
            for part in expr.content]
        return [build_direct_element(expr, declarations, in_scope, ctx.static,
                                     attribute_values, content, factory)]

    def _eval_computed_element(self, expr: A.ComputedElement,
                               ctx: DynamicContext) -> Sequence:
        name = self._constructor_name(expr.name, ctx)
        factory = NodeFactory()
        items = self.eval(expr.content, ctx) if expr.content is not None else []
        return [build_computed_element(name, ctx.constructor_namespaces,
                                       ctx.static, items, factory)]

    def _eval_computed_attribute(self, expr: A.ComputedAttribute,
                                 ctx: DynamicContext) -> Sequence:
        name = self._constructor_name(expr.name, ctx)
        items = self.eval(expr.content, ctx) if expr.content else []
        return [build_computed_attribute(name, items)]

    def _eval_computed_text(self, expr: A.ComputedText,
                            ctx: DynamicContext) -> Sequence:
        items = self.eval(expr.content, ctx) if expr.content else None
        return build_computed_text(items)

    def _eval_computed_comment(self, expr: A.ComputedComment,
                               ctx: DynamicContext) -> Sequence:
        values = atomize(self.eval(expr.content, ctx)) if expr.content else []
        return [NodeFactory().comment(" ".join(v.string_value() for v in values))]

    def _eval_computed_pi(self, expr: A.ComputedPI,
                          ctx: DynamicContext) -> Sequence:
        target = self._constructor_name(expr.target, ctx)
        values = atomize(self.eval(expr.content, ctx)) if expr.content else []
        return [NodeFactory().processing_instruction(
            target, " ".join(v.string_value() for v in values))]

    def _eval_computed_document(self, expr: A.ComputedDocument,
                                ctx: DynamicContext) -> Sequence:
        factory = NodeFactory()
        document = factory.document()
        items = self.eval(expr.content, ctx) if expr.content is not None else []
        for item in items:
            if isinstance(item, Node):
                document.append(copy_into(item, factory))
            else:
                document.append(factory.text(item.string_value()))
        return [document]

    def _constructor_name(self, name, ctx: DynamicContext) -> str:
        if isinstance(name, str):
            return name
        return constructor_name(self.eval(name, ctx))

    # ------------------------------------------------------------------
    # Type operators

    def _eval_cast(self, expr: A.CastExpr, ctx: DynamicContext) -> Sequence:
        values = atomize(self.eval(expr.operand, ctx))
        if not values:
            if expr.allow_empty:
                return []
            raise TypeError_("XPTY0004", "cast of empty sequence")
        if len(values) > 1:
            raise TypeError_("XPTY0004", "cast of multi-item sequence")
        return [cast_by_name(values[0], expr.type_name)]

    def _eval_castable(self, expr: A.CastableExpr, ctx: DynamicContext) -> Sequence:
        values = atomize(self.eval(expr.operand, ctx))
        if not values:
            return [boolean(expr.allow_empty)]
        if len(values) > 1:
            return [boolean(False)]
        try:
            cast_by_name(values[0], expr.type_name)
            return [boolean(True)]
        except Exception:
            return [boolean(False)]

    def _eval_instance_of(self, expr: A.InstanceOf, ctx: DynamicContext) -> Sequence:
        value = self.eval(expr.operand, ctx)
        return [boolean(seqtype.sequence_matches(value, expr.seq_type))]

    def _eval_treat_as(self, expr: A.TreatAs, ctx: DynamicContext) -> Sequence:
        value = self.eval(expr.operand, ctx)
        if not seqtype.sequence_matches(value, expr.seq_type):
            raise DynamicError(
                "XPDY0050",
                f"treat as {seqtype.describe(expr.seq_type)} failed")
        return value

    def _eval_typeswitch(self, expr: A.TypeSwitch, ctx: DynamicContext) -> Sequence:
        value = self.eval(expr.operand, ctx)
        for case in expr.cases:
            assert case.seq_type is not None
            if seqtype.sequence_matches(value, case.seq_type):
                return self._eval_case(case, value, ctx)
        return self._eval_case(expr.default, value, ctx)

    def _eval_case(self, case: A.TypeSwitchCase, value: Sequence,
                   ctx: DynamicContext) -> Sequence:
        scope = ctx.child()
        if case.var:
            scope.variables[case.var] = value
        return self.eval(case.body, scope)

    # ------------------------------------------------------------------
    # Set operations

    def _eval_set_op(self, expr: A.SetOp, ctx: DynamicContext) -> Sequence:
        left = self._node_sequence(self.eval(expr.left, ctx), expr.op)
        right = self._node_sequence(self.eval(expr.right, ctx), expr.op)
        right_ids = {id(node) for node in right}
        left_ids = {id(node) for node in left}
        if expr.op == "union":
            return document_order_sort(left + right)
        if expr.op == "intersect":
            return document_order_sort(
                [node for node in left if id(node) in right_ids])
        return document_order_sort(
            [node for node in left if id(node) not in right_ids])

    def _node_sequence(self, sequence: Sequence, who: str) -> list[Node]:
        for item in sequence:
            if not isinstance(item, Node):
                raise TypeError_("XPTY0004", f"{who} operand contains atomics")
        return sequence

    # ------------------------------------------------------------------
    # XQUF updating expressions

    def _pul(self, ctx: DynamicContext) -> PendingUpdateList:
        if ctx.pul is None:
            ctx.pul = PendingUpdateList()
        return ctx.pul

    def _eval_insert(self, expr: A.InsertExpr, ctx: DynamicContext) -> Sequence:
        source = self.eval(expr.source, ctx)
        content: list[Node] = []
        factory = NodeFactory()
        for item in source:
            if isinstance(item, Node):
                content.append(copy_into(item, factory))
            else:
                content.append(factory.text(item.string_value()))
        target = self._single_target(expr.target, ctx, "insert")
        primitive_cls = {
            "into": InsertInto,
            "first": InsertFirst,
            "last": InsertLast,
            "before": InsertBefore,
            "after": InsertAfter,
        }[expr.position]
        self._pul(ctx).add(primitive_cls(target, content))
        return []

    def _eval_delete(self, expr: A.DeleteExpr, ctx: DynamicContext) -> Sequence:
        targets = self.eval(expr.target, ctx)
        pul = self._pul(ctx)
        for target in targets:
            if not isinstance(target, Node):
                raise UpdateError("XUTY0007", "delete target must be nodes")
            pul.add(DeleteNode(target))
        return []

    def _eval_replace(self, expr: A.ReplaceExpr, ctx: DynamicContext) -> Sequence:
        target = self._single_target(expr.target, ctx, "replace")
        if expr.value_of:
            values = atomize(self.eval(expr.replacement, ctx))
            text = " ".join(v.string_value() for v in values)
            self._pul(ctx).add(ReplaceValue(target, text))
            return []
        replacement_items = self.eval(expr.replacement, ctx)
        factory = NodeFactory()
        replacement: list[Node] = []
        for item in replacement_items:
            if isinstance(item, Node):
                replacement.append(copy_into(item, factory))
            else:
                replacement.append(factory.text(item.string_value()))
        self._pul(ctx).add(ReplaceNode(target, replacement))
        return []

    def _eval_rename(self, expr: A.RenameExpr, ctx: DynamicContext) -> Sequence:
        target = self._single_target(expr.target, ctx, "rename")
        values = atomize(self.eval(expr.new_name, ctx))
        if len(values) != 1:
            raise UpdateError("XUTY0012", "rename name must be a single value")
        self._pul(ctx).add(RenameNode(target, values[0].string_value()))
        return []

    def _single_target(self, expr: A.Expr, ctx: DynamicContext,
                       who: str) -> Node:
        targets = self.eval(expr, ctx)
        if len(targets) != 1 or not isinstance(targets[0], Node):
            raise UpdateError(
                "XUTY0008", f"{who} target must be exactly one node")
        return targets[0]


# ---------------------------------------------------------------------------
# Arithmetic helper


_GENERAL_OPS = {"=": "eq", "!=": "ne", "<": "lt",
                "<=": "le", ">": "gt", ">=": "ge"}


def general_comparison(op: str, left: Sequence, right: Sequence) -> bool:
    """``left op right`` for a general comparison operator: true when
    some pair of atomized items compares true (pairs in order, the
    first true one ends the search)."""
    op = _GENERAL_OPS[op]
    right_values = atomize(right)
    return any(general_compare_pair(lv, op, rv)
               for lv in atomize(left) for rv in right_values)


def node_comparison(op: str, left: Sequence, right: Sequence) -> Sequence:
    """``is`` / ``<<`` / ``>>`` over evaluated operands: ``()`` when
    either is empty, else each must be one node."""
    if not left or not right:
        return []
    if len(left) > 1 or len(right) > 1 or \
            not isinstance(left[0], Node) or not isinstance(right[0], Node):
        raise TypeError_("XPTY0004", "node comparison requires single nodes")
    ln, rn = left[0], right[0]
    if op == "is":
        return [boolean(ln is rn)]
    if op == "<<":
        return [boolean(ln.order_key < rn.order_key)]
    return [boolean(ln.order_key > rn.order_key)]


def _arith(op: str, left: AtomicValue, right: AtomicValue) -> AtomicValue:
    lv, rv = left.value, right.value
    use_double = left.type in (xs.double, xs.float) or \
        right.type in (xs.double, xs.float)
    if use_double:
        lf, rf = float(lv), float(rv)
        try:
            if op == "+":
                return AtomicValue(lf + rf, xs.double)
            if op == "-":
                return AtomicValue(lf - rf, xs.double)
            if op == "*":
                return AtomicValue(lf * rf, xs.double)
            if op == "div":
                if rf == 0:
                    inf = math.inf if lf > 0 else (-math.inf if lf < 0 else math.nan)
                    return AtomicValue(inf, xs.double)
                return AtomicValue(lf / rf, xs.double)
            if op == "idiv":
                if rf == 0:
                    raise DynamicError("FOAR0001", "integer division by zero")
                return AtomicValue(int(lf / rf), xs.integer)
            if op == "mod":
                if rf == 0:
                    return AtomicValue(math.nan, xs.double)
                return AtomicValue(math.fmod(lf, rf), xs.double)
        except OverflowError as exc:
            raise DynamicError("FOAR0002", "numeric overflow") from exc

    both_integer = left.type.derives_from(xs.integer) and \
        right.type.derives_from(xs.integer)
    ld = Decimal(str(lv)) if not isinstance(lv, Decimal) else lv
    rd = Decimal(str(rv)) if not isinstance(rv, Decimal) else rv
    if op == "+":
        result = ld + rd
    elif op == "-":
        result = ld - rd
    elif op == "*":
        result = ld * rd
    elif op == "div":
        if rd == 0:
            raise DynamicError("FOAR0001", "division by zero")
        result = ld / rd
        return AtomicValue(result, xs.decimal)
    elif op == "idiv":
        if rd == 0:
            raise DynamicError("FOAR0001", "integer division by zero")
        return AtomicValue(int(ld / rd), xs.integer)
    elif op == "mod":
        if rd == 0:
            raise DynamicError("FOAR0001", "modulus by zero")
        quotient = int(ld / rd)
        return AtomicValue(
            ld - rd * quotient,
            xs.integer if both_integer else xs.decimal)
    else:  # pragma: no cover - parser restricts ops
        raise DynamicError("XPST0003", f"unknown operator {op}")
    if both_integer:
        return AtomicValue(int(result), xs.integer)
    return AtomicValue(result, xs.decimal)


# ---------------------------------------------------------------------------
# What an expression reads: its variables, and the focus


def _free_variables(expr: A.Expr) -> set[str]:
    """Names of variables referenced anywhere inside *expr*."""
    names: set[str] = set()

    def walk(node) -> None:
        if isinstance(node, A.VarRef):
            names.add(node.name)
            return
        if isinstance(node, (list, tuple)):
            for entry in node:
                walk(entry)
            return
        if not isinstance(node, (A.Expr, A.AxisStep, A.TypeSwitchCase,
                                 A.ForClause, A.LetClause, A.WhereClause,
                                 A.OrderByClause, A.OrderSpec)):
            return
        for value in vars(node).values():
            if isinstance(value, (A.Expr, A.AxisStep, list, tuple,
                                  A.TypeSwitchCase)):
                walk(value)
    walk(expr)
    return names


def focus_free(expr: A.Expr) -> bool:
    """Does evaluating *expr* never read the focus (context item,
    position, size)?  Then it has one value per evaluation of the step
    whose predicate it sits in, whatever the candidate — the condition
    under which the interpreter's indexed step and the lifted equality
    probe evaluate a predicate's right-hand side once, not per
    candidate.

    The focus readers: ``.``, a path without a start (relative or
    absolute), and the zero-argument builtins that read the context
    (``position()``, ``last()``, ``string()`` …).  A path's steps and
    a filter's predicates bind a focus of their own, so only its start
    or base is looked into."""
    if isinstance(expr, A.ContextItem):
        return False
    if isinstance(expr, A.PathExpr):
        return expr.absolute == "none" and expr.start is not None \
            and focus_free(expr.start)
    if isinstance(expr, A.FilterExpr):
        return focus_free(expr.base)
    if isinstance(expr, A.FunctionCall) and not expr.args \
            and builtin_reads_context(FN_NS, expr.name.split(":")[-1], 0):
        return False
    stack: list = [value for value in vars(expr).values()]
    while stack:
        value = stack.pop()
        if isinstance(value, A.Expr):
            if not focus_free(value):
                return False
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
        elif isinstance(value, (A.ForClause, A.LetClause, A.WhereClause,
                                A.OrderByClause, A.OrderSpec,
                                A.TypeSwitchCase)):
            stack.extend(vars(value).values())
    return True


# ---------------------------------------------------------------------------
# Path optimization helpers


def node_test_matches(node: Node, test: A.NodeTest, axis: str,
                      static: StaticContext,
                      constructor_namespaces: Optional[dict] = None) -> bool:
    """Does *node* satisfy a step's node test on the given axis?

    Standalone so both the interpreter and the loop-lifting compiler's
    algebra axis-step operator share one name/kind-test semantics
    (principal node kind, wildcards, namespace resolution).
    """
    if isinstance(test, A.KindTest):
        if test.kind == "node":
            return True
        kind_map = {
            "text": TextNode,
            "comment": CommentNode,
            "element": ElementNode,
            "attribute": AttributeNode,
            "document": DocumentNode,
            "processing-instruction": ProcessingInstructionNode,
        }
        cls = kind_map.get(test.kind)
        if cls is None or not isinstance(node, cls):
            return False
        if test.name:
            if isinstance(node, (ElementNode, AttributeNode)):
                return node.local_name == test.name.split(":")[-1]
            if isinstance(node, ProcessingInstructionNode):
                return node.target == test.name
        return True
    # NameTest: principal node kind depends on the axis.
    if axis == "attribute":
        if not isinstance(node, AttributeNode):
            return False
    else:
        if not isinstance(node, ElementNode):
            return False
    if test.local != "*" and node.local_name != test.local:
        return False
    if test.prefix == "*" or test.local == "*" and test.prefix is None:
        return True
    if test.prefix is None:
        if axis == "attribute":
            return node.ns_uri is None
        return node.ns_uri == static.default_element_namespace
    return node.ns_uri == resolved_name(test, axis, static,
                                        constructor_namespaces)[0]


def _fuse_descendant_steps(steps: list) -> list:
    """Fuse ``descendant-or-self::node()/child::T`` into ``descendant::T``.

    The classic `//name` peephole: avoids materialising every node of the
    tree as an intermediate result.
    """
    fused: list = []
    index = 0
    while index < len(steps):
        step = steps[index]
        next_step = steps[index + 1] if index + 1 < len(steps) else None
        if (isinstance(step, A.AxisStep)
                and step.axis == "descendant-or-self"
                and isinstance(step.node_test, A.KindTest)
                and step.node_test.kind == "node"
                and not step.predicates
                and isinstance(next_step, A.AxisStep)
                and next_step.axis == "child"
                and all(_statically_boolean(p) for p in next_step.predicates)):
            fused.append(A.AxisStep("descendant", next_step.node_test,
                                    next_step.predicates))
            index += 2
            continue
        fused.append(step)
        index += 1
    return fused


def _statically_boolean(predicate: A.Expr) -> bool:
    """True if a predicate can never yield a number (so it filters by EBV
    and cannot be positional). Required for the `//T[p]` fusion to be
    semantics-preserving: ``descendant::T[1]`` and
    ``descendant-or-self::node()/child::T[1]`` number differently.
    """
    if isinstance(predicate, (A.Comparison, A.Logical, A.Quantified)):
        return True
    if isinstance(predicate, A.PathExpr):
        return bool(predicate.steps) or predicate.absolute != "none"
    if isinstance(predicate, A.FunctionCall):
        return predicate.name.split(":")[-1] in (
            "not", "empty", "exists", "contains", "starts-with", "ends-with",
            "boolean", "true", "false", "matches", "deep-equal",
            "doc-available")
    return False


def _is_fn_call(expr: A.Expr, local: str) -> bool:
    """Zero-argument call of the built-in *local* (``fn:`` or bare) —
    not a user function of that local name (``local:last()``)."""
    return (isinstance(expr, A.FunctionCall) and not expr.args
            and expr.name in (local, "fn:" + local))


def _positional_operand(expr: A.Expr) -> Optional[tuple]:
    if isinstance(expr, A.Literal) and expr.value.is_numeric:
        return ("lit", float(expr.value.value))
    if _is_fn_call(expr, "last"):
        return ("last",)
    return None


_OP_NORMALIZE = {"=": "eq", "!=": "ne", "<": "lt", "<=": "le",
                 ">": "gt", ">=": "ge",
                 "eq": "eq", "ne": "ne", "lt": "lt", "le": "le",
                 "gt": "gt", "ge": "ge"}

#: position() on the *right* of the comparison mirrors the operator.
_OP_FLIP = {"eq": "eq", "ne": "ne", "lt": "gt", "le": "ge",
            "gt": "lt", "ge": "le"}


def positional_predicate_spec(predicate: A.Expr) -> Optional[tuple]:
    """Recognize the statically positional predicate shapes.

    Returns a spec tuple — ``("literal", n)`` for a numeric literal
    predicate, ``("last",)`` for bare ``last()``, or ``("pos-cmp", op,
    operand)`` for a ``position()`` comparison where *operand* is
    ``("lit", n)`` or ``("last",)`` and *op* is normalized to
    ``eq/ne/lt/le/gt/ge`` — or None when the predicate is not one of
    these shapes (it then filters by its runtime value as usual).
    Shared by the interpreter and the pathfinder compiler so both rank
    windows identically.
    """
    if isinstance(predicate, A.Literal) and predicate.value.is_numeric:
        return ("literal", float(predicate.value.value))
    if _is_fn_call(predicate, "last"):
        return ("last",)
    if isinstance(predicate, A.Comparison) \
            and predicate.kind in ("general", "value"):
        op = _OP_NORMALIZE.get(predicate.op)
        if op is None:
            return None
        if _is_fn_call(predicate.left, "position"):
            operand = _positional_operand(predicate.right)
            if operand is not None:
                return ("pos-cmp", op, operand)
        if _is_fn_call(predicate.right, "position"):
            operand = _positional_operand(predicate.left)
            if operand is not None:
                return ("pos-cmp", _OP_FLIP[op], operand)
    return None


def resolved_name(test: A.NameTest, axis: str, static: StaticContext,
                  constructor_namespaces: Optional[dict] = None) -> tuple:
    """``(namespace URI, local name)`` a name test other than ``*``
    asks for on *axis* — the rule :func:`node_test_matches` applies:
    URI ``None`` is no namespace,
    :data:`~repro.algebra.paths.ANY_NAMESPACE` any.  A prefix resolves
    in the enclosing constructors' namespaces first, then in the static
    context; an undeclared one raises ``XPST0081``."""
    if test.prefix == "*":
        return ANY_NAMESPACE, test.local
    if test.prefix is None:
        return (None if axis == "attribute"
                else static.default_element_namespace), test.local
    wanted = (constructor_namespaces or {}).get(test.prefix)
    if wanted is None:
        wanted = static.resolve_prefix(test.prefix)
    return wanted, test.local


def _indexable_predicate_key_path(predicate: A.Expr, static: StaticContext,
                                  constructor_namespaces: Optional[dict]
                                  = None) -> Optional[tuple]:
    """If *predicate* is ``relative-path = expr`` with the path made of
    plain child/attribute name steps, return the path as a hashable key.

    The returned tuple contains ``("child", URI, local)`` /
    ``("attribute", URI, local)`` entries, each name as
    :func:`resolved_name` resolves it; None means the predicate is not
    indexable.
    """
    if not isinstance(predicate, A.Comparison) or predicate.op != "=" \
            or predicate.kind != "general":
        return None
    path = predicate.left
    if not isinstance(path, A.PathExpr) or path.absolute != "none":
        return None
    if path.start is not None and not isinstance(path.start, A.ContextItem):
        return None  # './buyer/@person' is fine; '$x/y' is not
    key: list[tuple[str, str]] = []
    for step in path.steps:
        if not isinstance(step, A.AxisStep) or step.predicates:
            return None
        if step.axis == "self" and isinstance(step.node_test, A.KindTest):
            continue  # leading ./ is a no-op
        if step.axis not in ("child", "attribute"):
            return None
        if not isinstance(step.node_test, A.NameTest) or \
                step.node_test.local == "*":
            return None
        key.append((step.axis, *resolved_name(
            step.node_test, step.axis, static, constructor_namespaces)))
    if not key:
        return None
    return tuple(key)


def equality_probe_shape(step: A.AxisStep, static: StaticContext,
                         constructor_namespaces: Optional[dict] = None,
                         ) -> Optional[tuple]:
    """``(name, key path, value)`` when *step* is
    ``axis::name[path = value]`` as a value index serves it: a ``child``
    or ``descendant`` step with a non-wildcard name and one indexable
    equality predicate whose *value* reads no focus (one value per
    context, not a function of each candidate); ``None`` otherwise.
    Names come resolved (:func:`resolved_name`), so an index is shared
    by the queries that ask for the same namespaces, whatever their
    prefixes; a prefix the query never declared leaves the step to the
    scan, which raises where it applies the test."""
    if len(step.predicates) != 1 or step.axis not in ("child", "descendant") \
            or not isinstance(step.node_test, A.NameTest) \
            or step.node_test.local == "*":
        return None
    predicate = step.predicates[0]
    try:
        key_path = _indexable_predicate_key_path(
            predicate, static, constructor_namespaces)
        name = resolved_name(step.node_test, step.axis, static,
                             constructor_namespaces)
    except StaticError:
        return None
    if key_path is None or not focus_free(predicate.right):
        return None
    return name, key_path, predicate.right


class _TEXT_MARKER:
    """Wrapper distinguishing literal constructor text from atomics."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


# ---------------------------------------------------------------------------
# Node constructors over evaluated operands
#
# One builder per constructor kind, shared by the interpreter and the
# loop-lifted plan: each pipeline evaluates the operands its own way and
# hands them over; a content or attribute-value part is a literal string
# or an evaluated sequence.

_XMLNS_NS = "http://www.w3.org/2000/xmlns/"


def _is_xmlns(name: str) -> bool:
    return name == "xmlns" or name.startswith("xmlns:")


def direct_namespaces(expr: A.DirectElement, in_scope: dict[str, str],
                      ) -> tuple[dict[str, str], dict[str, str]]:
    """The element's own ``xmlns`` declarations, and the namespaces in
    scope for its name, attributes and content (*in_scope* — those of
    the enclosing constructors — overridden by its own)."""
    declarations: dict[str, str] = {}
    for attr_name, parts in expr.attributes:
        if _is_xmlns(attr_name):
            prefix = "" if attr_name == "xmlns" else attr_name.split(":", 1)[1]
            declarations[prefix] = "".join(
                p for p in parts if isinstance(p, str))
    merged = dict(in_scope)
    merged.update(declarations)
    return declarations, merged


def _constructor_ns(lexical: str, in_scope: dict[str, str],
                    static: StaticContext,
                    use_default: bool) -> Optional[str]:
    if ":" in lexical:
        prefix = lexical.split(":", 1)[0]
        if prefix in in_scope:
            return in_scope[prefix] or None
        return static.resolve_prefix(prefix)
    if use_default:
        if "" in in_scope:
            return in_scope[""] or None
        return static.default_element_namespace
    return None


def _joined_values(items: Sequence) -> str:
    return " ".join(v.string_value() for v in atomize(items))


def build_direct_element(expr: A.DirectElement, declarations: dict[str, str],
                         in_scope: dict[str, str], static: StaticContext,
                         attribute_values: list[list], content: list,
                         factory: NodeFactory) -> ElementNode:
    """``<name attr="…">…</name>`` over evaluated parts: one list of
    parts per attribute of *expr* (its value template) and the content
    parts; *declarations* / *in_scope* are :func:`direct_namespaces`'."""
    element = factory.element(
        expr.name, _constructor_ns(expr.name, in_scope, static, True))
    element.namespace_declarations = declarations
    for (attr_name, _), parts in zip(expr.attributes, attribute_values):
        value = "".join(part if isinstance(part, str) else _joined_values(part)
                        for part in parts)
        attr_ns = _XMLNS_NS if _is_xmlns(attr_name) else \
            _constructor_ns(attr_name, in_scope, static, False)
        element.set_attribute(factory.attribute(attr_name, value, attr_ns))
    items: Sequence = []
    for part in content:
        if isinstance(part, str):
            items.append(_TEXT_MARKER(part))
        else:
            items.extend(part)
    _attach_content(element, items, factory)
    return element


def build_computed_element(name: str, in_scope: dict[str, str],
                           static: StaticContext, items: Sequence,
                           factory: NodeFactory) -> ElementNode:
    """``element name { items }``."""
    element = factory.element(
        name, _constructor_ns(name, in_scope, static, True))
    _attach_content(element, items, factory)
    return element


def build_computed_attribute(name: str, items: Sequence) -> AttributeNode:
    """``attribute name { items }``."""
    return NodeFactory().attribute(name, _joined_values(items))


def build_computed_text(items: Optional[Sequence]) -> Sequence:
    """``text { items }`` — no node for empty content; ``None`` is the
    constructor without a content expression."""
    if items is None:
        return [NodeFactory().text("")]
    values = atomize(items)
    if not values:
        return []
    return [NodeFactory().text(" ".join(v.string_value() for v in values))]


def constructor_name(items: Sequence) -> str:
    """A computed constructor's name: exactly one atomic value."""
    values = atomize(items)
    if len(values) != 1:
        raise TypeError_("XPTY0004", "computed constructor name not a singleton")
    return values[0].string_value()


def _attach_content(element: ElementNode, items: Sequence,
                    factory: NodeFactory) -> None:
    """Assemble constructor content: space-join adjacent atomics,
    copy nodes, splice documents, lift attribute nodes."""
    buffer: list[str] = []
    last_was_atomic = False
    seen_content = False

    def flush() -> None:
        nonlocal last_was_atomic
        if buffer:
            element.append(factory.text("".join(buffer)))
            buffer.clear()
        last_was_atomic = False

    for item in items:
        if isinstance(item, _TEXT_MARKER):
            buffer.append(item.text)
            last_was_atomic = False
            seen_content = True
        elif isinstance(item, AtomicValue):
            if last_was_atomic:
                buffer.append(" ")
            buffer.append(item.string_value())
            last_was_atomic = True
            seen_content = True
        elif isinstance(item, AttributeNode):
            if seen_content:
                raise TypeError_(
                    "XQTY0024",
                    "attribute node follows non-attribute content")
            element.set_attribute(
                factory.attribute(item.name, item.value, item.ns_uri))
        elif isinstance(item, DocumentNode):
            flush()
            seen_content = True
            for child in item.children:
                element.append(copy_into(child, factory))
        elif isinstance(item, Node):
            flush()
            seen_content = True
            element.append(copy_into(item, factory))
        else:  # pragma: no cover - defensive
            raise TypeError_("XPTY0004", "unexpected constructor content")
    flush()


# ---------------------------------------------------------------------------
# Compiled queries / convenience entry points


class CompiledQuery:
    """A parsed main module bound to its imports — ready to execute.

    This is the unit the MonetDB-style *function cache* stores: compiling
    (parsing + binding) happens once, execution many times.
    """

    #: The interpreter :meth:`run` instantiates (a subclass of this
    #: class may name its own :class:`Evaluator` subclass).
    evaluator_class = Evaluator

    def __init__(self, source: str,
                 registry: Optional[ModuleRegistry] = None) -> None:
        self.source = source
        self.ast = parse_main_module(source)
        self.registry = registry or ModuleRegistry()
        self.static = StaticContext()
        for decl in self.ast.namespaces:
            self.static.declare_namespace(decl.prefix, decl.uri)
        for imp in self.ast.imports:
            module = self.registry.load(imp.uri, imp.locations)
            self.static.declare_namespace(imp.prefix, imp.uri)
            if imp.locations:
                self.static.module_locations[imp.uri] = imp.locations[0]
            self.static.functions.update(module.exported_functions())
        for option in self.ast.options:
            self.static.options[option.name] = option.value
        # Main-module local function declarations.
        self._local_functions: list[A.FunctionDecl] = []
        for decl in self.ast.functions:
            uri, local = self.static.resolve_function_name(decl.name)
            decl.namespace_uri = uri
            decl.local_name = local
            self.static.register_function(uri, local, len(decl.params), decl)
            self._local_functions.append(decl)

    @property
    def options(self) -> dict[str, str]:
        return self.static.options

    def run(self, context: Optional[ExecutionContext] = None,
            ) -> tuple[Sequence, PendingUpdateList]:
        """Run the query body; returns (result sequence, pending updates).

        *context* carries every execution option (see
        :class:`~repro.xquery.context.ExecutionContext`).  Updates are
        *not* applied — the caller decides when to invoke
        ``applyUpdates`` (immediately, or at 2PC commit), mirroring the
        paper's isolation rules.
        """
        options = context or ExecutionContext()
        if self.ast.body is None:
            raise DynamicError("XPDY0002", "library module has no query body")
        ctx = DynamicContext(self.static, options.variables,
                             options.doc_resolver, options.dispatch)
        ctx.pul = PendingUpdateList()
        ctx.put_store = options.put_store
        if options.context_item is not None:
            ctx.focus_item = options.context_item
            ctx.focus_position = 1
            ctx.focus_size = 1
        evaluator = self.evaluator_class()
        for var_decl in self.ast.variables:
            if var_decl.value is not None:
                value = evaluator.eval(var_decl.value, ctx)
                ctx.variables[var_decl.name] = seqtype.convert_value(
                    value, var_decl.seq_type, f"${var_decl.name}")
            elif var_decl.name not in ctx.variables:
                raise DynamicError(
                    "XPDY0002", f"external variable ${var_decl.name} not bound")
        result = evaluator.eval(self.ast.body, ctx)
        return result, ctx.pul


def evaluate_query(
    source: str,
    registry: Optional[ModuleRegistry] = None,
    doc_resolver=None,
    variables: Optional[dict[str, Sequence]] = None,
    dispatch=None,
    context_item=None,
    put_store=None,
) -> Sequence:
    """One-shot convenience: compile, execute, apply the updates."""
    from repro.xquf.pul import apply_updates

    compiled = CompiledQuery(source, registry)
    result, pul = compiled.run(ExecutionContext(
        doc_resolver=doc_resolver,
        variables=variables,
        dispatch=dispatch,
        context_item=context_item,
        put_store=put_store,
    ))
    if pul:
        apply_updates(pul)
    return result
