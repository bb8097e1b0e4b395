"""Tree-walking evaluator for the XQuery subset (+ XQUF + XRPC).

This is the "Saxon-style" execution engine of the reproduction: a direct
interpreter over the AST.  The loop-lifted relational backend
(:mod:`repro.pathfinder`) compiles a subset of the same AST to algebra
plans; both produce identical XDM results.

``execute at`` is evaluated through ``ctx.xrpc_handler`` — the paper's
"stub code" boundary: the evaluator builds a
:class:`~repro.xquery.context.RemoteCall` and the RPC layer does SOAP
marshaling, networking and unmarshaling.
"""

from __future__ import annotations

import math
from decimal import Decimal
from typing import Callable, Optional

from repro.errors import DynamicError, StaticError, TypeError_, UpdateError
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
from repro.xdm.structural import (
    ValueIndex,
    _preceding_ranges,
    axis_window_scan,
    split_context,
    structural_index,
    tree_groups,
)
from repro.xdm.types import xs
from repro.xquery import xast as A
from repro.xquery import seqtype
from repro.xquery.context import (
    DynamicContext,
    ExecutionContext,
    RemoteCall,
    StaticContext,
    XS_NS,
)
from repro.xquery.functions import get_builtin
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
            left = atomize(self.eval(expr.left, ctx))
            right = atomize(self.eval(expr.right, ctx))
            op = {"=": "eq", "!=": "ne", "<": "lt",
                  "<=": "le", ">": "gt", ">=": "ge"}[expr.op]
            for lv in left:
                for rv in right:
                    if general_compare_pair(lv, op, rv):
                        return [boolean(True)]
            return [boolean(False)]
        if expr.kind == "value":
            left = atomize(self.eval(expr.left, ctx))
            right = atomize(self.eval(expr.right, ctx))
            if not left or not right:
                return []
            if len(left) > 1 or len(right) > 1:
                raise TypeError_(
                    "XPTY0004", "value comparison operand is not a singleton")
            return [boolean(value_compare(left[0], expr.op, right[0]))]
        # node comparison
        left_nodes = self.eval(expr.left, ctx)
        right_nodes = self.eval(expr.right, ctx)
        if not left_nodes or not right_nodes:
            return []
        if len(left_nodes) > 1 or len(right_nodes) > 1 or \
                not isinstance(left_nodes[0], Node) or \
                not isinstance(right_nodes[0], Node):
            raise TypeError_("XPTY0004", "node comparison requires single nodes")
        ln, rn = left_nodes[0], right_nodes[0]
        if expr.op == "is":
            return [boolean(ln is rn)]
        if expr.op == "<<":
            return [boolean(ln.order_key < rn.order_key)]
        return [boolean(ln.order_key > rn.order_key)]

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
        clauses = expr.clauses
        bound_vars: set[str] = set()
        index = 0
        while index < len(clauses):
            clause = clauses[index]
            if isinstance(clause, A.ForClause):
                following = clauses[index + 1] if index + 1 < len(clauses) else None
                join = None
                if ctx.optimize_joins:
                    join = _match_hash_join(clause, following, bound_vars)
                if join is not None:
                    joined = self._hash_join_expand(clause, join, tuples, ctx)
                    if joined is not None:
                        tuples = joined
                        bound_vars.add(clause.var)
                        if clause.position_var:
                            bound_vars.add(clause.position_var)
                        index += 2  # consumed the where clause too
                        continue
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
                bound_vars.add(clause.var)
                if clause.position_var:
                    bound_vars.add(clause.position_var)
            elif isinstance(clause, A.LetClause):
                rebound: list[DynamicContext] = []
                for tup in tuples:
                    bound = tup.child()
                    bound.variables[clause.var] = self.eval(clause.value, bound)
                    rebound.append(bound)
                tuples = rebound
                bound_vars.add(clause.var)
            elif isinstance(clause, A.WhereClause):
                tuples = [
                    tup for tup in tuples
                    if effective_boolean_value(self.eval(clause.condition, tup))
                ]
            elif isinstance(clause, A.OrderByClause):
                tuples = self._order_tuples(clause, tuples)
            index += 1
        result: Sequence = []
        for tup in tuples:
            result.extend(self.eval(expr.return_expr, tup))
        return result

    def _hash_join_expand(self, clause: A.ForClause, join: "_JoinSpec",
                          tuples: list[DynamicContext],
                          ctx: DynamicContext) -> Optional[list[DynamicContext]]:
        """Hash-join expansion of ``for $v in S where key($v) = probe``.

        Evaluates the loop-invariant source once, builds a hash table on
        the $v-side key, and probes it per upstream tuple — the join
        strategy MonetDB's relational backend uses for this plan shape.
        Returns None (caller falls back to nested-loop semantics) when
        key typing makes a string hash unsound.
        """
        if not tuples:
            return []
        base = tuples[0]
        source = self.eval(clause.source, base)
        table: dict[str, list[tuple[int, object]]] = {}
        for position, item in enumerate(source, start=1):
            scope = base.child()
            scope.variables[clause.var] = [item]
            keys = atomize(self.eval(join.build_expr, scope))
            for key in keys:
                if key.type not in (xs.string, xs.untypedAtomic):
                    return None
                table.setdefault(key.string_value(), []).append(
                    (position, item))
        expanded: list[DynamicContext] = []
        for tup in tuples:
            probes = atomize(self.eval(join.probe_expr, tup))
            if any(p.type not in (xs.string, xs.untypedAtomic)
                   for p in probes):
                return None
            matched: dict[int, object] = {}
            for probe in probes:
                for position, item in table.get(probe.string_value(), ()):
                    matched[position] = item
            for position in sorted(matched):
                bound = tup.child()
                bound.variables[clause.var] = [matched[position]]
                if clause.position_var:
                    bound.variables[clause.position_var] = [integer(position)]
                expanded.append(bound)
        return expanded

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

    # -- set-at-a-time axis evaluation (XPath accelerator) -----------------
    #
    # The whole context sequence is mapped through an axis as window scans
    # over the per-tree pre array: ``descendant`` is ``pre in (pre,
    # pre+size]``, ``following`` is ``pre > pre+size``, ``ancestor`` walks
    # parent chains with staircase-style early exit.  Covered context
    # nodes are pruned before scanning, so the window results are
    # duplicate-free and document-ordered *by construction* — no per-step
    # document_order_sort.  Name tests pick the tag-partitioned pre array
    # instead of testing every node.

    def _eval_axis_step(self, step: A.AxisStep, input_sequence: Sequence,
                        ctx: DynamicContext) -> Sequence:
        indexed = self._try_indexed_step(step, input_sequence, ctx)
        if indexed is not None:
            return indexed
        for item in input_sequence:
            if not isinstance(item, Node):
                raise TypeError_(
                    "XPTY0019", "path step applied to a non-node item")
        results: list[Node] = []
        for root, members in tree_groups(input_sequence):
            results.extend(self._axis_over_tree(step, root, members, ctx))
        return results

    def _axis_over_tree(self, step: A.AxisStep, root: Node,
                        members: list, ctx: DynamicContext) -> list:
        index = structural_index(root)
        axis = step.axis
        ctx_pres, attr_members = split_context(index, members)

        if step.predicates:
            # Predicates are per-context (position()/last() count within
            # one context node's candidates): evaluate each context over
            # indexed candidate windows, then merge.
            results: list[Node] = []
            ordered_members = [index.nodes[p] for p in ctx_pres] + attr_members
            for node in ordered_members:
                candidates = [
                    n for n in self._axis_candidates(node, axis, index)
                    if self._node_test_matches(n, step.node_test, axis, ctx)
                ]
                results.extend(
                    self._apply_predicates(candidates, step.predicates, ctx))
            return document_order_sort(results)

        return self._axis_windows(step, index, ctx_pres, attr_members, ctx)

    def _axis_windows(self, step: A.AxisStep, index,
                      ctx_pres: list, attr_members: list,
                      ctx: DynamicContext) -> list:
        """Whole-context window scans; results doc-ordered by construction.

        Delegates to the shared staircase core in
        :func:`repro.xdm.structural.axis_window_scan`, with the node test
        bound to this context's namespace environment.
        """
        axis = step.axis
        test = step.node_test
        local = None
        if isinstance(test, A.NameTest) and test.local != "*":
            local = test.local
        match_all = isinstance(test, A.KindTest) and test.kind == "node"
        return axis_window_scan(
            index, axis, ctx_pres, attr_members,
            matches=lambda node: self._node_test_matches(node, test, axis, ctx),
            local_name=local, match_all=match_all)

    def _axis_candidates(self, node: Node, axis: str, index) -> list:
        """Per-context candidates in axis order: read off the node's
        own links for the local axes, off the structural index where a
        window scan wins."""
        if axis == "child":
            return list(node.children)
        if axis == "attribute":
            return list(node.attributes)
        if axis == "self":
            return [node]
        if axis == "parent":
            return [node.parent] if node.parent is not None else []
        if axis == "following-sibling":
            return list(node.following_siblings())
        if axis == "preceding-sibling":
            return list(node.preceding_siblings())
        if isinstance(node, AttributeNode):
            owner = node.parent
            if axis in ("ancestor", "ancestor-or-self"):
                chain = [] if owner is None else [owner] + list(owner.ancestors())
                return [node] + chain if axis == "ancestor-or-self" else chain
            if axis == "descendant":
                return []
            if axis == "descendant-or-self":
                return [node]
            if owner is None:
                return []
            node = owner  # following/preceding go through the owner
        nodes = index.nodes
        sizes = index.sizes
        p = index.rank_of(node)
        if axis == "descendant":
            return nodes[p + 1:p + sizes[p] + 1]
        if axis == "descendant-or-self":
            return nodes[p:p + sizes[p] + 1]
        if axis in ("ancestor", "ancestor-or-self"):
            chain = list(node.ancestors())
            return [node] + chain if axis == "ancestor-or-self" else chain
        if axis == "following":
            return nodes[p + sizes[p] + 1:]
        if axis == "preceding":
            # Shrunk windows: the ranges between consecutive ancestor
            # ranks, reversed into the axis's nearest-first order.
            return [nodes[q]
                    for q in reversed(_preceding_ranges(index, p, None))]
        raise DynamicError("XPST0003", f"unknown axis {axis}")

    # -- equality-predicate index ------------------------------------------
    #
    # Reproduces the join detection the paper observes in Saxon (section 4,
    # Table 3): a step like ``descendant::person[@id = $pid]`` evaluated
    # repeatedly against the same tree builds a hash index once, turning a
    # per-call selection into a hash-join probe.

    def _try_indexed_step(self, step: A.AxisStep, input_sequence: Sequence,
                          ctx: DynamicContext) -> Optional[Sequence]:
        if len(input_sequence) != 1 or not isinstance(input_sequence[0], Node):
            return None
        if step.axis not in ("child", "descendant") or len(step.predicates) != 1:
            return None
        if not isinstance(step.node_test, A.NameTest) or step.node_test.local == "*":
            return None
        key_path = _indexable_predicate_key_path(step.predicates[0])
        if key_path is None:
            return None
        predicate = step.predicates[0]
        assert isinstance(predicate, A.Comparison)
        probe_values = atomize(self.eval(predicate.right, ctx))
        if not all(v.type in (xs.string, xs.untypedAtomic)
                   for v in probe_values):
            return None
        anchor = input_sequence[0]
        index = self._axis_value_index(anchor, step, key_path, ctx)
        matches: list[Node] = []
        for value in probe_values:
            matches.extend(index.get(value.string_value(), ()))
        return document_order_sort(matches)

    def _axis_value_index(self, anchor: Node, step: A.AxisStep,
                          key_path: tuple, ctx: DynamicContext) -> ValueIndex:
        assert isinstance(step.node_test, A.NameTest)
        return axis_value_index(anchor, step.axis, step.node_test, key_path,
                                ctx.static, ctx.constructor_namespaces)

    def _apply_predicates(self, items: Sequence, predicates: list[A.Expr],
                          ctx: DynamicContext) -> Sequence:
        for predicate in predicates:
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
            items = kept
        return items

    def _node_test_matches(self, node: Node, test: A.NodeTest, axis: str,
                           ctx: DynamicContext) -> bool:
        return node_test_matches(node, test, axis, ctx.static,
                                 ctx.constructor_namespaces)

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
        if ctx.xrpc_handler is None:
            raise DynamicError(
                "XRPC0001",
                "execute at: no XRPC handler installed in this context")
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
        call = RemoteCall(
            destination=destination,
            module_uri=uri,
            location=location,
            function=local,
            arity=arity,
            args=args,
            updating=updating,
        )
        return ctx.xrpc_handler(call)

    # ------------------------------------------------------------------
    # Constructors

    def _eval_direct_element(self, expr: A.DirectElement,
                             ctx: DynamicContext) -> Sequence:
        factory = NodeFactory()
        return [self._build_direct_element(expr, ctx, factory)]

    def _build_direct_element(self, expr: A.DirectElement, ctx: DynamicContext,
                              factory: NodeFactory) -> ElementNode:
        # Constructor-scope namespace declarations (xmlns attributes).
        declarations: dict[str, str] = {}
        for attr_name, parts in expr.attributes:
            if attr_name == "xmlns" or attr_name.startswith("xmlns:"):
                value = "".join(p for p in parts if isinstance(p, str))
                prefix = "" if attr_name == "xmlns" else attr_name.split(":", 1)[1]
                declarations[prefix] = value
        merged = dict(ctx.constructor_namespaces)
        merged.update(declarations)

        content_ctx = ctx.child()
        content_ctx.constructor_namespaces = merged

        ns_uri = self._resolve_constructor_name(expr.name, merged, ctx,
                                                use_default=True)
        element = factory.element(expr.name, ns_uri)
        element.namespace_declarations = declarations

        for attr_name, parts in expr.attributes:
            value = self._attr_value_string(parts, content_ctx)
            if attr_name == "xmlns" or attr_name.startswith("xmlns:"):
                attr_ns: Optional[str] = "http://www.w3.org/2000/xmlns/"
            else:
                attr_ns = self._resolve_constructor_name(
                    attr_name, merged, ctx, use_default=False)
            element.set_attribute(factory.attribute(attr_name, value, attr_ns))

        content_items: Sequence = []
        for part in expr.content:
            if isinstance(part, str):
                content_items.append(_TEXT_MARKER(part))
            else:
                content_items.extend(self.eval(part, content_ctx))
        self._attach_content(element, content_items, factory)
        return element

    def _resolve_constructor_name(self, lexical: str, merged: dict[str, str],
                                  ctx: DynamicContext,
                                  use_default: bool) -> Optional[str]:
        if ":" in lexical:
            prefix = lexical.split(":", 1)[0]
            if prefix in merged:
                return merged[prefix] or None
            return ctx.static.resolve_prefix(prefix)
        if use_default:
            if "" in merged:
                return merged[""] or None
            return ctx.static.default_element_namespace
        return None

    def _attr_value_string(self, parts: list[A.ContentPart],
                           ctx: DynamicContext) -> str:
        pieces: list[str] = []
        for part in parts:
            if isinstance(part, str):
                pieces.append(part)
            else:
                values = atomize(self.eval(part, ctx))
                pieces.append(" ".join(v.string_value() for v in values))
        return "".join(pieces)

    def _attach_content(self, element: ElementNode, items: Sequence,
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

    def _eval_computed_element(self, expr: A.ComputedElement,
                               ctx: DynamicContext) -> Sequence:
        name = self._constructor_name(expr.name, ctx)
        factory = NodeFactory()
        ns_uri = self._resolve_constructor_name(
            name, ctx.constructor_namespaces, ctx, use_default=True)
        element = factory.element(name, ns_uri)
        items = self.eval(expr.content, ctx) if expr.content is not None else []
        self._attach_content(element, items, factory)
        return [element]

    def _eval_computed_attribute(self, expr: A.ComputedAttribute,
                                 ctx: DynamicContext) -> Sequence:
        name = self._constructor_name(expr.name, ctx)
        values = atomize(self.eval(expr.content, ctx)) if expr.content else []
        value = " ".join(v.string_value() for v in values)
        return [NodeFactory().attribute(name, value)]

    def _eval_computed_text(self, expr: A.ComputedText,
                            ctx: DynamicContext) -> Sequence:
        values = atomize(self.eval(expr.content, ctx)) if expr.content else []
        if not values and expr.content is not None:
            return []
        return [NodeFactory().text(" ".join(v.string_value() for v in values))]

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
        values = atomize(self.eval(name, ctx))
        if len(values) != 1:
            raise TypeError_("XPTY0004", "computed constructor name not a singleton")
        return values[0].string_value()

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
# FLWOR equi-join rewriting
#
# ``for $p in ..., $ca in <path> where $p/k1 = $ca/k2 return ...`` expands a
# cartesian product before filtering — O(|p|·|ca|).  MonetDB executes this
# relationally as a join; we rewrite the where-condition into a predicate on
# the second for's source path, where the equality-predicate index turns it
# into a hash-join probe per tuple.  The rewrite preserves semantics exactly
# (the same general comparison is evaluated for the same pairs).


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


class _JoinSpec:
    """Matched hash-join: key expression on the for-var + probe side."""

    __slots__ = ("build_expr", "probe_expr")

    def __init__(self, build_expr: A.Expr, probe_expr: A.Expr) -> None:
        self.build_expr = build_expr
        self.probe_expr = probe_expr


def _match_hash_join(clause: A.ForClause, following,
                     bound_vars: set[str]) -> Optional[_JoinSpec]:
    """Detect ``for $v in S where f($v) = g(earlier-vars)``.

    Conditions for soundness:
    * the where clause immediately follows the for clause;
    * the condition is a general ``=`` comparison with one side
      referencing only ``$v`` and the other side not referencing ``$v``;
    * the for's source does not depend on variables bound earlier in the
      same FLWOR (so it can be evaluated once).
    """
    if not isinstance(following, A.WhereClause):
        return None
    condition = following.condition
    if not isinstance(condition, A.Comparison) or condition.op != "=" \
            or condition.kind != "general":
        return None
    if _free_variables(clause.source) & bound_vars:
        return None
    left_vars = _free_variables(condition.left)
    right_vars = _free_variables(condition.right)
    var = clause.var
    if var in left_vars and var not in right_vars \
            and left_vars == {var}:
        return _JoinSpec(build_expr=condition.left,
                         probe_expr=condition.right)
    if var in right_vars and var not in left_vars \
            and right_vars == {var}:
        return _JoinSpec(build_expr=condition.right,
                         probe_expr=condition.left)
    return None


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
    wanted = (constructor_namespaces or {}).get(test.prefix)
    if wanted is None:
        wanted = static.resolve_prefix(test.prefix)
    return node.ns_uri == wanted


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
    """Zero-argument call of the built-in *local* (``fn:`` or bare)."""
    return (isinstance(expr, A.FunctionCall) and not expr.args
            and expr.name.split(":")[-1] == local)


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


def positional_spec_keep(spec: tuple, position: int, count: int) -> bool:
    """Does the item at 1-based *position* in a *count*-item window
    survive *spec*?  Float comparisons mirror XPath numeric predicate
    semantics (``[1.5]`` keeps nothing)."""
    kind = spec[0]
    if kind == "literal":
        return position == spec[1]
    if kind == "last":
        return position == count
    op = spec[1]
    target = float(count) if spec[2] == ("last",) else spec[2][1]
    if op == "eq":
        return position == target
    if op == "ne":
        return position != target
    if op == "lt":
        return position < target
    if op == "le":
        return position <= target
    if op == "gt":
        return position > target
    return position >= target


def _indexable_predicate_key_path(predicate: A.Expr) -> Optional[tuple]:
    """If *predicate* is ``relative-path = expr`` with the path made of
    plain child/attribute name steps, return the path as a hashable key.

    The returned tuple contains ``("child", local)`` / ``("attribute",
    local)`` entries; None means the predicate is not indexable.
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
        key.append((step.axis, step.node_test.local))
    if not key:
        return None
    return tuple(key)


def axis_value_index(anchor: Node, axis: str, node_test: "A.NameTest",
                     key_path: tuple, static: StaticContext,
                     constructor_namespaces: Optional[dict] = None,
                     ) -> ValueIndex:
    """Equality-predicate value index for one (anchor, axis, test, key path).

    Maps each key-path string value to the matching axis nodes — the
    hash-join probe side of ``step[path = value]`` for a ``child`` or
    ``descendant`` step with a non-wildcard name.  Cached on the tree's
    :class:`~repro.xdm.structural.StructuralIndex` under the anchor's
    *pre rank* (the index pins the tree's nodes, so no ``id()`` reuse)
    and from then on *maintained* by the index's patch hooks: an XQUF
    update re-keys the members it touches instead of dropping the
    index, and only a full rebuild of the structural index (or the
    deletion of the anchor) discards it.  Shared by the interpreter's
    indexed step and the algebra layer's lifted predicate path.
    """
    structure = structural_index(anchor.root())
    anchor_pre = structure.rank_of_opt(anchor)
    cache_key = (anchor_pre, axis, node_test.prefix, node_test.local, key_path)
    if anchor_pre is None:
        # Unranked anchor (an attribute): nothing below it, not cached.
        candidates: list[Node] = []
    else:
        cached = structure.value_indexes.get(cache_key)
        if cached is not None:
            return cached
        # Candidates straight off the tag partition: the anchor's window
        # holds far more rows than carry the step's name.
        nodes = structure.nodes
        pres = structure.window(
            anchor_pre, anchor_pre + structure.sizes[anchor_pre],
            node_test.local)
        if axis == "child":
            levels = structure.levels
            child_level = levels[anchor_pre] + 1
            pres = [pre for pre in pres if levels[pre] == child_level]
        candidates = [nodes[pre] for pre in pres]

    def matches(node: Node) -> bool:
        return node_test_matches(node, node_test, axis, static,
                                 constructor_namespaces)

    def keys(node: Node) -> tuple:
        return _walk_key_path(node, key_path)

    by_value: dict = {}
    keys_of: dict = {}
    for node in candidates:
        if not node_test_matches(node, node_test, axis, static,
                                 constructor_namespaces):
            continue
        values = _walk_key_path(node, key_path)
        if not values:
            continue
        keys_of[node] = values
        for value in values:
            bucket = by_value.get(value)
            if bucket is None:
                by_value[value] = {node: None}
            else:
                bucket[node] = None
    index = ValueIndex(anchor, axis == "child", matches, keys,
                       by_value, keys_of)
    if anchor_pre is not None:
        structure.value_indexes[cache_key] = index
    return index


def _walk_key_path(node: Node, key_path: tuple) -> tuple:
    """Evaluate an indexable key path, returning its string values."""
    current = [node]
    for axis, local in key_path:
        advanced: list[Node] = []
        for item in current:
            if axis == "child":
                advanced.extend(
                    child for child in item.children
                    if isinstance(child, ElementNode)
                    and child.local_name == local)
            else:
                advanced.extend(
                    attribute for attribute in item.attributes
                    if attribute.local_name == local)
        current = advanced
    return tuple(item.string_value() for item in current)


class _TEXT_MARKER:
    """Wrapper distinguishing literal constructor text from atomics."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


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
    #: FLWOR hash-join detection while interpreting — a property of the
    #: engine profile that compiled the query, which stamps it here.
    optimize_joins = True

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
                             options.doc_resolver, options.xrpc_handler)
        ctx.pul = PendingUpdateList()
        ctx.put_store = options.put_store
        ctx.optimize_joins = self.optimize_joins
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
    xrpc_handler=None,
    context_item=None,
    apply_pending_updates: bool = True,
    put_store=None,
) -> Sequence:
    """One-shot convenience: compile, execute, (optionally) apply updates."""
    from repro.xquf.pul import apply_updates

    compiled = CompiledQuery(source, registry)
    result, pul = compiled.run(ExecutionContext(
        doc_resolver=doc_resolver,
        variables=variables,
        xrpc_handler=xrpc_handler,
        context_item=context_item,
        put_store=put_store,
    ))
    if apply_pending_updates and pul:
        apply_updates(pul)
    return result
