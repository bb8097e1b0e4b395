"""Builtin function library (fn:*, xs:* constructors, xrpc:* helpers).

Builtins are Python callables with signature ``(args, ctx) -> sequence``
where ``args`` is a list of already-evaluated XDM sequences.  They are
resolved by ``(namespace, local-name, arity)``; a few (``fn:concat``)
are variadic.

The ``xrpc:host`` / ``xrpc:path`` helpers from section 5 of the paper
are included: they split ``xrpc://host[:port]/path`` URIs for the
advanced-pushdown rewrite, defaulting to ``localhost`` / the unchanged
argument for non-xrpc URIs.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from typing import Callable, Optional

from repro.errors import DynamicError, TypeError_, XQueryError
from repro.xdm.atomic import (
    AtomicValue,
    boolean,
    cast,
    double,
    integer,
    string,
    untyped,
    value_compare,
)
from repro.xdm.nodes import (
    AttributeNode,
    DocumentNode,
    ElementNode,
    Node,
    ProcessingInstructionNode,
)
from repro.xdm.sequence import (
    atomize,
    deep_equal,
    effective_boolean_value,
    is_node,
)
from repro.xdm.types import xs
from repro.xquery.context import DynamicContext, FN_NS, XRPC_NS, XS_NS

Sequence = list
Builtin = Callable[..., Sequence]

_REGISTRY: dict[tuple[str, int], Builtin] = {}
_VARIADIC: dict[str, Builtin] = {}
#: ``(name, arity)`` of the ``fn:`` builtins that read the dynamic
#: context — the focus, the document resolver or the pending update
#: list — and not only their arguments.
_CONTEXT_READERS: set[tuple[str, int]] = set()


def _register(name: str, arities: tuple[int, ...],
              reads_context: tuple[int, ...] = (),
              ) -> Callable[[Builtin], Builtin]:
    def wrap(func: Builtin) -> Builtin:
        for arity in arities:
            _REGISTRY[(name, arity)] = func
        _CONTEXT_READERS.update((name, arity) for arity in reads_context)
        return func
    return wrap


def _register_variadic(name: str) -> Callable[[Builtin], Builtin]:
    def wrap(func: Builtin) -> Builtin:
        _VARIADIC[name] = func
        return func
    return wrap


def get_builtin(uri: str, local: str, arity: int) -> Optional[Builtin]:
    """Resolve a builtin implementation, or None."""
    if uri == FN_NS:
        direct = _REGISTRY.get((local, arity))
        if direct is not None:
            return direct
        return _VARIADIC.get(local)
    if uri == XS_NS:
        return _constructor_function(local) if arity == 1 else None
    if uri == XRPC_NS:
        return _REGISTRY.get((f"xrpc:{local}", arity))
    return None


def builtin_exists(uri: str, local: str, arity: int) -> bool:
    """Would :func:`get_builtin` resolve this (uri, local, arity)?

    The static analyzer's view of the builtin library — deliberately a
    wrapper over the same lookup the evaluator performs, so the linter
    can never disagree with the runtime about which builtins exist.
    """
    return get_builtin(uri, local, arity) is not None


def builtin_known_name(uri: str, local: str) -> bool:
    """Is *local* a builtin name in *uri* at ANY arity?

    Distinguishes "unknown function" from "known function called with
    the wrong number of arguments" in the analyzer's diagnostics.
    """
    if uri == FN_NS:
        return local in _VARIADIC \
            or any(name == local for name, _ in _REGISTRY)
    if uri == XS_NS:
        return _constructor_function(local) is not None
    if uri == XRPC_NS:
        return any(name == f"xrpc:{local}" for name, _ in _REGISTRY)
    return False


def builtin_reads_context(uri: str, local: str, arity: int) -> bool:
    """Does the builtin read the dynamic context beyond its arguments?

    ``False`` means its result is a function of the argument sequences
    alone, so the loop-lifted plan may call it once per iteration with
    no context at all.  ``True`` for the zero-argument focus builtins
    (``position()``, ``string()`` …), ``fn:doc``, ``fn:doc-available``
    and the updating ``fn:put``.
    """
    return uri == FN_NS and (local, arity) in _CONTEXT_READERS


# ---------------------------------------------------------------------------
# Helpers


def _single_string(sequence: Sequence, who: str) -> str:
    values = atomize(sequence)
    if not values:
        return ""
    if len(values) > 1:
        raise TypeError_("XPTY0004", f"{who} expects a single value")
    return values[0].string_value()


def _optional_atomic(sequence: Sequence, who: str) -> Optional[AtomicValue]:
    values = atomize(sequence)
    if not values:
        return None
    if len(values) > 1:
        raise TypeError_("XPTY0004", f"{who} expects at most one value")
    return values[0]


def _numeric(value: AtomicValue) -> AtomicValue:
    if value.type is xs.untypedAtomic:
        return cast(value, xs.double)
    if not value.is_numeric:
        raise TypeError_("XPTY0004", f"expected numeric, got {value.type.name}")
    return value


def _context_node(ctx: DynamicContext, who: str) -> Node:
    item = ctx.focus_item
    if item is None:
        raise DynamicError("XPDY0002", f"{who}: no context item")
    if not isinstance(item, Node):
        raise TypeError_("XPTY0004", f"{who}: context item is not a node")
    return item


# ---------------------------------------------------------------------------
# Documents


@_register("doc", (1,), reads_context=(1,))
def fn_doc(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    uri = _single_string(args[0], "fn:doc")
    if not uri:
        return []
    return [ctx.resolve_doc(uri)]


@_register("doc-available", (1,), reads_context=(1,))
def fn_doc_available(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    uri = _single_string(args[0], "fn:doc-available")
    try:
        ctx.resolve_doc(uri)
        return [boolean(True)]
    except XQueryError:
        return [boolean(False)]


@_register("put", (2,), reads_context=(2,))
def fn_put(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    """fn:put — XQUF updating builtin: stores a document at a URI."""
    from repro.xquf.pul import PendingUpdateList, PutDocument
    if len(args[0]) != 1 or not is_node(args[0][0]):
        raise TypeError_("XPTY0004", "fn:put expects a single node")
    uri = _single_string(args[1], "fn:put")
    if ctx.pul is None:
        ctx.pul = PendingUpdateList()
    store = getattr(ctx, "put_store", None)
    ctx.pul.add(PutDocument(args[0][0], uri, store))
    return []


@_register("document-uri", (1,))
def fn_document_uri(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    if not args[0]:
        return []
    node = args[0][0]
    if isinstance(node, DocumentNode) and node.uri:
        return [AtomicValue(node.uri, xs.anyURI)]
    return []


@_register("root", (0, 1), reads_context=(0,))
def fn_root(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    if args:
        if not args[0]:
            return []
        node = args[0][0]
        if not isinstance(node, Node):
            raise TypeError_("XPTY0004", "fn:root expects a node")
    else:
        node = _context_node(ctx, "fn:root")
    return [node.root()]


# ---------------------------------------------------------------------------
# Sequences


@_register("count", (1,))
def fn_count(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    return [integer(len(args[0]))]


@_register("empty", (1,))
def fn_empty(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    return [boolean(not args[0])]


@_register("exists", (1,))
def fn_exists(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    return [boolean(bool(args[0]))]


@_register("not", (1,))
def fn_not(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    return [boolean(not effective_boolean_value(args[0]))]


@_register("boolean", (1,))
def fn_boolean(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    return [boolean(effective_boolean_value(args[0]))]


@_register("true", (0,))
def fn_true(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    return [boolean(True)]


@_register("false", (0,))
def fn_false(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    return [boolean(False)]


@_register("data", (1,))
def fn_data(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    return list(atomize(args[0]))


@_register("distinct-values", (1,))
def fn_distinct_values(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    seen: list[AtomicValue] = []
    for value in atomize(args[0]):
        if value.type is xs.untypedAtomic:
            value = cast(value, xs.string)
        duplicate = False
        for existing in seen:
            try:
                if value_compare(existing, "eq", value):
                    duplicate = True
                    break
            except XQueryError:
                continue
        if not duplicate:
            seen.append(value)
    return seen


@_register("reverse", (1,))
def fn_reverse(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    return list(reversed(args[0]))


@_register("subsequence", (2, 3))
def fn_subsequence(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    source = args[0]
    start = round(float(_numeric(_optional_atomic(args[1], "fn:subsequence")).value))
    if len(args) == 3:
        length = round(float(_numeric(
            _optional_atomic(args[2], "fn:subsequence")).value))
        end = start + length
    else:
        end = len(source) + 1
    return [item for position, item in enumerate(source, start=1)
            if start <= position < end]


@_register("insert-before", (3,))
def fn_insert_before(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    source, position_seq, inserts = args
    position = int(_numeric(_optional_atomic(position_seq, "fn:insert-before")).value)
    position = max(1, min(position, len(source) + 1))
    return source[:position - 1] + inserts + source[position - 1:]


@_register("remove", (2,))
def fn_remove(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    position = int(_numeric(_optional_atomic(args[1], "fn:remove")).value)
    return [item for index, item in enumerate(args[0], start=1)
            if index != position]


@_register("index-of", (2,))
def fn_index_of(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    target = _optional_atomic(args[1], "fn:index-of")
    if target is None:
        return []
    result = []
    for index, value in enumerate(atomize(args[0]), start=1):
        try:
            if value.type is xs.untypedAtomic:
                value = cast(value, xs.string)
            if value_compare(value, "eq", target):
                result.append(integer(index))
        except XQueryError:
            continue
    return result


@_register("exactly-one", (1,))
def fn_exactly_one(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    if len(args[0]) != 1:
        raise DynamicError("FORG0005", "fn:exactly-one: sequence length != 1")
    return args[0]


@_register("zero-or-one", (1,))
def fn_zero_or_one(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    if len(args[0]) > 1:
        raise DynamicError("FORG0003", "fn:zero-or-one: more than one item")
    return args[0]


@_register("one-or-more", (1,))
def fn_one_or_more(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    if not args[0]:
        raise DynamicError("FORG0004", "fn:one-or-more: empty sequence")
    return args[0]


@_register("deep-equal", (2,))
def fn_deep_equal(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    return [boolean(deep_equal(args[0], args[1]))]


@_register("unordered", (1,))
def fn_unordered(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    return args[0]


# ---------------------------------------------------------------------------
# Numerics


@_register("number", (0, 1), reads_context=(0,))
def fn_number(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    if args:
        value = _optional_atomic(args[0], "fn:number")
    else:
        item = ctx.focus_item
        value = atomize([item])[0] if item is not None else None
    if value is None:
        return [double(math.nan)]
    try:
        return [cast(value, xs.double)]
    except XQueryError:
        return [double(math.nan)]


def _aggregate(values: list[AtomicValue], who: str) -> list[AtomicValue]:
    return [_numeric(v) for v in values]


@_register("sum", (1, 2))
def fn_sum(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    values = _aggregate(atomize(args[0]), "fn:sum")
    if not values:
        return args[1] if len(args) == 2 else [integer(0)]
    if any(v.type is xs.double or v.type is xs.float for v in values):
        return [double(sum(float(v.value) for v in values))]
    if any(v.type.derives_from(xs.decimal) and not v.type.derives_from(xs.integer)
           for v in values):
        return [AtomicValue(sum(Decimal(str(v.value)) for v in values), xs.decimal)]
    return [integer(sum(int(v.value) for v in values))]


@_register("avg", (1,))
def fn_avg(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    values = _aggregate(atomize(args[0]), "fn:avg")
    if not values:
        return []
    return [double(sum(float(v.value) for v in values) / len(values))]


@_register("max", (1,))
def fn_max(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    values = atomize(args[0])
    if not values:
        return []
    best = values[0]
    if best.type is xs.untypedAtomic:
        best = cast(best, xs.double)
    for value in values[1:]:
        if value.type is xs.untypedAtomic:
            value = cast(value, xs.double)
        if value_compare(value, "gt", best):
            best = value
    return [best]


@_register("min", (1,))
def fn_min(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    values = atomize(args[0])
    if not values:
        return []
    best = values[0]
    if best.type is xs.untypedAtomic:
        best = cast(best, xs.double)
    for value in values[1:]:
        if value.type is xs.untypedAtomic:
            value = cast(value, xs.double)
        if value_compare(value, "lt", best):
            best = value
    return [best]


@_register("abs", (1,))
def fn_abs(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    value = _optional_atomic(args[0], "fn:abs")
    if value is None:
        return []
    value = _numeric(value)
    return [AtomicValue(abs(value.value), value.type)]


@_register("floor", (1,))
def fn_floor(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    value = _optional_atomic(args[0], "fn:floor")
    if value is None:
        return []
    value = _numeric(value)
    return [AtomicValue(type(value.value)(math.floor(float(value.value))), value.type)]


@_register("ceiling", (1,))
def fn_ceiling(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    value = _optional_atomic(args[0], "fn:ceiling")
    if value is None:
        return []
    value = _numeric(value)
    return [AtomicValue(type(value.value)(math.ceil(float(value.value))), value.type)]


@_register("round", (1,))
def fn_round(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    value = _optional_atomic(args[0], "fn:round")
    if value is None:
        return []
    value = _numeric(value)
    return [AtomicValue(
        type(value.value)(math.floor(float(value.value) + 0.5)), value.type)]


# ---------------------------------------------------------------------------
# Strings


@_register("string", (0, 1), reads_context=(0,))
def fn_string(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    if args:
        sequence = args[0]
    else:
        if ctx.focus_item is None:
            raise DynamicError("XPDY0002", "fn:string: no context item")
        sequence = [ctx.focus_item]
    if not sequence:
        return [string("")]
    if len(sequence) > 1:
        raise TypeError_("XPTY0004", "fn:string expects at most one item")
    item = sequence[0]
    text = item.string_value() if isinstance(item, (Node, AtomicValue)) else str(item)
    return [string(text)]


@_register_variadic("concat")
def fn_concat(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    if len(args) < 2:
        raise TypeError_("XPST0017", "fn:concat requires at least two arguments")
    return [string("".join(_single_string(arg, "fn:concat") for arg in args))]


@_register("string-join", (2,))
def fn_string_join(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    separator = _single_string(args[1], "fn:string-join")
    return [string(separator.join(
        v.string_value() for v in atomize(args[0])))]


@_register("substring", (2, 3))
def fn_substring(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    text = _single_string(args[0], "fn:substring")
    start = round(float(_numeric(_optional_atomic(args[1], "fn:substring")).value))
    if len(args) == 3:
        length = round(float(_numeric(
            _optional_atomic(args[2], "fn:substring")).value))
        end = start + length
    else:
        end = len(text) + 1
    chars = [ch for position, ch in enumerate(text, start=1)
             if start <= position < end]
    return [string("".join(chars))]


@_register("string-length", (0, 1), reads_context=(0,))
def fn_string_length(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    if args:
        text = _single_string(args[0], "fn:string-length")
    else:
        text = _context_node(ctx, "fn:string-length").string_value()
    return [integer(len(text))]


@_register("normalize-space", (0, 1), reads_context=(0,))
def fn_normalize_space(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    if args:
        text = _single_string(args[0], "fn:normalize-space")
    else:
        text = _context_node(ctx, "fn:normalize-space").string_value()
    return [string(" ".join(text.split()))]


@_register("contains", (2,))
def fn_contains(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    return [boolean(_single_string(args[1], "fn:contains")
                    in _single_string(args[0], "fn:contains"))]


@_register("starts-with", (2,))
def fn_starts_with(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    return [boolean(_single_string(args[0], "fn:starts-with")
                    .startswith(_single_string(args[1], "fn:starts-with")))]


@_register("ends-with", (2,))
def fn_ends_with(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    return [boolean(_single_string(args[0], "fn:ends-with")
                    .endswith(_single_string(args[1], "fn:ends-with")))]


@_register("substring-before", (2,))
def fn_substring_before(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    haystack = _single_string(args[0], "fn:substring-before")
    needle = _single_string(args[1], "fn:substring-before")
    index = haystack.find(needle)
    return [string(haystack[:index] if index >= 0 else "")]


@_register("substring-after", (2,))
def fn_substring_after(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    haystack = _single_string(args[0], "fn:substring-after")
    needle = _single_string(args[1], "fn:substring-after")
    index = haystack.find(needle)
    return [string(haystack[index + len(needle):] if index >= 0 else "")]


@_register("upper-case", (1,))
def fn_upper_case(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    return [string(_single_string(args[0], "fn:upper-case").upper())]


@_register("lower-case", (1,))
def fn_lower_case(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    return [string(_single_string(args[0], "fn:lower-case").lower())]


@_register("translate", (3,))
def fn_translate(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    text = _single_string(args[0], "fn:translate")
    source_map = _single_string(args[1], "fn:translate")
    target_map = _single_string(args[2], "fn:translate")
    table = {}
    for index, ch in enumerate(source_map):
        table[ch] = target_map[index] if index < len(target_map) else None
    return [string("".join(
        table.get(ch, ch) for ch in text if table.get(ch, ch) is not None))]


@_register("matches", (2,))
def fn_matches(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    text = _single_string(args[0], "fn:matches")
    pattern = _single_string(args[1], "fn:matches")
    try:
        return [boolean(re.search(pattern, text) is not None)]
    except re.error as exc:
        raise DynamicError("FORX0002", f"invalid regex {pattern!r}") from exc


@_register("replace", (3,))
def fn_replace(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    text = _single_string(args[0], "fn:replace")
    pattern = _single_string(args[1], "fn:replace")
    replacement = _single_string(args[2], "fn:replace")
    try:
        return [string(re.sub(pattern, replacement, text))]
    except re.error as exc:
        raise DynamicError("FORX0002", f"invalid regex {pattern!r}") from exc


@_register("tokenize", (2,))
def fn_tokenize(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    text = _single_string(args[0], "fn:tokenize")
    pattern = _single_string(args[1], "fn:tokenize")
    if not text:
        return []
    try:
        return [string(token) for token in re.split(pattern, text)]
    except re.error as exc:
        raise DynamicError("FORX0002", f"invalid regex {pattern!r}") from exc


# ---------------------------------------------------------------------------
# Context / names


@_register("position", (0,), reads_context=(0,))
def fn_position(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    if ctx.focus_item is None:
        raise DynamicError("XPDY0002", "fn:position: no context item")
    return [integer(ctx.focus_position)]


@_register("last", (0,), reads_context=(0,))
def fn_last(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    if ctx.focus_item is None:
        raise DynamicError("XPDY0002", "fn:last: no context item")
    return [integer(ctx.focus_size)]


@_register("name", (0, 1), reads_context=(0,))
def fn_name(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    node = _name_arg(args, ctx, "fn:name")
    if node is None:
        return [string("")]
    return [string(node.node_name or "")]


@_register("local-name", (0, 1), reads_context=(0,))
def fn_local_name(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    node = _name_arg(args, ctx, "fn:local-name")
    if node is None:
        return [string("")]
    if isinstance(node, (ElementNode, AttributeNode)):
        return [string(node.local_name)]
    if isinstance(node, ProcessingInstructionNode):
        return [string(node.target)]
    return [string("")]


@_register("namespace-uri", (0, 1), reads_context=(0,))
def fn_namespace_uri(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    node = _name_arg(args, ctx, "fn:namespace-uri")
    if isinstance(node, (ElementNode, AttributeNode)) and node.ns_uri:
        return [AtomicValue(node.ns_uri, xs.anyURI)]
    return [AtomicValue("", xs.anyURI)]


@_register("node-name", (1,))
def fn_node_name(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    if not args[0]:
        return []
    node = args[0][0]
    if isinstance(node, Node) and node.node_name:
        return [AtomicValue(node.node_name, xs.QName)]
    return []


def _name_arg(args: list[Sequence], ctx: DynamicContext, who: str) -> Optional[Node]:
    if args:
        if not args[0]:
            return None
        node = args[0][0]
        if not isinstance(node, Node):
            raise TypeError_("XPTY0004", f"{who} expects a node")
        return node
    return _context_node(ctx, who)


# ---------------------------------------------------------------------------
# Errors / diagnostics


@_register("error", (0, 1, 2))
def fn_error(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    code = "FOER0000"
    message = "fn:error called"
    if len(args) >= 1 and args[0]:
        code = _single_string(args[0], "fn:error")
    if len(args) >= 2:
        message = _single_string(args[1], "fn:error")
    raise DynamicError(code, message)


@_register("trace", (2,))
def fn_trace(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    return args[0]


# ---------------------------------------------------------------------------
# xs:* constructor functions


def _constructor_function(local: str) -> Optional[Builtin]:
    from repro.xdm.types import is_known_type, type_by_name
    if not is_known_type(local):
        return None
    target = type_by_name(local)

    def construct(args: list[Sequence], ctx: DynamicContext) -> Sequence:
        value = _optional_atomic(args[0], f"xs:{local}")
        if value is None:
            return []
        return [cast(value, target)]

    return construct


# ---------------------------------------------------------------------------
# xrpc:* helpers (paper section 5, "Advanced Pushdown")


_XRPC_URI = re.compile(r"^xrpc://([^/]+)(/.*)?$")


@_register("xrpc:host", (1,))
def xrpc_host(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    url = _single_string(args[0], "xrpc:host")
    match = _XRPC_URI.match(url)
    if match is None:
        return [string("localhost")]
    return [string(match.group(1))]


@_register("xrpc:path", (1,))
def xrpc_path(args: list[Sequence], ctx: DynamicContext) -> Sequence:
    url = _single_string(args[0], "xrpc:path")
    match = _XRPC_URI.match(url)
    if match is None:
        return [string(url)]
    path = match.group(2) or "/"
    return [string(path.lstrip("/"))]
