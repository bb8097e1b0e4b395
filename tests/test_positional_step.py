"""The positional step: a step whose predicates are all statically
positional (``[n]``, ``[last()]``, ``position()`` comparisons) ranks each
context node's window in one pass instead of one iteration per context
node (``repro.algebra.paths.positional_step``).

Every query runs three ways — the lifted plan, the product interpreter
and the oracle (``tests/helpers.py::assert_same_outcome``) — and every
table the compiler returns keeps the ``(iter, pos)`` order invariant
(``order_checked`` from ``tests/test_lifted_core.py``).
"""

import pytest

from repro import reference
from repro.pathfinder import compiler as lifted_compiler
from repro.workloads.xmark import READ_SUITE, XMarkConfig
from repro.xdm.nodes import ElementNode
from repro.xdm.structural import axis_scan_batched, structural_index
from repro.xml import parse_document
from repro.xquery import evaluator
from tests.helpers import assert_same_outcome, execute, xmark_resolver
from tests.test_lifted_core import order_checked  # noqa: F401 (fixture)

TREE = parse_document(
    "<r><s n='1'><i>a</i><i>b</i><j/><i>c</i>t<!--x--></s>"
    "<s n='2'><i>d</i><s n='3'><i>e</i><j/><i>f</i></s><j/></s>"
    "<k a='1' b='2'/></r>", uri="t.xml")
OTHER = parse_document("<r><s n='4'><i>x</i><i>y</i></s></r>", uri="u.xml")
RESOLVE = {"t.xml": TREE, "u.xml": OTHER}.get

T = "doc('t.xml')"
CORPUS = {
    # -- [n], [last()], position() comparisons on the child axis ----------
    "name-n": f"{T}//s/i[2]",
    "star-n": f"{T}//s/*[3]",
    "node-n": f"{T}//s/node()[5]",
    "text-1": f"{T}//s/text()[1]",
    "name-last": f"{T}//s/i[last()]",
    "star-last": f"{T}//s/*[last()]",
    "node-last": f"{T}//s/node()[last()]",
    "pos-ge": f"{T}//s/i[position() >= 2]",
    "pos-lt-last": f"{T}//s/i[position() < last()]",
    "pos-eq-last": f"{T}//s/*[position() = last()]",
    "pos-flipped": f"{T}//s/i[2 = position()]",
    "pos-ne": f"{T}//s/*[position() != 1]",
    "pos-value-cmp": f"{T}//s/i[position() eq 1]",
    # -- stacked, fractional and zero positions ---------------------------
    "stacked-2-1": f"{T}//s/i[2][1]",
    "stacked-1-2": f"{T}//s/i[1][2]",
    "stacked-range-last": f"{T}//s/i[position() > 1][last()]",
    "stacked-last-1": f"{T}//s/*[last()][1]",
    "fraction": f"{T}//s/i[1.5]",
    "zero": f"{T}//s/i[0]",
    "fraction-star": f"{T}//s/*[2.5]",
    # -- nested contexts --------------------------------------------------
    "nested-star-1": f"{T}//*/*[1]",
    "nested-dos-last": f"{T}/descendant-or-self::node()/i[last()]",
    "nested-name-last": f"{T}//*/i[last()]",
    "nested-descendant-1": f"{T}//s/descendant::i[1]",
    "nested-dos-2": f"{T}//s/descendant-or-self::*[2]",
    "nested-descendant-last": f"{T}//s/descendant::node()[last()]",
    "nested-name-1": f"{T}//i[1]",
    # -- contexts in two documents and in constructed trees ---------------
    "two-documents": "(doc('t.xml'), doc('u.xml'))//s/i[last()]",
    "two-documents-reversed": "(doc('u.xml')//s, doc('t.xml')//s)/i[1]",
    "constructed": "for $x in (1, 2) return <w><v>{$x}</v><v/></w>/v[1]",
    "constructed-last": "(<w><v/><v n='1'/></w>)/*[last()]",
    "constructed-and-stored": f"(<w><i>z</i></w>, {T}//s)/i[last()]",
    # -- attribute contexts -----------------------------------------------
    "attribute-axis-n": f"{T}//k/@*[2]",
    "attribute-axis-last": f"{T}//k/@*[last()]",
    "attribute-parent": f"{T}//@a/parent::*[1]",
    "attribute-ancestor": f"{T}//@n/ancestor::*[1]",
    "attribute-ancestor-or-self": f"{T}//@n/ancestor-or-self::node()[1]",
    "attribute-self": f"{T}//@n/self::node()[last()]",
    "attribute-following": f"{T}//@*/following::i[1]",
    "attribute-preceding": f"{T}//@n/preceding::i[last()]",
    "attribute-child": f"{T}//@n/*[1]",
    "attribute-and-nodes": f"({T}//@n, {T}//i)/ancestor::s[1]",
    "attribute-one-per-iteration":
        f"for $a in {T}//@n return $a/ancestor::*[last()]",
    # -- one context per iteration ----------------------------------------
    "for-star-last": f"for $c in {T}//s return $c/*[last()]",
    "for-name-1": f"for $c in {T}//s return $c/i[1]",
    "for-two-documents":
        "for $c in (doc('t.xml')//s, doc('u.xml')//s) return $c/i[last()]",
    "for-duplicate-contexts": f"for $c in {T}//s return ($c, $c)/i[1]",
    "for-same-context": f"for $k in (1, 2) return {T}//s[@n = '1']/i[2]",
    "for-nested-step": f"for $c in {T}//s return $c//i[2]",
    # -- every axis: the reverse ones with [1] and [last()] ---------------
    "ancestor-1": f"{T}//i/ancestor::*[1]",
    "ancestor-last": f"{T}//i/ancestor::*[last()]",
    "ancestor-or-self-1": f"{T}//i/ancestor-or-self::*[1]",
    "ancestor-or-self-last": f"{T}//i/ancestor-or-self::*[last()]",
    "preceding-1": f"{T}//i/preceding::i[1]",
    "preceding-last": f"{T}//i/preceding::i[last()]",
    "preceding-sibling-1": f"{T}//i/preceding-sibling::*[1]",
    "preceding-sibling-last": f"{T}//i/preceding-sibling::node()[last()]",
    "preceding-sibling-2-1": f"{T}//i/preceding-sibling::i[2][1]",
    "following-1": f"{T}//i/following::i[1]",
    "following-last": f"{T}//i/following::*[last()]",
    "following-sibling-2": f"{T}//i/following-sibling::*[2]",
    "parent-1": f"{T}//i/parent::*[1]",
    "self-last": f"{T}//i/self::i[last()]",
    "descendant-2": f"{T}/r/descendant::i[2]",
    "for-ancestor-1": f"for $i in {T}//i return $i/ancestor::s[1]",
    "for-preceding-last": f"for $i in {T}//i return $i/preceding::i[last()]",
}

#: Non-node contexts: the positional step raises as the plain step does.
NON_NODE = {
    "atomics": "(1, 2)/a[1]",
    "mixed": f"({T}//s, 1)/i[1]",
    "per-iteration": "for $i in (1, 2) return $i/*[last()]",
    "reverse": "('a')/ancestor::*[1]",
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_lifted_plan_agrees_with_both_interpreters(name):
    assert_same_outcome(CORPUS[name], RESOLVE)


@pytest.mark.parametrize("name", sorted(NON_NODE))
def test_a_non_node_context_raises(name):
    assert assert_same_outcome(NON_NODE[name], RESOLVE) == "XPTY0019"


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_tables_keep_the_order_invariant(order_checked, name):  # noqa: F811
    assert_same_outcome(CORPUS[name], RESOLVE)
    assert order_checked


def test_the_corpus_is_not_vacuous():
    empty = [name for name, source in CORPUS.items()
             if not execute(source, RESOLVE)[0]]
    assert sorted(empty) == ["attribute-child", "fraction", "fraction-star",
                             "stacked-1-2", "zero"]


def test_a_user_function_named_last_is_not_a_rank():
    source = ("declare function local:last() { 1 }; "
              f"{T}//s/i[local:last()]")
    expected = [node.string_value()
                for node in reference.evaluate(source, doc_resolver=RESOLVE)]
    assert expected == ["a", "d", "e"]
    for try_lifted in (True, False):
        result, _ = execute(source, RESOLVE, try_lifted=try_lifted)
        assert [node.string_value() for node in result] == expected


# ---------------------------------------------------------------------------
# The READ_SUITE positional queries


POSITIONAL = sorted(name for name in READ_SUITE if "position" in name)


def _xmark(scale: int):
    """The XMark documents of ``benchmarks/e2e`` at *scale* (×1 = 244 KB)."""
    return xmark_resolver(XMarkConfig(persons=100 * scale,
                                      closed_auctions=600 * scale,
                                      open_auctions=60 * scale, seed=11))


@pytest.fixture(scope="module", params=(1, 5), ids=("x1", "x5"))
def xmark(request):
    return _xmark(request.param)


@pytest.mark.parametrize("name", POSITIONAL)
def test_read_suite_positional_queries(xmark, name):
    assert assert_same_outcome(READ_SUITE[name], xmark)


def test_a_static_positional_step_explodes_no_context(monkeypatch):
    """No context node becomes an iteration of its own: the for-clause
    map construction is built for no positional READ_SUITE query."""
    explode = lifted_compiler._explode
    exploded = []

    def counted(table, *args):
        exploded.append(len(table.rows))
        return explode(table, *args)
    monkeypatch.setattr(lifted_compiler, "_explode", counted)
    resolver = _xmark(1)
    for name in POSITIONAL:
        result, explain = execute(READ_SUITE[name], resolver)
        assert explain.plan == "lifted" and result, name
    assert not any(exploded)


# ---------------------------------------------------------------------------
# What the runtime regime lifts, the interpreter's rank, and the
# following axis over many contexts


def test_the_runtime_regime_lifts_only_what_its_predicates_read(monkeypatch):
    lifted = lifted_compiler._lifted
    rows = []

    def counted(table, outer):
        result = lifted(table, outer)
        rows.append(len(result.rows))
        return result
    monkeypatch.setattr(lifted_compiler, "_lifted", counted)
    source = ("let $n := 2 let $big := 1 to 10000 "
              "return doc('persons.xml')//person/*[$n]")
    resolver = _xmark(1)
    result, explain = execute(source, resolver)
    assert explain.plan == "lifted" and len(result) == 100
    # $n per context and per candidate, never $big: hundreds of rows,
    # not 10 000 per candidate.
    assert 0 < sum(rows) < 2_000
    monkeypatch.undo()
    assert_same_outcome(source, resolver)


def test_the_interpreter_ranks_static_specs(monkeypatch):
    """The interpreted step is the plan's positional step: one call,
    and no predicate evaluated per candidate."""
    step = evaluator.positional_step
    ranked = []

    def counted(table, axis, specs, *args, **kwargs):
        ranked.append(tuple(specs))
        return step(table, axis, specs, *args, **kwargs)
    monkeypatch.setattr(evaluator, "positional_step", counted)
    monkeypatch.setattr(evaluator.Evaluator, "_filter_by_value", None)
    result, explain = execute(f"{T}//s/i[last()]", RESOLVE, try_lifted=False)
    assert explain.plan == "interpreter"
    assert [node.string_value() for node in result] == ["c", "d", "f"]
    assert ranked == [(("last",),)]


@pytest.mark.parametrize("query", [
    "doc('persons.xml')//*/following::name[1]",
    "doc('persons.xml')//city/following::name[last()]",
    "for $n in doc('persons.xml')//name return $n/following::city[1]",
    "for $n in doc('persons.xml')//node() return $n/following::person[2]",
])
def test_following_with_a_name_test_over_many_contexts(query):
    assert_same_outcome(query, _xmark(1))


def test_batched_following_takes_the_first_named_match_of_each_context():
    index = structural_index(_xmark(1)("persons.xml"))
    nodes, sizes = index.nodes, index.sizes
    names = [q for q, node in enumerate(nodes)
             if isinstance(node, ElementNode) and node.local_name == "name"]
    expected = []
    for pre in range(len(nodes)):
        after = [q for q in names if q > pre + sizes[pre]]
        if after:
            expected.append((pre, nodes[after[0]]))
    scanned = axis_scan_batched(
        index, "following", [(pre, pre) for pre in range(len(nodes))],
        matches=lambda node: True, local_name="name", limit=1)
    assert [(tag, id(node)) for tag, node in scanned] == \
        [(tag, id(node)) for tag, node in expected]
