"""Tests for the ``iter|pos|item`` container and the operators the
loop-lifting compiler runs over it (:mod:`repro.algebra.paths`), called
on hand-built tables.

Each operator is checked against the node tree's own axis iterators and
:func:`~repro.algebra.paths.positional_spec_keep`: the result keeps
the compiler's order invariant (rows grouped by ``iter`` in input order,
a dense ``pos`` from 1 in each iteration, nodes duplicate-free and in
document order within an iteration).
"""

import pytest

from repro.algebra import Table
from repro.algebra.paths import (
    axis_step,
    contains_filter,
    equality_probe_step,
    merge_exploded_contexts,
    positional_step,
    window_rank,
)
from repro.errors import TypeError_
from repro.xdm.atomic import integer, string
from repro.xdm.nodes import ElementNode
from repro.xdm.sequence import document_order_sort
from repro.xml import parse_document
from repro.xquery import xast as A
from repro.xquery.context import StaticContext
from repro.xquery.evaluator import equality_probe_shape, node_test_matches
from repro.xquery.parser import parse_main_module

IPI = ("iter", "pos", "item")

SITE = (
    '<site>'
    '<people>'
    '<person id="p1"><name>Ann Lee</name><age>30</age></person>'
    '<person id="p2"><name>Bob</name><age>41</age>'
    '<person id="p3"><name>ann</name><age>30</age></person>'
    '</person>'
    '</people>'
    '<items><item>Lee lamp</item><item>desk</item></items>'
    '</site>'
)

AXES = ("child", "descendant", "descendant-or-self", "self", "parent",
        "ancestor", "ancestor-or-self", "following-sibling",
        "preceding-sibling", "following", "preceding", "attribute")


def _axis(node, axis: str) -> list:
    """*node*'s *axis* from the tree's own iterators, in document order."""
    nodes = {
        "child": lambda: node.children,
        "descendant": lambda: node.descendants(),
        "descendant-or-self": lambda: node.descendants(include_self=True),
        "self": lambda: [node],
        "parent": lambda: [node.parent] if node.parent is not None else [],
        "ancestor": lambda: node.ancestors(),
        "ancestor-or-self": lambda: [node, *node.ancestors()],
        "following-sibling": lambda: node.following_siblings(),
        "preceding-sibling": lambda: node.preceding_siblings(),
        "following": lambda: node.following(),
        "preceding": lambda: node.preceding(),
        "attribute": lambda: node.attributes,
    }[axis]()
    return document_order_sort(nodes)


def _elements(root, name: str) -> list:
    return [node for node in root.descendants()
            if isinstance(node, ElementNode) and node.local_name == name]


def _is_element(node) -> bool:
    return isinstance(node, ElementNode)


def _table(groups: dict) -> Table:
    """An ``iter|pos|item`` table with *groups*' items per iteration."""
    return Table(IPI, [(it, pos, item) for it, items in groups.items()
                       for pos, item in enumerate(items, start=1)])


def _by_iter(table: Table) -> dict:
    """Items per iteration; asserts the dense ``pos`` on the way."""
    groups: dict = {}
    for it, pos, item in table.rows:
        groups.setdefault(it, []).append(item)
        assert pos == len(groups[it])
    return groups


@pytest.fixture(scope="module")
def doc():
    return parse_document(SITE)


@pytest.fixture(scope="module")
def persons(doc):
    return _elements(doc, "person")


class TestTable:
    def test_holds_the_callers_columns_and_rows(self):
        columns, rows = IPI, [(1, 1, "a")]
        table = Table(columns, rows)
        assert table.columns is columns and table.rows is rows

    def test_loop_and_map_relations(self):
        loop = Table(("iter",), [(1,), (2,)])
        mapping = Table(("iter", "iterp"), [(1, 1), (2, 1)])
        assert loop.columns == ("iter",) and len(loop.rows) == 2
        assert mapping.rows[1] == (2, 1)


class TestAxisStep:
    @pytest.mark.parametrize("axis", AXES)
    def test_each_axis_is_the_trees_axis(self, persons, axis):
        table = _table({1: [persons[0]], 2: [persons[1]], 3: [persons[2]]})
        result = _by_iter(axis_step(table, axis, matches=lambda n: True,
                                    match_all=True))
        for it, person in enumerate(persons, start=1):
            assert result.get(it, []) == _axis(person, axis)

    def test_nested_contexts_are_duplicate_free_in_document_order(
            self, persons):
        # p3 lies inside p2: its names must not appear twice.
        table = _table({1: [persons[1], persons[2]]})
        result = _by_iter(axis_step(table, "descendant", _is_element,
                                    local_name="name"))
        assert [n.string_value() for n in result[1]] == ["Bob", "ann"]

    def test_name_partition_scan_equals_the_node_test(self, doc, persons):
        table = _table({1: [doc], 2: [persons[1]]})
        by_name = axis_step(table, "descendant", _is_element,
                            local_name="age")
        by_test = axis_step(table, "descendant", lambda n: _is_element(n)
                            and n.local_name == "age")
        assert by_name.rows == by_test.rows
        assert [len(v) for v in _by_iter(by_name).values()] == [3, 2]

    def test_iterations_over_two_trees(self, persons):
        other = parse_document("<r><name>x</name></r>").children[0]
        table = _table({1: [persons[0]], 2: [other], 3: [persons[2]]})
        result = _by_iter(axis_step(table, "child", _is_element,
                                    local_name="name"))
        assert [[n.string_value() for n in result[it]] for it in (1, 2, 3)] \
            == [["Ann Lee"], ["x"], ["ann"]]

    def test_attribute_context(self, persons):
        attribute = persons[2].attributes[0]
        table = _table({1: [attribute]})
        result = _by_iter(axis_step(table, "ancestor", _is_element))
        assert result[1] == [n for n in _axis(attribute, "ancestor")
                             if _is_element(n)]
        assert result[1][-1] is persons[2]

    def test_an_empty_context_is_an_empty_table(self):
        result = axis_step(Table(IPI, []), "child", _is_element)
        assert result.columns == IPI and result.rows == []

    def test_a_non_node_item_raises(self, persons):
        table = _table({1: [persons[0], integer(1)]})
        with pytest.raises(TypeError_) as raised:
            axis_step(table, "child", _is_element)
        assert raised.value.code == "XPTY0019"


class TestContainsFilter:
    def test_keeps_containing_nodes_with_a_dense_pos(self, doc):
        names = _elements(doc, "name")
        items = _elements(doc, "item")
        table = _table({1: names, 2: items})
        result = _by_iter(contains_filter(table, "Lee"))
        assert result == {1: [names[0]], 2: [items[0]]}

    def test_the_match_is_case_sensitive(self, doc):
        # "ann" is a token of both names; only one holds the substring.
        names = _elements(doc, "name")
        result = _by_iter(contains_filter(_table({1: names}), "ann"))
        assert [n.string_value() for n in result[1]] == ["ann"]

    def test_atomic_items_filter_row_by_row(self):
        table = _table({1: [string("alpha"), string("beta")],
                        2: [string("gamma")]})
        result = _by_iter(contains_filter(table, "ta"))
        assert [v.value for v in result[1]] == ["beta"] and 2 not in result

    def test_an_empty_table_is_returned_as_it_is(self):
        table = Table(IPI, [])
        assert contains_filter(table, "x") is table


class TestWindowRank:
    def _windows(self, doc):
        names = _elements(doc, "name")
        return names, _table({1: names, 2: names[:2]})

    def test_a_literal_rank_per_iteration(self, doc):
        names, table = self._windows(doc)
        result = _by_iter(window_rank(table, ("literal", 2.0)))
        assert result == {1: [names[1]], 2: [names[1]]}

    def test_a_reverse_axis_counts_from_the_end(self, doc):
        names, table = self._windows(doc)
        result = _by_iter(window_rank(table, ("literal", 1.0), reverse=True))
        assert result == {1: [names[2]], 2: [names[1]]}

    def test_last(self, doc):
        names, table = self._windows(doc)
        result = _by_iter(window_rank(table, ("last",)))
        assert result == {1: [names[2]], 2: [names[1]]}

    def test_a_position_comparison(self, doc):
        names, table = self._windows(doc)
        result = _by_iter(window_rank(table, ("pos-cmp", "lt", ("last",))))
        assert result == {1: names[:2], 2: names[:1]}

    def test_a_callable_spec_reads_further_columns(self, doc):
        names, _ = self._windows(doc)
        table = Table(IPI + ("keep",), [(1, pos, node, pos != 2)
                                        for pos, node in enumerate(names, 1)])
        result = window_rank(table, lambda row, position, count: row[3])
        assert result.columns == IPI
        assert result.rows == [(1, 1, names[0]), (1, 2, names[2])]


class TestMergeExplodedContexts:
    def test_inner_iterations_union_per_outer_iteration(self, doc):
        names = _elements(doc, "name")
        # Inner iterations 1-3 belong to outer 1, inner 4 to outer 2.
        table = _table({1: [names[2]], 2: [names[0], names[2]],
                        3: [names[1]], 4: [names[0]]})
        result = merge_exploded_contexts(table, [1, 1, 1, 2])
        assert result.rows == [(1, 1, names[0]), (1, 2, names[1]),
                               (1, 3, names[2]), (2, 1, names[0])]


class TestPositionalStep:
    def test_the_first_child_of_each_context(self, persons):
        table = _table({1: persons, 2: [persons[2]]})
        result = _by_iter(positional_step(table, "child", [("literal", 1.0)],
                                          _is_element))
        firsts = [person.children[0] for person in persons]
        assert result == {1: firsts, 2: [firsts[2]]}

    def test_the_nearest_preceding_sibling(self, doc):
        ages = _elements(doc, "age")
        table = _table({1: [ages[0]], 2: [ages[1]]})
        result = _by_iter(positional_step(
            table, "preceding-sibling", [("literal", 1.0)], _is_element))
        assert [n.string_value() for n in result[1] + result[2]] \
            == ["Ann Lee", "Bob"]

    @pytest.mark.parametrize("rank", [0.0, 1.5, -1.0])
    def test_a_position_no_node_has_keeps_nothing(self, persons, rank):
        table = _table({1: persons})
        assert positional_step(table, "child", [("literal", rank)],
                               _is_element).rows == []

    @pytest.mark.parametrize("axis,name", [("descendant", "age"),
                                           ("ancestor", "site")])
    def test_windows_that_share_a_node_keep_it_once(self, doc, axis, name):
        # p3's last age is also p2's; both names' farthest ancestor is
        # the one site element.
        contexts = {"descendant": _elements(doc, "person")[1:],
                    "ancestor": _elements(doc, "name")[::2]}[axis]
        result = _by_iter(positional_step(_table({1: contexts}), axis,
                                          [("last",)], _is_element))
        assert result == {1: _elements(doc, name)[-1:]}

    def test_last_on_a_name_partition(self, doc, persons):
        table = _table({1: [doc.children[0]]})
        result = _by_iter(positional_step(table, "descendant", [("last",)],
                                          _is_element, local_name="person"))
        assert result == {1: [persons[2]]}

    def test_a_non_node_item_raises(self):
        with pytest.raises(TypeError_) as raised:
            positional_step(_table({1: [string("x")]}), "child",
                            [("last",)], _is_element)
        assert raised.value.code == "XPTY0019"


def _probe_step(step_source: str):
    """The step, resolved name and key path of ``doc//<step_source>``'s
    last step."""
    module = parse_main_module(f"$d/{step_source}")
    step = module.body.steps[-1]
    shape = equality_probe_shape(step, StaticContext())
    assert isinstance(step, A.AxisStep) and shape is not None
    return step, shape[0], shape[1]


def _test_of(step):
    """*step*'s node test in the default static context."""
    static = StaticContext()
    return lambda node: node_test_matches(node, step.node_test, step.axis,
                                          static)


class TestEqualityProbeStep:
    def test_probes_each_iteration(self, doc, persons):
        step, name, key_path = _probe_step('descendant::person[age = "30"]')
        table = _table({1: [doc], 2: [persons[1]], 3: [doc]})
        result = equality_probe_step(
            table, "descendant", name, key_path,
            {1: ["30"], 2: ["30", "41"], 3: ["99"]}, _test_of(step))
        assert _by_iter(result) == {1: [persons[0], persons[2]],
                                    2: [persons[2]]}

    def test_an_iteration_without_probes_keeps_nothing(self, doc):
        step, name, key_path = _probe_step('person[name = "Bob"]')
        people = doc.children[0].children[0]
        result = equality_probe_step(
            _table({1: [people], 2: [people]}), "child", name,
            key_path, {2: ["Bob"]}, _test_of(step))
        assert [(it, pos, n.get_attribute("id").value)
                for it, pos, n in result.rows] == [(2, 1, "p2")]

    @pytest.mark.parametrize("shape", ["two-nodes", "attribute", "atomic"])
    def test_a_context_the_index_cannot_serve_is_declined(
            self, persons, shape):
        step, name, key_path = _probe_step('person[name = "ann"]')
        items = {"two-nodes": persons[:2],
                 "attribute": [persons[0].attributes[0]],
                 "atomic": [string("p")]}[shape]
        assert equality_probe_step(
            _table({1: items}), "child", name, key_path,
            {1: ["ann"]}, _test_of(step)) is None
