"""The for/where equi-join in the lifted plan.

``for $v in S where key($v) = probe`` is hash-joined inside the plan:
``S`` compiles once per live iteration of its FLWOR's entry loop — once
in all when it reads no variable and yields the same items every time —
its items hash by key string, and a key or probe that is not a string
compares pair by pair.  Every shape here runs three ways — the lifted
plan, the product interpreter (a nested loop) and the oracle
(``tests/helpers.py::assert_matches_reference``) — and the lifted run
must really take the join.
"""

import pytest

from repro.pathfinder import LoopLiftingCompiler
from repro.workloads import FUNCTIONS_B_LOCATION
from repro.xml import parse_document
from tests.helpers import (assert_matches_reference, assert_same_outcome,
                           execute, values)
from tests.test_strategies import two_peer_site  # noqa: F401 (fixture)

JOIN_DOC = parse_document(
    "<r><g><t>a</t><t>a</t><t>c</t></g><g><t>b</t></g><g/>"
    "<i id='1'><k>a</k><k>b</k></i><i id='2'><k>c</k></i>"
    "<i id='3'><k>a</k><k>a</k></i><i id='4'/></r>", uri="j.xml")
RESOLVE = {"j.xml": JOIN_DOC}.get


@pytest.fixture
def joins(monkeypatch):
    """The variables of the for clauses the lifted plan hash-joined."""
    made = []
    join_source = LoopLiftingCompiler._join_source

    def counting(compiler, *args):
        made.append(args[0].var)
        return join_source(compiler, *args)
    monkeypatch.setattr(LoopLiftingCompiler, "_join_source", counting)
    return made


def assert_lifted_join(source, joins, resolver=RESOLVE) -> list:
    """*source* runs lifted through the join and agrees with the
    interpreter and the oracle; hands back the oracle's result."""
    expected = assert_matches_reference(source, resolver)
    _, explain = execute(source, resolver)
    assert explain.plan == "lifted", explain.fallback_reason
    assert joins
    return expected


def test_at_keeps_the_source_positions(joins):
    query = """
    let $db := <db><i k="b"/><i k="a"/><i k="b"/></db>
    return for $probe in ('b')
           for $i at $n in $db/i
           where $i/@k = $probe
           return $n
    """
    assert values(assert_lifted_join(query, joins)) == [1, 3]


@pytest.mark.parametrize("condition", ["$y = $x", "$x = $y"])
def test_numeric_keys_compare_pair_by_pair(joins, condition):
    query = f"""
    for $x in (1, 2, 3)
    for $y in (<v>2</v>, <v>3.0</v>)
    where {condition}
    return concat($x, ':', $y)
    """
    assert values(assert_lifted_join(query, joins)) == ["2:2", "3:3.0"]


def test_string_and_numeric_probes_mix_per_iteration(joins):
    # '2' probes the hash, 3 compares with each key as a number.
    query = """
    for $x in ('2', 3, '3')
    for $y in (<v>2</v>, <v>3.0</v>)
    where $x = $y
    return concat($x, ':', $y)
    """
    assert values(assert_lifted_join(query, joins)) == ["2:2", "3:3.0"]


def test_a_numeric_key_against_a_string_probe_is_the_nested_loops_error(
        joins):
    assert assert_same_outcome(
        "for $x in ('1', '2') for $y in (1, 2) where $y = $x return $y",
        RESOLVE) == "XPTY0004"
    assert joins


def test_multi_valued_keys_and_duplicate_probe_values(joins):
    # g1 probes (a, a, c): i1, i2 and i3 each match once, in S order.
    query = """
    for $g in doc('j.xml')//g, $i in doc('j.xml')//i
    where $i/k = $g/t
    return $i
    """
    result = assert_lifted_join(query, joins)
    assert [node.get_attribute("id").string_value() for node in result] \
        == ["1", "2", "3", "1"]


def test_a_probe_that_reads_the_focus(joins):
    query = """
    doc('j.xml')//g[count(for $i in doc('j.xml')//i
                          where $i/k = t return $i) = 3]
    """
    result = assert_lifted_join(query, joins)
    assert len(result) == 1 and len(result[0].children) == 3


def test_each_entry_iteration_hashes_its_own_source(joins):
    query = """
    for $g in (1, 2)
    return for $t in doc('j.xml')//t, $i in doc('j.xml')//i[@id <= $g + 1]
           where $i/k = $t
           return concat($g, ':', $t, ':', $i/@id)
    """
    assert values(assert_lifted_join(query, joins)) == [
        "1:a:1", "1:a:1", "1:c:2", "1:b:1",
        "2:a:1", "2:a:3", "2:a:1", "2:a:3", "2:c:2", "2:b:1"]


def test_a_source_that_reads_nothing_is_built_once(joins, monkeypatch):
    from repro.pathfinder import compiler
    scanned = []
    axis_step = compiler.axis_step

    def counting(table, *args, **kwargs):
        result = axis_step(table, *args, **kwargs)
        if kwargs.get("local_name") == "i" and result.rows:  # not check's
            scanned.append(len(result.rows))
        return result
    monkeypatch.setattr(compiler, "axis_step", counting)
    query = """
    for $g in (1, 2, 3)
    return for $t in doc('j.xml')//t, $i in doc('j.xml')//i
           where $i/k = $t
           return concat($g, ':', $t, ':', $i/@id)
    """
    result = values(assert_lifted_join(query, joins))
    assert result[:4] == ["1:a:1", "1:a:3", "1:a:1", "1:a:3"]
    assert len(result) == 3 * 6
    # Each lifted run scanned //i for one entry iteration, not three.
    assert scanned and set(scanned) == {4}


def test_a_source_that_constructs_nodes_is_built_per_entry_iteration(joins):
    # Each evaluation of S mints its own nodes: the oracle's result
    # holds two distinct <t>s, and so must the join's.
    query = """
    for $g in (1, 2)
    return for $p in ('a'), $t in <r><t>a</t><t>b</t></r>/t
           where $t = $p
           return $t
    """
    result = assert_lifted_join(query, joins)
    assert len(result) == 2 and result[0] is not result[1]


def test_an_empty_outer_never_evaluates_the_source(joins):
    # The nested loop never reaches doc('missing.xml'); neither does
    # the join.
    query = """
    for $p in (), $x in doc('missing.xml')//x
    where $x = $p
    return $x
    """
    assert assert_lifted_join(query, joins) == []


def test_a_probe_on_the_position_variable_is_a_selection(joins):
    # $n is the position of $i, not an outer binding: the where
    # clause filters after the for clause, as it reads.
    for outer in ("", "for $n in (2) return "):
        query = (outer + "for $i at $n in ('2', '1', '3') "
                 "where $i = string($n) return $i")
        assert values(assert_matches_reference(query, RESOLVE)) == ["3"]
    assert not joins


def test_an_empty_outer_ships_nothing(two_peer_site):  # noqa: F811
    network, peer_a, config = two_peer_site
    network.reset_stats()
    outcome = peer_a.execute_query(f"""
    import module namespace b="functions_b" at "{FUNCTIONS_B_LOCATION}";
    for $p in doc("persons.xml")//nobody,
        $ca in execute at {{"xrpc://B"}} {{ b:Q_B1() }}
    where $p/@id = $ca/buyer/@person
    return $ca
    """)
    assert outcome.plan == "lifted"
    assert outcome.sequence == []
    assert (outcome.messages_sent, network.messages_sent) == (0, 0)
