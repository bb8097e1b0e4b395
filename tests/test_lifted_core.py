"""Conditionals, constructors and the builtin library on the lifted plan.

Every query of the corpus runs three ways — the lifted plan, the
product interpreter and the oracle (``tests/helpers.py::
assert_same_outcome``) — and must come back the same, items or error
code, with ``Explain.plan == "lifted"``.  Then: every table the compiler
produces is ``(iter, pos)``-ordered with a dense ``pos`` (the order
invariant the operators rely on instead of sorting), the equality probe
takes a focus-free right-hand side once per iteration, a for/where
equi-join lifts, and the paper's Q7 runs the plan the paper describes.
"""

import pytest

from repro.algebra import Table
from repro.engine import Engine
from repro.net import SimulatedNetwork
from repro.errors import XQueryError
from repro.pathfinder import LoopLiftedQuery, LoopLiftingCompiler
from repro.pathfinder import compiler as lifted_compiler
from repro.rpc import XRPCPeer
from repro.strategies import STRATEGY_NAMES, build_strategy_query, run_strategy
from repro.workloads import (FUNCTIONS_B_LOCATION, FUNCTIONS_B_MODULE,
                             TEST_MODULE, TEST_MODULE_LOCATION)
from repro.workloads.xmark import READ_SUITE, XMarkConfig
from repro.xml import parse_document
from repro.xquery.context import ExecutionContext
from repro.xquery.evaluator import CompiledQuery
from tests.helpers import assert_same_outcome, execute, xmark_resolver
from tests.test_strategies import two_peer_site  # noqa: F401 (fixture)

AUCTIONS = (
    "<site><closed_auctions>"
    "<closed_auction><seller person='p1'/><buyer person='p1'/>"
    "<price>1</price><note>a</note><note>b</note></closed_auction>"
    "<closed_auction><seller person='p2'/><buyer person='p3'/>"
    "<price>2</price></closed_auction>"
    "<closed_auction><seller person='p3'/><buyer person='p2'/>"
    "<price>3</price><note>c</note></closed_auction>"
    "</closed_auctions></site>")
PERSONS = ("<site><people><person id='p1'/><person id='p2'/>"
           "<person id='p9'/></people></site>")
DOCUMENTS = {"a.xml": parse_document(AUCTIONS, uri="a.xml"),
             "p.xml": parse_document(PERSONS, uri="p.xml")}
RESOLVE = DOCUMENTS.get

CORPUS = {
    # -- if: node, empty and multi-atomic conditions ----------------------
    "if-node": "for $c in doc('a.xml')//closed_auction "
               "return if ($c/note) then $c/price else 'none'",
    "if-empty": "for $i in (1, 2) "
                "return if (doc('a.xml')//nothing) then $i else 0 - $i",
    "if-atomic": "for $i in (1, 2, 3) "
                 "return if ($i = 2) then 'two' else ($i, $i)",
    "if-multi-atomic": "for $i in (1, 2) "
                       "return if (($i, $i)) then 1 else 2",
    "if-nested": "for $i in (1 to 6) return if ($i > 3) then "
                 "(if ($i > 4) then 'big' else 'four') else $i",
    "if-untaken-error": "for $i in (1, 2) "
                        "return if ($i < 5) then $i else error()",
    "if-untaken-type-error": "if (1 = 1) then 'ok' else (1, 2) + 1",
    "if-taken-error": "for $i in (1, 2) "
                      "return if ($i = 2) then error() else $i",
    "if-unbalanced": "for $c in doc('a.xml')//closed_auction "
                     "return if ($c/price = 2) then () else $c/note",
    # -- constructors ------------------------------------------------------
    "direct-avt": "for $c in doc('a.xml')//closed_auction "
                  "return <r id='{$c/price}' n='x{1 + 1}y{(1, 2)}'>"
                  "{$c/buyer/@person, 'text', $c/price, 1, 2}</r>",
    "direct-nested": "for $c in doc('a.xml')//closed_auction "
                     "return <r><s>{$c/note}</s>tail<t/></r>",
    "direct-xmlns": "<a xmlns:p='urn:p'><p:b>{<p:c/>}</p:b></a>",
    "direct-default-ns": "<a xmlns='urn:d'><b>{<c/>}</b></a>",
    "direct-xmlns-per-iteration":
        "for $i in (1, 2) return <a xmlns:p='urn:p'>{<p:b n='{$i}'/>}</a>",
    "attribute-after-content": "<r>{'x', attribute a {'1'}}</r>",
    "attribute-after-content-per-iteration":
        "for $i in (1, 2) return <r>{if ($i = 2) then 'x' else (), "
        "attribute a {$i}}</r>",
    "computed": "for $i in (1, 2) return element {concat('e', $i)} "
                "{attribute {'k'} {$i, 'v'}, text {'t'}, $i}",
    "computed-text-empty": "for $i in (1, 2) return text {()}",
    "computed-name-error": "element {(1, 2)} {()}",
    "document-splice": "<r>{doc('p.xml')}</r>",
    "identity-across-iterations":
        "let $s := for $i in (1, 2) return <a/> "
        "return subsequence($s, 1, 1) is subsequence($s, 2, 1)",
    "identity-within-iteration": "let $a := <a/> return ($a is $a, $a, $a)",
    "path-over-constructed": "for $i in (1, 2) "
                             "return <r><s n='{$i}'/><s/></r>/s/@n",
    # -- the builtin library -----------------------------------------------
    "empty-exists-count":
        "for $c in doc('a.xml')//closed_auction "
        "return (empty($c/note), exists($c/note), count($c/note))",
    "subsequence": "for $c in doc('a.xml')//closed_auction "
                   "return subsequence($c/*, 2, 2)",
    "string-join": "for $c in doc('a.xml')//closed_auction "
                   "return string-join(for $n in $c/* "
                   "return local-name($n), ',')",
    "not-sum-concat": "for $i in (1 to 3) "
                      "return (not($i = 2), sum(($i, 1.5)), concat($i, '-'))",
    "zero-or-one-error": "for $c in doc('a.xml')//closed_auction "
                         "return zero-or-one($c/note)",
    "builtin-in-predicate": "doc('a.xml')//closed_auction[count(note) = 1]",
    "numeric-builtin-predicate": "doc('a.xml')//closed_auction/*[count(1)]",
    # -- equality probes ---------------------------------------------------
    "probe-candidate-relative":
        "doc('a.xml')//closed_auction[buyer/@person = seller/@person]/price",
    "probe-candidate-dot":
        "doc('a.xml')//closed_auction"
        "[./buyer/@person = ./seller/@person]/price",
    "probe-candidate-under-variable":
        "for $s in doc('a.xml')/site/closed_auctions "
        "return $s/closed_auction[buyer/@person = seller/@person]/price",
}

#: Right-hand sides the value index cannot take: the window is scanned
#: and each candidate compared with the values compiled once.
NON_STRING_PROBES = {
    "probe-numeric": "doc('a.xml')//closed_auction[price = 3]/seller",
    "probe-mixed": "doc('a.xml')//closed_auction[price = (2, 'x')]/seller",
    "probe-bad-cast": "doc('a.xml')//closed_auction[buyer/@person = 1]",
}
PROBE_OF_VARIABLE = (
    "for $p in doc('p.xml')//person return doc('a.xml')//closed_auction"
    "[./buyer/@person = string($p/@id)]/price")


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_lifted_plan_agrees_with_both_interpreters(name):
    assert_same_outcome(CORPUS[name], RESOLVE)


@pytest.mark.parametrize("name,code", [
    ("if-multi-atomic", "FORG0006"),
    ("if-taken-error", "FOER0000"),
    ("attribute-after-content", "XQTY0024"),
    ("attribute-after-content-per-iteration", "XQTY0024"),
    ("computed-name-error", "XPTY0004"),
    ("zero-or-one-error", "FORG0003"),
])
def test_errors_are_the_interpreters(name, code):
    assert assert_same_outcome(CORPUS[name], RESOLVE) == code


def test_untaken_branches_raise_nothing():
    for name in ("if-untaken-error", "if-untaken-type-error"):
        assert not isinstance(assert_same_outcome(CORPUS[name], RESOLVE), str)


def test_each_iteration_mints_its_own_node():
    result, explain = execute(CORPUS["identity-across-iterations"], RESOLVE)
    assert explain.plan == "lifted"
    assert [item.value for item in result] == [False]
    result, _ = execute(CORPUS["identity-within-iteration"], RESOLVE)
    assert result[0].value is True and result[1] is result[2]


def test_probe_shapes_were_the_interpreters_bug():
    """The interpreter's indexed step used to evaluate a right-hand
    side that reads the candidate against the step's own focus."""
    for name in ("probe-candidate-relative", "probe-candidate-dot",
                 "probe-candidate-under-variable"):
        result, explain = execute(CORPUS[name], RESOLVE, try_lifted=False)
        assert explain.plan == "interpreter"
        assert [node.string_value() for node in result] == ["1"]


# ---------------------------------------------------------------------------
# The order invariant: checked on every table the compiler returns


def _assert_ordered(table, loop) -> None:
    live = [it for (it,) in loop.rows]
    assert live == sorted(set(live))
    live_set = set(live)
    last_iter = last_pos = 0
    for it, pos, _item in table.rows:
        assert it in live_set
        if it == last_iter:
            assert pos == last_pos + 1
        else:
            assert it > last_iter and pos == 1
        last_iter, last_pos = it, pos


@pytest.fixture
def order_checked(monkeypatch):
    """Every ``compile_expr`` result is checked against its loop."""
    compile_expr = LoopLiftingCompiler.compile_expr
    checked = []

    def checking(compiler, expr, loop, env):
        table = compile_expr(compiler, expr, loop, env)
        _assert_ordered(table, loop)
        checked.append(type(expr).__name__)
        return table
    monkeypatch.setattr(LoopLiftingCompiler, "compile_expr", checking)
    return checked


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_tables_keep_the_order_invariant(order_checked, name):
    assert_same_outcome(CORPUS[name], RESOLVE)
    assert order_checked


@pytest.mark.parametrize("name", sorted(READ_SUITE))
def test_read_suite_tables_keep_the_order_invariant(order_checked, name):
    resolver = xmark_resolver(XMarkConfig(persons=12, closed_auctions=30,
                                          open_auctions=6, matches=3))
    _, explain = execute(READ_SUITE[name], resolver)
    assert explain.plan == "lifted"
    assert order_checked


def test_every_table_is_built_through_the_constructor(monkeypatch):
    # The benchmark's count-only `algebra.tables_built` site wraps
    # `Table.__init__`: a table built around it would go uncounted.
    built = []
    init = Table.__init__

    def counting(table, columns, rows):
        built.append(columns)
        init(table, columns, rows)
    monkeypatch.setattr(Table, "__init__", counting)
    resolver = xmark_resolver(XMarkConfig(persons=12, closed_auctions=30,
                                          open_auctions=6, matches=3))
    _, explain = execute(READ_SUITE["child-chain"], resolver)
    assert explain.plan == "lifted"
    assert len(built) > 0


# ---------------------------------------------------------------------------
# Hazards: the probe and the join


def test_a_focus_free_right_side_is_probed_once_per_iteration(monkeypatch):
    probes = []
    probe = lifted_compiler.equality_probe_step

    def counted(table, *args, **kwargs):
        probes.append(len(table.rows))
        return probe(table, *args, **kwargs)
    monkeypatch.setattr(lifted_compiler, "equality_probe_step", counted)
    result, explain = execute(PROBE_OF_VARIABLE, RESOLVE)
    assert explain.plan == "lifted"
    assert [node.string_value() for node in result] == ["1", "3"]
    # one probe over the three persons' iterations (and the static
    # check's over none)
    assert [rows for rows in probes if rows] == [3]


@pytest.mark.parametrize("name", sorted(NON_STRING_PROBES))
def test_a_non_string_probe_compiles_its_right_side_once(
        monkeypatch, name):
    source = NON_STRING_PROBES[name]
    assert_same_outcome(source, RESOLVE)
    compiled = CompiledQuery(source)
    [right] = [step.predicates[0].right for step in compiled.ast.body.steps
               if getattr(step, "predicates", None)]
    compiles = []
    compile_expr = LoopLiftingCompiler.compile_expr

    def counting(compiler, expr, loop, env):
        compiles.append(expr is right)
        return compile_expr(compiler, expr, loop, env)
    monkeypatch.setattr(LoopLiftingCompiler, "compile_expr", counting)
    try:
        LoopLiftedQuery(compiled, ExecutionContext(
            doc_resolver=RESOLVE)).evaluate()
    except XQueryError:
        assert name == "probe-bad-cast"
    assert compiles.count(True) == 1


def test_a_for_where_equi_join_lifts_and_equals_the_reference():
    source = ("for $p in doc('p.xml')//person, "
              "$c in doc('a.xml')//closed_auction "
              "where $p/@id = $c/buyer/@person return $c/price")
    result = assert_same_outcome(source, RESOLVE)
    assert [node.string_value() for node in result] == ["1", "3"]
    # A right side that is one value for every pair is a selection.
    assert assert_same_outcome(
        "for $c in doc('a.xml')//closed_auction "
        "where $c/buyer/@person = 'p2' return $c/price", RESOLVE)


# ---------------------------------------------------------------------------
# Q7 and execute at


def _q7_analysis(strategy: str):
    engine = Engine()
    engine.registry.register_source(FUNCTIONS_B_MODULE,
                                    location=FUNCTIONS_B_LOCATION)
    compiled = engine.compile(build_strategy_query(strategy, "B"))
    return engine.analyze(compiled, ExecutionContext(
        dispatch=lambda *args: [], doc_resolver=lambda uri: None))


def test_q7_verdicts():
    verdicts = {strategy: _q7_analysis(strategy).fallback_code
                for strategy in STRATEGY_NAMES}
    assert verdicts == dict.fromkeys(STRATEGY_NAMES)


@pytest.mark.parametrize("strategy", ["data shipping",
                                      "predicate push-down"])
def test_q7_join_strategies_ship_from_the_lifted_plan(two_peer_site,  # noqa: F811
                                                      strategy):
    network, peer_a, config = two_peer_site
    outcome = peer_a.execute_query(build_strategy_query(strategy, "B"))
    assert outcome.plan == "lifted"
    # One fetch of auctions.xml, or one call to b:Q_B1: what the
    # interpreter's join shipped.
    assert (outcome.messages_sent, outcome.calls_shipped) == (1, 1)
    assert network.messages_sent == 1
    assert len(outcome.sequence) == config.matches


def test_q7_semijoin_ships_one_message_from_the_lifted_plan(two_peer_site):  # noqa: F811
    network, peer_a, config = two_peer_site
    outcome = peer_a.execute_query(
        build_strategy_query("distributed semi-join", "B"))
    assert outcome.plan == "lifted"
    assert (outcome.messages_sent, outcome.calls_shipped) == \
        (1, config.persons)
    assert len(outcome.sequence) == config.matches


def test_q7_data_shipping_fetches_once(two_peer_site):  # noqa: F811
    network, peer_a, config = two_peer_site
    run = run_strategy("data shipping", peer_a, "B", network=network)
    assert run.messages_sent == 1
    assert run.results == config.matches


def test_destinations_group_by_peer_not_by_spelling():
    network = SimulatedNetwork()
    origin = XRPCPeer("A", network)
    served = XRPCPeer("B", network)
    for peer in (origin, served):
        peer.registry.register_source(TEST_MODULE,
                                      location=TEST_MODULE_LOCATION)
    outcome = origin.execute_query(
        f'import module namespace t="test" at "{TEST_MODULE_LOCATION}"; '
        'for $d in ("xrpc://B", "xrpc://B/", "B") '
        'return execute at {$d} { t:echoVoid() }')
    assert outcome.plan == "lifted"
    assert (outcome.messages_sent, outcome.calls_shipped) == (1, 3)
