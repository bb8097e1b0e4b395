"""The prepare-time static analyzer (:mod:`repro.analysis`).

The analyzer makes promises the runtime must keep, so most of this file
is *agreement* testing: the liftability prediction is checked against
the engine's actual lifted-vs-fallback decision (same stable code), the
updating-ness verdict against the evaluator's pending update list, and
the site profile against the peer's routing — over the XMark READ_SUITE,
a curated corpus of fallback/update/remote shapes, and
hypothesis-generated queries, over documents whose accelerator index is
warm (``accel``) and over freshly parsed ones that have none yet
(``noaccel``: the plan under test builds it).
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import obs
from repro.analysis import analyze_compiled
from repro.engine import Engine
from repro.pathfinder import (LoopLiftedQuery, LoopLiftingCompiler,
                              UnsupportedExpression)
from repro.strategies.q7 import STRATEGY_NAMES, build_strategy_query
from repro.workloads import FUNCTIONS_B_LOCATION, FUNCTIONS_B_MODULE
from repro.workloads.xmark import (
    KEYWORD_SUITE,
    READ_SUITE,
    XMarkConfig,
    generate_auctions,
    generate_persons,
)
from repro.xml import parse_document
from repro.xquery.context import ExecutionContext
from repro.xquery.evaluator import CompiledQuery

CONFIG = XMarkConfig(persons=10, closed_auctions=40, open_auctions=6)

SOURCES = {
    "persons.xml": generate_persons(CONFIG),
    "auctions.xml": generate_auctions(CONFIG),
    "r.xml": "<root><sec n='0'><item v='a'>x</item><item v='b'>y</item></sec>"
             "<sec n='1'><item v='c'>z</item></sec></root>",
}
DOCUMENTS = {uri: parse_document(text, uri=uri)
             for uri, text in SOURCES.items()}


def _context(warm=True, variables=None):
    if warm:
        resolver = DOCUMENTS.get
    else:
        fresh: dict = {}

        def resolver(uri):
            if uri not in fresh and uri in SOURCES:
                fresh[uri] = parse_document(SOURCES[uri], uri=uri)
            return fresh.get(uri)
    return ExecutionContext(doc_resolver=resolver, variables=variables)


def assert_verdict_is_what_evaluation_raises(engine, source, context):
    """A static-fallback verdict held against the compiler itself:
    executions consult the verdict instead of deriving it, so the
    agreement that matters is that evaluating over the real iteration
    raises exactly what the dry run over zero iterations reported."""
    compiled = engine.compile(source)
    analysis = engine.analyze(compiled, context)
    assert not analysis.liftable
    with pytest.raises(UnsupportedExpression) as raised:
        LoopLiftedQuery(compiled, context).evaluate()
    assert (str(raised.value), raised.value.code) == \
        (analysis.fallback_reason, analysis.fallback_code), source
    return analysis


def assert_prediction_agrees(source, warm=True, variables=None):
    """The core invariant: run *source* through the engine and demand
    the analyzer predicted what actually happened.

    * plan ran lifted  -> the analyzer said liftable;
    * static fallback  -> the analyzer said not liftable, with the
      *same* stable code the compiler raises when it evaluates;
    * dynamic bail     -> the analyzer said liftable but declared the
      bail's code among its ``dynamic_risks`` (the honesty label).
    """
    engine = Engine()
    context = _context(warm=warm, variables=variables)
    _, explain = engine.execute(source, context)
    analysis = explain.analysis
    assert analysis is not None
    if explain.plan == "lifted":
        assert analysis.liftable, (
            f"ran lifted but predicted fallback "
            f"[{analysis.fallback_code}]: {analysis.fallback_reason}\n"
            f"query: {source}")
    elif analysis.liftable:
        assert explain.fallback_code in analysis.dynamic_risks, (
            f"predicted liftable but fell back "
            f"[{explain.fallback_code}] {explain.fallback_reason} "
            f"(declared risks: {analysis.dynamic_risks})\nquery: {source}")
    else:
        assert analysis.fallback_code == explain.fallback_code, (
            f"predicted [{analysis.fallback_code}] but compiler raised "
            f"[{explain.fallback_code}] {explain.fallback_reason}\n"
            f"query: {source}")
        assert analysis.fallback_reason == explain.fallback_reason
        assert_verdict_is_what_evaluation_raises(engine, source, context)
    return explain


# ---------------------------------------------------------------------------
# Corpus agreement: READ_SUITE + curated shapes, index warm and cold


# Shapes chosen to land in every predictor branch: lifted paths and
# FLWORs, each static-fallback code, and dynamic-risk queries that
# succeed (stay lifted) as well as ones that bail mid-plan.
CURATED = [
    # lifted
    "doc('r.xml')//item",
    "doc('r.xml')/root/sec[@n = '1']/item",
    "for $s in doc('r.xml')//sec return $s/item[1]",
    "for $i in doc('r.xml')//item where $i/@v = 'a' return $i",
    # function-not-lifted
    "count(doc('r.xml')//item)",
    "sum((1, 2, 3))",
    # clause-not-lifted
    "for $i in doc('r.xml')//item order by $i/@v return $i",
    # expr-not-lifted
    "<wrap>{ doc('r.xml')//item }</wrap>",
    "if (1 = 1) then doc('r.xml')//item else ()",
    # axis/step shapes that *are* lifted
    "doc('r.xml')//item/ancestor::sec",
    "doc('r.xml')//item[last()]",
    # cardinality risk, runs clean lifted
    "1 + 2",
    "(1 to 5)",
    # positional-runtime risk that actually bails mid-plan (a numeric
    # predicate outside the recognized positional specs)
    "doc('r.xml')//item[1 + 1]",
    # contains predicates: literal needles lift (posting-list
    # prefilter), dynamic needles are search-dynamic-needle, and a
    # non-context haystack is function-not-lifted
    "doc('r.xml')//item[contains(., 'a')]",
    "doc('r.xml')//sec[contains(., 'missing words')]/item",
    "for $i in doc('r.xml')//item[contains(., 'a')] return $i",
    "for $i in doc('r.xml')//item return doc('r.xml')"
    "//sec[contains(., string($i/@v))]",
    "doc('r.xml')//sec[contains(@n, '1')]",
]


class TestCorpusAgreement:
    @pytest.mark.parametrize("name", sorted(READ_SUITE))
    @pytest.mark.parametrize("warm", [True, False],
                             ids=["accel", "noaccel"])
    def test_read_suite(self, name, warm):
        explain = assert_prediction_agrees(READ_SUITE[name], warm=warm)
        # the whole READ_SUITE is inside the lifted core
        assert explain.plan == "lifted"

    @pytest.mark.parametrize("source", CURATED)
    @pytest.mark.parametrize("warm", [True, False],
                             ids=["accel", "noaccel"])
    def test_curated_shapes(self, source, warm):
        assert_prediction_agrees(source, warm=warm)

    def test_unbound_external_variable_is_predicted(self):
        # No binding passed: the lifted plan cannot compile $who, and
        # the analyzer knows it from the same (empty) binding set.
        source = ("declare variable $who external; "
                  "doc('r.xml')//item[@v = $who]")
        compiled = CompiledQuery(source)
        analysis = analyze_compiled(compiled, has_doc_resolver=True,
                                    variables=set())
        assert not analysis.liftable
        assert analysis.fallback_code == "unbound-variable"

    def test_bound_external_variable_lifts(self):
        from repro.xdm.atomic import string
        source = ("declare variable $who external; "
                  "doc('r.xml')//item[@v = $who]")
        explain = assert_prediction_agrees(
            source, variables={"who": [string("a")]})
        assert explain.plan == "lifted"


# ---------------------------------------------------------------------------
# The compiler is its own static check


def _raising_capability(*_args, **_kwargs):
    raise AssertionError("the dry run must call no capability")


def _q7_registry():
    from repro.xquery.modules import ModuleRegistry
    registry = ModuleRegistry()
    registry.register_source(FUNCTIONS_B_MODULE, location=FUNCTIONS_B_LOCATION)
    return registry


DRY_RUN_CORPUS = (
    [(f"read:{name}", source) for name, source in sorted(READ_SUITE.items())]
    + [(f"keyword:{name}", source)
       for name, source in sorted(KEYWORD_SUITE.items())]
    + [(f"q7:{name}", build_strategy_query(name, "b.example.org"))
       for name in STRATEGY_NAMES]
    + [(f"curated:{index}", source) for index, source in enumerate(CURATED)])

# Two static failures each; the verdict is the one evaluation meets
# first (function and clause kinds before their operands, a path's
# context before its steps, operands left to right).
TWO_DEFECTS = [
    ("x/1", "context-item"),
    ("HTTP/1.1", "context-item"),
    ("count($undeclared)", "function-not-lifted"),
    ("for $i in $u order by $i return f:g()", "unbound-variable"),
    ("for $i in (2, 1) order by $i return <a/>", "clause-not-lifted"),
    ("$u + count(1)", "unbound-variable"),
    ("(1 is 2, <a/>)", "comparison-not-lifted"),
    ("doc('r.xml')//item[contains(., $needle)]/count(.)",
     "search-dynamic-needle"),
    ("doc('r.xml')//item/count(.)[$u]", "step-not-lifted"),
]


class TestTheCompilerIsTheCheck:
    @pytest.mark.parametrize("source", [
        pytest.param(source, id=name) for name, source in DRY_RUN_CORPUS])
    def test_dry_run_leaves_no_trace(self, source):
        compiled = CompiledQuery(source, _q7_registry())
        compiler = LoopLiftingCompiler(
            compiled.static, dispatch=_raising_capability, trace=True,
            doc_resolver=_raising_capability,
            dispatch_parallel=_raising_capability)
        before = obs.totals()
        try:
            compiler.check(compiled.ast.body, (), False)
        except UnsupportedExpression:
            pass
        assert compiler.trace == []
        assert obs.totals() == before

    @pytest.mark.parametrize("source,code", TWO_DEFECTS)
    def test_two_defects_report_the_first_in_evaluation_order(
            self, source, code):
        analysis = assert_verdict_is_what_evaluation_raises(
            Engine(), source, _context())
        assert analysis.fallback_code == code

    def test_executions_consult_the_verdict(self, monkeypatch):
        checks = []
        check = LoopLiftingCompiler.check

        def counted(compiler, expr, names, dot):
            checks.append(expr)
            check(compiler, expr, names, dot)
        monkeypatch.setattr(LoopLiftingCompiler, "check", counted)
        engine = Engine()
        context = _context()
        for source, plan in (("doc('r.xml')//item", "lifted"),
                             ("count(doc('r.xml')//item)", "interpreter")):
            del checks[:]
            for _ in range(10):
                _, explain = engine.execute(source, context)
                assert explain.plan == plan
            assert len(checks) == 1     # the analysis memo miss
        assert engine.fallback_stats() == {"function-not-lifted": 10}


# ---------------------------------------------------------------------------
# Updating-ness agreement: verdict vs the evaluator's pending update list


UPDATING_QUERIES = [
    "insert node <new/> as last into doc('r.xml')/root",
    "delete nodes doc('r.xml')//item[1]",
    "rename node doc('r.xml')/root/sec[1] as 'chapter'",
    "replace value of node doc('r.xml')//item[1] with 'q'",
    "for $i in doc('r.xml')//item return delete nodes $i",
    "fn:put(doc('r.xml'), 'out.xml')",
]

READONLY_QUERIES = [
    "doc('r.xml')//item",
    "count(doc('r.xml')//item)",
    "for $i in doc('r.xml')//item return $i/@v",
]


class TestUpdatingAgreement:
    @pytest.mark.parametrize("source", UPDATING_QUERIES)
    def test_updating_queries_flagged_and_produce_updates(self, source):
        compiled = CompiledQuery(source)
        analysis = analyze_compiled(compiled, has_doc_resolver=True)
        assert analysis.updating
        documents = {
            uri: parse_document(
                "<root><sec n='0'><item v='a'>x</item></sec></root>",
                uri=uri)
            for uri in ("r.xml",)}
        context = ExecutionContext(doc_resolver=documents.get,
                                   apply_updates=False,
                                   put_store=lambda uri, node: None)
        _, pul = compiled.run(context)
        assert pul, f"flagged updating but produced no updates: {source}"

    @pytest.mark.parametrize("source", READONLY_QUERIES)
    def test_readonly_queries_not_flagged(self, source):
        compiled = CompiledQuery(source)
        analysis = analyze_compiled(compiled, has_doc_resolver=True)
        assert not analysis.updating
        context = ExecutionContext(doc_resolver=DOCUMENTS.get,
                                   apply_updates=False)
        _, pul = compiled.run(context)
        assert not pul

    def test_updating_through_local_function_closure(self):
        source = """
        declare function local:zap($d) { delete nodes $d//item };
        local:zap(doc('r.xml'))
        """
        analysis = analyze_compiled(CompiledQuery(source),
                                    has_doc_resolver=True)
        assert analysis.updating
        assert analysis.updating_local


# ---------------------------------------------------------------------------
# Site profile + peer routing


FILM_MODULE = """
module namespace film = "films";
declare function film:filmsByActor($actor as xs:string) as node()*
{ doc("filmDB.xml")//name[../actor = $actor] };
declare updating function film:logVisit($actor as xs:string)
{ insert node <visit>{$actor}</visit> as last into doc("log.xml")/log };
"""
FILM_LOCATION = "http://x.example.org/film.xq"


def _compile_with_module(source):
    from repro.xquery.modules import ModuleRegistry
    registry = ModuleRegistry()
    registry.register_source(FILM_MODULE, location=FILM_LOCATION)
    return CompiledQuery(source, registry=registry)


class TestSiteProfile:
    def test_literal_destinations_and_count(self):
        source = f"""
        import module namespace f = "films" at "{FILM_LOCATION}";
        ( execute at {{"xrpc://y"}} {{ f:filmsByActor("A") }},
          execute at {{"xrpc://z"}} {{ f:filmsByActor("B") }} )
        """
        profile = analyze_compiled(_compile_with_module(source),
                                   has_dispatch=True).sites
        assert profile.count == 2
        assert profile.destinations == ("xrpc://y", "xrpc://z")
        assert profile.dynamic_destinations == 0
        assert profile.groupable
        assert not profile.updating_remote

    def test_dynamic_destination_counted(self):
        source = f"""
        import module namespace f = "films" at "{FILM_LOCATION}";
        for $dst in ("xrpc://y", "xrpc://z")
        return execute at {{$dst}} {{ f:filmsByActor("A") }}
        """
        profile = analyze_compiled(_compile_with_module(source),
                                   has_dispatch=True).sites
        assert profile.count == 1
        assert profile.dynamic_destinations == 1
        assert not profile.groupable

    def test_updating_remote_decl(self):
        source = f"""
        import module namespace f = "films" at "{FILM_LOCATION}";
        execute at {{"xrpc://y"}} {{ f:logVisit("A") }}
        """
        properties = analyze_compiled(_compile_with_module(source),
                                      has_dispatch=True)
        assert properties.sites.updating_remote
        assert properties.updating

    def test_sites_through_local_function_closure(self):
        # The analyzer counts sites reached through locally-called
        # functions too, not only the top-level body's.
        source = f"""
        import module namespace f = "films" at "{FILM_LOCATION}";
        declare function local:go($a) {{
            execute at {{"xrpc://y"}} {{ f:filmsByActor($a) }} }};
        ( local:go("A"), local:go("B") )
        """
        profile = analyze_compiled(_compile_with_module(source),
                                   has_dispatch=True).sites
        assert profile.count == 1
        assert profile.destinations == ("xrpc://y",)


class TestPeerRouting:
    """`XRPCPeer.execute_query` routes from the analyzer's site profile
    (not the old top-level-only scan)."""

    def _peers(self):
        from repro.net import SimulatedNetwork
        from repro.rpc import XRPCPeer

        network = SimulatedNetwork()
        origin = XRPCPeer("p0", network)
        server = XRPCPeer("y", network)
        for peer in (origin, server):
            peer.registry.register_source(FILM_MODULE,
                                          location=FILM_LOCATION)
        server.store.register("filmDB.xml", """<films>
            <film><name>The Rock</name><actor>A</actor></film>
            <film><name>Goldfinger</name><actor>B</actor></film>
            </films>""")
        server.store.register("log.xml", "<log/>")
        return origin, server

    def test_updating_remote_routes_to_strict_executor(self):
        origin, server = self._peers()
        result = origin.execute_query(f"""
            import module namespace f = "films" at "{FILM_LOCATION}";
            execute at {{"xrpc://y"}} {{ f:logVisit("A") }}
        """)
        assert result.fallback_reason is not None
        assert "no speculative shipping" in result.fallback_reason
        assert len(server.store.get("log.xml").root_element.children) == 1

    def test_updating_call_inside_local_function_still_caught(self):
        # Regression guard for the closure coverage: the updating remote
        # call hides inside a local function body, which the old
        # top-level profile never saw.
        origin, server = self._peers()
        result = origin.execute_query(f"""
            import module namespace f = "films" at "{FILM_LOCATION}";
            declare function local:log($a) {{
                execute at {{"xrpc://y"}} {{ f:logVisit($a) }} }};
            local:log("A")
        """)
        assert result.fallback_reason is not None
        assert "no speculative shipping" in result.fallback_reason
        assert len(server.store.get("log.xml").root_element.children) == 1

    def test_read_only_remote_results_unchanged(self):
        origin, _ = self._peers()
        result = origin.execute_query(f"""
            import module namespace f = "films" at "{FILM_LOCATION}";
            for $a in ("A", "B")
            return execute at {{"xrpc://y"}} {{ f:filmsByActor($a) }}
        """)
        assert [node.string_value() for node in result.sequence] == [
            "The Rock", "Goldfinger"]
        assert result.messages_sent == 1  # still grouped into one bulk


# ---------------------------------------------------------------------------
# Diagnostics


class TestDiagnostics:
    def _diagnostics(self, source, **kwargs):
        return analyze_compiled(CompiledQuery(source),
                                has_doc_resolver=True, **kwargs).diagnostics

    def test_unbound_variable_has_position(self):
        [diag] = self._diagnostics("1 +\n  $missing")
        assert (diag.severity, diag.code) == ("error", "XPST0008")
        assert (diag.line, diag.column) == (2, 3)
        assert "$missing" in diag.message
        assert diag.render("q.xq") == (
            "q.xq:2:3: error [XPST0008]: variable $missing is not declared")

    def test_unknown_function(self):
        [diag] = self._diagnostics("no-such-fn(1)")
        assert (diag.severity, diag.code) == ("error", "XPST0017")
        assert "no-such-fn#1" in diag.message

    def test_wrong_arity(self):
        [diag] = self._diagnostics("""
        declare function local:f($a) { $a };
        local:f(1, 2)
        """)
        assert (diag.severity, diag.code) == ("error", "XPST0017")
        assert "arity" in diag.message

    def test_undeclared_prefix(self):
        [diag] = self._diagnostics("nope:f(1)")
        assert (diag.severity, diag.code) == ("error", "XPST0081")

    def test_undeclared_prefix_in_execute_at_is_not_a_verdict(self, capsys):
        # The lifted plan resolves the remote function's name before it
        # ships, so the compiler's dry run meets this StaticError at
        # prepare time.  It is an error, not a fallback: the verdict
        # stays liftable, the diagnostic is reported, analysis and
        # `repro check` do not raise, and execution raises XPST0081.
        from repro.cli import check_main
        from repro.errors import StaticError
        source = ('for $i in (1, 2) return '
                  'execute at {"xrpc://B"} { nope:f($i) }')
        engine = Engine()
        context = ExecutionContext(
            dispatch=lambda *request: pytest.fail("shipped a call"))
        analysis = engine.analyze(engine.compile(source), context)
        assert analysis.liftable
        assert [d.code for d in analysis.diagnostics] == ["XPST0081"]
        assert check_main(["-e", source]) == 1
        assert "error [XPST0081]" in capsys.readouterr().out
        with pytest.raises(StaticError, match="XPST0081"):
            engine.execute(source, context)

    def test_remote_unknown_function_is_warning(self):
        # The peer at the destination must provide it; not an error here.
        diagnostics = analyze_compiled(
            _compile_with_module(f"""
            import module namespace f = "films" at "{FILM_LOCATION}";
            execute at {{"xrpc://y"}} {{ f:somethingNew("A") }}
            """), has_dispatch=True).diagnostics
        [diag] = [d for d in diagnostics if d.code == "XPST0017"]
        assert diag.severity == "warning"

    def test_clean_query_has_no_diagnostics(self):
        assert self._diagnostics("doc('r.xml')//item") == ()

    def test_external_variable_declared_not_a_diagnostic(self):
        # XPST0008 is about *declaration*: a declared-external variable
        # never trips it, bound or not.  Whether a binding will be
        # present at run time is the liftability predictor's concern.
        source = "declare variable $who external; $who"
        assert self._diagnostics(source, variables={"who"}) == ()
        assert self._diagnostics(source, variables=set()) == ()
        unbound = analyze_compiled(CompiledQuery(source),
                                   has_doc_resolver=True, variables=set())
        assert unbound.fallback_code == "unbound-variable"


# ---------------------------------------------------------------------------
# Surfacing: Explain and the prepared-query property


class TestSurfacing:
    def test_explain_carries_analysis(self):
        engine = Engine()
        _, explain = engine.execute("doc('r.xml')//item", _context())
        assert explain.analysis is not None
        assert explain.analysis.liftable
        assert "analysis: liftable=yes" in explain.render()

    def test_explain_analysis_on_fallback(self):
        engine = Engine()
        _, explain = engine.execute("count(doc('r.xml')//item)",
                                    _context())
        assert explain.plan == "interpreter"
        assert "analysis: liftable=no [function-not-lifted]" \
            in explain.render()

    def test_prepared_query_analysis(self):
        from repro.session import Database
        db = Database()
        db.register("r.xml",
                    "<root><item>x</item></root>")
        prepared = db.prepare("doc('r.xml')//item")
        assert prepared.analysis.liftable
        assert not prepared.analysis.updating

    def test_analysis_memoized_on_compiled_query(self):
        engine = Engine()  # plan cache on
        engine.execute("doc('r.xml')//item", _context())
        compiled, _, cache_hit = engine.compile_with_stats(
            "doc('r.xml')//item")
        assert cache_hit
        first = analyze_compiled(compiled, has_doc_resolver=True,
                                 variables=set())
        second = analyze_compiled(compiled, has_doc_resolver=True,
                                  variables=set())
        assert first is second


# ---------------------------------------------------------------------------
# Property-based agreement: random queries, index warm and cold


_tags = st.sampled_from(["item", "sec", "root", "nothere"])
_axes = st.sampled_from(["", "ancestor::", "following::",
                         "preceding-sibling::", "self::"])
_predicates = st.sampled_from(["", "[1]", "[last()]", "[@v = 'a']",
                               "[position() >= 2]"])


@st.composite
def random_queries(draw):
    """Small queries spanning lifted paths, FLWORs, fallback functions
    and clauses, and dynamic-risk arithmetic."""
    kind = draw(st.sampled_from(
        ["path", "flwor", "function", "orderby", "arith", "constructor"]))
    steps = "/".join(
        draw(_axes) + draw(_tags) + draw(_predicates)
        for _ in range(draw(st.integers(1, 3))))
    path = f"doc('r.xml')//{steps}"
    if kind == "path":
        return path
    if kind == "flwor":
        predicate = draw(_predicates)
        return f"for $x in {path} return $x{predicate or ''}"
    if kind == "function":
        fn = draw(st.sampled_from(["count", "sum", "string", "not"]))
        return f"{fn}({path})"
    if kind == "orderby":
        return f"for $x in {path} order by $x return $x"
    if kind == "arith":
        left = draw(st.integers(0, 9))
        right = draw(st.integers(1, 9))
        op = draw(st.sampled_from(["+", "-", "*"]))
        return f"{left} {op} {right}"
    return f"<out>{{ {path} }}</out>"


def _agrees_or_skips(source, warm):
    # Generated queries may raise genuine dynamic/type errors (e.g.
    # fn:string over two items) — correct behavior for *both*
    # pipelines and outside the liftability contract, so those
    # examples are discarded rather than judged.
    from repro.errors import XRPCReproError
    try:
        assert_prediction_agrees(source, warm=warm)
    except XRPCReproError:
        assume(False)


class TestPropertyBasedAgreement:
    @given(random_queries())
    @settings(max_examples=120, deadline=None)
    def test_prediction_agrees_accelerator_on(self, source):
        _agrees_or_skips(source, warm=True)

    @given(random_queries())
    @settings(max_examples=120, deadline=None)
    def test_prediction_agrees_accelerator_off(self, source):
        _agrees_or_skips(source, warm=False)
