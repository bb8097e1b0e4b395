"""Engine profiles wrapping the XQuery evaluator: :class:`Engine` is
MonetDB/XQuery, :class:`TreeEngine` is Saxon, told apart by class
attributes — a profile has no per-instance options."""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from repro import obs
from repro.analysis import (QueryProperties, analyze_compiled,
                            function_liftable)
from repro.pathfinder import LoopLiftedQuery
from repro.xquery import xast as A
from repro.xquery.context import ExecutionContext
from repro.xquery.evaluator import CompiledQuery
from repro.xquery.modules import ModuleRegistry
from repro.xquery.seqtype import Signature
from repro.xquf.pul import PendingUpdateList

#: Bound of the per-engine plan cache (LRU eviction).  Large enough that
#: any of the paper's workloads fit entirely; small enough that a
#: multi-user peer serving millions of distinct ad-hoc query texts
#: cannot grow the cache without bound.
PLAN_CACHE_SIZE = 256


@dataclass
class Explain:
    """Telemetry of one execution through the unified entry point.

    ``plan`` is the pipeline that produced the result (``"lifted"`` for
    the Pathfinder loop-lifted relational plan, ``"interpreter"`` for
    the tree-walking fallback); ``fallback_reason`` is the static
    verdict's ``UnsupportedExpression`` message — uniformly naming the
    offending AST node type — when the query is outside the lifted
    core, and ``None`` when the plan ran lifted or lifting was not a
    candidate (the caller's ``try_lifted=False``, or the profile).
    ``fallback_code`` is the matching stable code (see
    :class:`~repro.pathfinder.compiler.UnsupportedExpression`) — the
    key the engine's per-reason fallback histogram counts under.

    ``counters`` is what *this execution* did, layer by layer: the
    entries of every declared :class:`~repro.obs.Counters` group bumped
    while the execution's :class:`~repro.obs.Scope` was current, under
    namespaced ``group.name`` keys (``updates.*``, ``parse.*``,
    ``search.*``, ``net.*``; absent means zero).  Concurrent executions
    never see each other's work, and work a remote peer served is
    charged to that peer's served request, not here.
    """

    plan: str
    fallback_reason: Optional[str] = None
    compile_seconds: float = 0.0
    execute_seconds: float = 0.0
    cache_hit: bool = False
    fallback_code: Optional[str] = None
    counters: dict[str, int] = field(default_factory=dict)
    #: The prepare-time static analysis report (liftability prediction,
    #: updating-ness, site profile, semantic diagnostics) the plan choice
    #: acted on — memoized on the compiled query, so a plan-cache hit
    #: reattaches it for free; ``None`` when lifting was not a candidate.
    analysis: Optional[QueryProperties] = None

    def render(self) -> str:
        """Human-readable one-paragraph form (the CLI's --explain)."""
        lines = [f"plan: {self.plan}"]
        if self.fallback_reason:
            code = f" [{self.fallback_code}]" if self.fallback_code else ""
            lines.append(f"fallback: {self.fallback_reason}{code}")
        if self.analysis is not None:
            lines.append(self.analysis.render())
        lines.append(f"plan cache: {'hit' if self.cache_hit else 'miss'}")
        lines.append(f"compile: {self.compile_seconds * 1000.0:.3f} ms")
        lines.append(f"execute: {self.execute_seconds * 1000.0:.3f} ms")
        lines.extend(obs.render(self.counters))
        return "\n".join(lines)


class Engine:
    """The MonetDB/XQuery profile: plan + function cache (section 3.3)
    and Bulk RPC (section 3.2).

    :meth:`run` is the one plan choice: the loop-lifted relational plan
    when the profile and the static verdict allow, the tree interpreter
    with recorded telemetry otherwise.  ``execute`` is the local
    query-service surface around it (compile through the bounded,
    thread-safe plan cache, run, apply the pending updates), which
    :class:`~repro.session.Database` routes through;
    :meth:`~repro.rpc.XRPCPeer.execute_query` calls :meth:`run` too and
    commits its own way.  *registry* resolves ``import module``.
    """

    #: Cache compiled queries by source text, and keep the bound
    #: signature of every remote-callable function served — the XRPC
    #: server charges module translation by that (Table 2).
    plan_cache_enabled = True
    #: Which plan the profile runs, wherever it runs one: the loop-lifted
    #: relational plan when the static verdict allows — locally
    #: (:meth:`execute`), originating (``execute at`` ships as Bulk RPC)
    #: and serving (a Bulk RPC message is one plan) — or, when false,
    #: the tree interpreter, one call per message.
    loop_lifting = True

    def __init__(self, registry: Optional[ModuleRegistry] = None) -> None:
        self.registry = registry or ModuleRegistry()
        self._plan_cache: OrderedDict[str, CompiledQuery] = OrderedDict()
        self._function_cache: dict[tuple[str, str, int], Signature] = {}
        # compile() and the function cache may be hit concurrently (the
        # HTTP daemon is threaded; Database.prepare is documented
        # thread-safe), so cache mutation is serialized.  Parsing itself
        # runs outside the lock — concurrent misses on the same source
        # compile twice and the last insert wins, which is harmless.
        self._cache_lock = threading.Lock()
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        # Which plan the most recent execution ran ("lifted" |
        # "interpreter"); last-writer-wins under concurrency — the
        # returned Explain is the race-free surface.
        self.last_plan: Optional[str] = None
        # Per-reason fallback histogram (stable UnsupportedExpression
        # codes -> count), so retired fallbacks are visible one by one.
        self._fallback_counts: dict[str, int] = {}

    def compile(self, source: str) -> CompiledQuery:
        compiled, _, _ = self.compile_with_stats(source)
        return compiled

    def compile_with_stats(self, source: str,
                           ) -> tuple[CompiledQuery, float, bool]:
        """Compile through the plan cache; returns
        ``(compiled, compile_seconds, cache_hit)``.

        The stats come back as return values so concurrent compiles
        cannot report each other's numbers.
        """
        if self.plan_cache_enabled:
            with self._cache_lock:
                cached = self._plan_cache.get(source)
                if cached is not None:
                    self._plan_cache.move_to_end(source)
                    self.plan_cache_hits += 1
                    return cached, 0.0, True
                self.plan_cache_misses += 1
        started = time.perf_counter()
        compiled = CompiledQuery(source, self.registry)
        compile_seconds = time.perf_counter() - started
        if self.plan_cache_enabled:
            with self._cache_lock:
                self._plan_cache[source] = compiled
                self._plan_cache.move_to_end(source)
                while len(self._plan_cache) > PLAN_CACHE_SIZE:
                    self._plan_cache.popitem(last=False)
        return compiled, compile_seconds, False

    # -- the unified prepare/execute surface --------------------------------

    def execute(self, source: str,
                context: Optional[ExecutionContext] = None,
                ) -> tuple[list, Explain]:
        """Run a query through :meth:`run` and apply its pending
        updates (the single-peer form of rule R_Fu); returns
        ``(result, Explain)``, whose ``counters`` are what the
        execution's :class:`~repro.obs.Scope` collected."""
        options = context if context is not None else ExecutionContext()
        self.last_plan = None
        compiled, compile_seconds, cache_hit = self.compile_with_stats(source)
        started = time.perf_counter()
        with obs.Scope() as scope:
            result, pul, explain = self.run(compiled, options)
            if pul:
                # Looked up per call: the module's attribute is the one
                # instrumentation wraps.
                from repro.xquf.pul import apply_updates
                apply_updates(pul)
        explain.compile_seconds = compile_seconds
        explain.execute_seconds = time.perf_counter() - started
        explain.cache_hit = cache_hit
        explain.counters = scope.counters
        return result, explain

    def run(self, compiled: CompiledQuery, context: ExecutionContext,
            ) -> tuple[list, PendingUpdateList, Explain]:
        """The one plan choice of every execution, local or originating:
        returns ``(result, pending updates, Explain)`` and applies
        nothing — whoever owns the commit does.

        When the profile lifts and ``context.try_lifted`` is set, the
        memoized static verdict (:meth:`analyze`: the lifted compiler
        over zero iterations) is consulted, not re-derived: a liftable
        query runs lifted and nothing else — a data error raises the
        interpreter's XQuery error — and an unliftable one goes to the
        interpreter before any ``execute at`` ships.  Otherwise the
        interpreter runs and the returned ``analysis`` is ``None``.
        ``context.dispatch`` ships the remote calls of either plan.
        """
        analysis = None
        if self.loop_lifting and context.try_lifted:
            analysis = self.analyze(compiled, context)
        if analysis is not None and analysis.liftable:
            self.last_plan = "lifted"
            return (self.attempt_lifted(compiled, context),
                    PendingUpdateList(),
                    Explain(plan="lifted", analysis=analysis))
        self.last_plan = "interpreter"
        explain = Explain(plan="interpreter", analysis=analysis)
        if analysis is not None:
            # The per-code histogram counts every fallback one by one.
            explain.fallback_reason = analysis.fallback_reason
            explain.fallback_code = code = analysis.fallback_code or "uncoded"
            with self._cache_lock:
                self._fallback_counts[code] = \
                    self._fallback_counts.get(code, 0) + 1
        result, pul = compiled.run(context)
        return result, pul, explain

    def analyze(self, compiled: CompiledQuery,
                context: Optional[ExecutionContext] = None,
                ) -> QueryProperties:
        """The static analysis report for *compiled* under *context*'s
        capabilities — the same call :meth:`run` makes, so callers
        (``repro check``, :attr:`~repro.session.PreparedQuery.analysis`)
        see exactly the properties execution will act on.  Memoized on
        the compiled query."""
        options = context if context is not None else ExecutionContext()
        return analyze_compiled(
            compiled,
            has_dispatch=options.dispatch is not None,
            has_doc_resolver=options.doc_resolver is not None,
            variables=set(options.variables or {}),
            context_item=options.context_item is not None)

    def attempt_lifted(self, compiled: CompiledQuery,
                       context: ExecutionContext) -> list:
        """The lifted plan of a query whose analysis under *context* is
        ``liftable``.  The verdict is final, so this is the evaluation
        alone: an error on the data is the query's error."""
        return LoopLiftedQuery(compiled, context).evaluate()

    # -- function cache (server-side plan cache per remote function) -------

    def function_signature(self, key: tuple[str, str, int],
                           decl: A.FunctionDecl) -> tuple[Signature, bool]:
        """The bound signature of *decl*, served as *key* ``(module,
        function, arity)``, and whether the function cache held it.  A
        profile without a plan cache binds it afresh every time.

        The served verdict is decided here, once per binding and only
        on a profile that lifts: ``signature.liftable`` says whether a
        Bulk RPC message to *decl* runs as one loop-lifted plan
        (:func:`~repro.analysis.function_liftable`)."""
        with self._cache_lock:
            signature = self._function_cache.get(key)
        if signature is not None and signature.decl is decl:
            return signature, True
        signature = Signature(
            decl, self.loop_lifting and function_liftable(decl))
        if self.plan_cache_enabled:
            with self._cache_lock:
                self._function_cache[key] = signature
        return signature, False

    def fallback_stats(self) -> dict:
        """Per-reason fallback histogram: stable code -> count of
        executions that fell back with it since engine construction."""
        with self._cache_lock:
            return dict(self._fallback_counts)

    def cache_stats(self) -> dict:
        """Plan/function cache counters (surfaced by Database.stats())."""
        with self._cache_lock:
            return {
                "plan_cache_hits": self.plan_cache_hits,
                "plan_cache_misses": self.plan_cache_misses,
                "plan_cache_entries": len(self._plan_cache),
                "plan_cache_size": PLAN_CACHE_SIZE,
                "function_cache_entries": len(self._function_cache),
            }


class TreeEngine(Engine):
    """The Saxon profile: recompiles everything and runs the tree
    interpreter only, so it has no native bulk shipping — the two
    profiles differ by plan cache and plan alone.  The paper-era Saxon
    only found the predicate-index join (Table 3's getPerson), which
    both profiles get via the evaluator's equality-predicate index; a
    for/where join its peer and wrapper interpret as nested loops."""

    plan_cache_enabled = False
    loop_lifting = False
