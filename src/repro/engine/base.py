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
from repro.analysis import QueryProperties, analyze_compiled
from repro.pathfinder import LoopLiftedQuery, UnsupportedExpression
from repro.xquery.context import ExecutionContext
from repro.xquery.evaluator import CompiledQuery
from repro.xquery.modules import ModuleRegistry

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
    the tree-walking fallback); ``fallback_reason`` is the
    ``UnsupportedExpression`` message — uniformly naming the offending
    AST node type — when a lifted attempt bailed, and ``None`` when the
    plan ran lifted or lifting was disabled by the caller.
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
    fallback_reason: Optional[str]
    compile_seconds: float
    execute_seconds: float
    cache_hit: bool
    fallback_code: Optional[str] = None
    counters: dict[str, int] = field(default_factory=dict)
    #: The prepare-time static analysis report (liftability prediction,
    #: updating-ness, site profile, semantic diagnostics) — memoized on
    #: the compiled query, so a plan-cache hit reattaches it for free.
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
    """The MonetDB/XQuery profile: plan + function cache (section 3.3),
    Bulk RPC (section 3.2), FLWOR join detection.

    ``execute`` is the local query-service surface: compile through the
    (bounded, thread-safe) plan cache, try the loop-lifted relational
    plan, fall back to the tree interpreter with recorded telemetry.
    :class:`~repro.session.Database` routes through it;
    :class:`~repro.rpc.XRPCPeer` composes the same steps
    (``compile_with_stats`` / ``analyze`` / ``attempt_lifted``) around
    its Bulk RPC routing.  *registry* resolves ``import module``.
    """

    #: Cache compiled queries by source text, and remember which
    #: remote-callable functions already have a translated plan — the
    #: XRPC server charges module translation by that (Table 2).
    plan_cache_enabled = True
    #: Ship loop-lifted ``execute at`` calls as Bulk RPC messages.
    bulk_rpc = True
    #: Hash-join detection in the interpreter's FLWOR evaluation.
    optimize_flwor_joins = True

    def __init__(self, registry: Optional[ModuleRegistry] = None) -> None:
        self.registry = registry or ModuleRegistry()
        self._plan_cache: OrderedDict[str, CompiledQuery] = OrderedDict()
        self._function_cache: set[tuple[str, str, int]] = set()
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
        compiled.optimize_joins = self.optimize_flwor_joins
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
        """Run a query through the lifted pipeline with interpreter
        fallback; returns ``(result, Explain)``.

        The compiled query comes from the shared plan cache and its
        static verdict (:meth:`analyze`, memoized: the lifted compiler
        over zero iterations) is consulted, not re-derived, so a
        statically-unsupported query goes to the interpreter before
        any ``execute at`` ships and without a lifted attempt; a
        *dynamic* bail (runtime positional predicate,
        non-node path item) can still occur mid-plan, so route queries
        with updating remote calls to the interpreter directly
        (``context.try_lifted = False``) if that matters.

        ``context.dispatch`` serves the lifted plan's Bulk RPC shipping;
        ``context.xrpc_handler`` serves ``execute at`` on the
        interpreter fallback (the two layers' contracts differ, see
        :class:`~repro.xquery.context.RemoteCall`).  The attempt and its
        outcome are returned as the :class:`Explain`, whose ``counters``
        are what the execution's :class:`~repro.obs.Scope` collected.
        """
        options = context if context is not None else ExecutionContext()
        self.last_plan = None
        compiled, compile_seconds, cache_hit = self.compile_with_stats(source)
        analysis = self.analyze(compiled, options)
        started = time.perf_counter()
        plan = "interpreter"
        fallback_reason = None
        fallback_code = None
        with obs.Scope() as scope:
            if options.try_lifted and analysis.liftable:
                result, fallback_reason, fallback_code = \
                    self.attempt_lifted(compiled, options)
                if fallback_reason is None:
                    plan = "lifted"
            elif options.try_lifted:
                fallback_reason = analysis.fallback_reason
                fallback_code = analysis.fallback_code
            self.record_plan(plan, fallback_reason, fallback_code)
            if plan == "interpreter":
                result, pul = compiled.run(options)
                if pul and options.apply_updates:
                    from repro.xquf.pul import apply_updates
                    apply_updates(pul)
        return result, Explain(
            plan=plan, fallback_reason=fallback_reason,
            compile_seconds=compile_seconds,
            execute_seconds=time.perf_counter() - started,
            cache_hit=cache_hit, fallback_code=fallback_code,
            counters=scope.counters, analysis=analysis)

    def analyze(self, compiled: CompiledQuery,
                context: Optional[ExecutionContext] = None,
                ) -> QueryProperties:
        """The static analysis report for *compiled* under *context*'s
        capabilities — the same call :meth:`execute` makes, so callers
        (the peer's router, ``repro check``) see exactly the properties
        execution will act on.  Memoized on the compiled query."""
        options = context if context is not None else ExecutionContext()
        return analyze_compiled(
            compiled,
            has_dispatch=options.dispatch is not None,
            has_doc_resolver=options.doc_resolver is not None,
            variables=set(options.variables or {}),
            context_item=options.context_item is not None)

    def attempt_lifted(self, compiled: CompiledQuery,
                       context: ExecutionContext,
                       ) -> tuple[Optional[list], Optional[str], Optional[str]]:
        """One lifted-plan attempt at a query whose analysis under
        *context* is ``liftable``: ``(result, None, None)`` on success,
        ``(None, fallback_reason, fallback_code)`` on a dynamic bail —
        shared by :meth:`execute` and the peer's originating path, so
        fallback handling cannot drift between them."""
        try:
            return LoopLiftedQuery(compiled, context).evaluate(), None, None
        except UnsupportedExpression as unsupported:
            return None, str(unsupported), unsupported.code

    def record_plan(self, plan: str, fallback_reason: Optional[str],
                    fallback_code: Optional[str] = None) -> None:
        """Record the most recent plan choice and bump the per-code
        fallback histogram when an attempt bailed."""
        self.last_plan = plan
        if plan == "interpreter" and fallback_reason is not None:
            code = fallback_code or "uncoded"
            with self._cache_lock:
                self._fallback_counts[code] = \
                    self._fallback_counts.get(code, 0) + 1

    # -- function cache (server-side plan cache per remote function) -------

    def function_cache_lookup(self, key: tuple[str, str, int]) -> bool:
        with self._cache_lock:
            return key in self._function_cache

    def function_cache_store(self, key: tuple[str, str, int]) -> None:
        if self.plan_cache_enabled:
            with self._cache_lock:
                self._function_cache.add(key)

    def fallback_stats(self) -> dict:
        """Per-reason fallback histogram: stable code -> count of lifted
        attempts that bailed with it since engine construction."""
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
    """The Saxon profile: recompiles everything, no native bulk
    shipping, and no FLWOR join detection — the paper-era Saxon only
    found the predicate-index join (Table 3's getPerson), which both
    profiles get via the evaluator's equality-predicate index."""

    plan_cache_enabled = False
    bulk_rpc = False
    optimize_flwor_joins = False
