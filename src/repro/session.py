"""Unified session API: one prepare/execute surface over the engines.

The paper's XRPC design assumes a single query-service surface —
compile once into the function cache, execute many times, locally or
shipped.  This module is that surface for embedders:

* :class:`Database` — register documents, prepare and execute queries.
  Every local execution goes through
  :meth:`repro.engine.base.Engine.execute`: loop-lifted relational plan
  first, tree-interpreter fallback with recorded telemetry, plans
  served from the bounded LRU plan cache.
* :class:`PreparedQuery` — the prepare-once/probe-many handle:
  ``execute()``, lazy ``iter()`` cursors, and ``explain()`` reporting
  plan kind, fallback reason and compile/execute timings.
* :class:`ExecutionContext` (re-exported from
  :mod:`repro.xquery.context`) — the single options object threaded
  through ``Engine``, ``CompiledQuery``, ``LoopLiftedQuery`` and
  ``XRPCPeer``.

A quick session::

    from repro.session import Database

    db = Database()
    db.register("films.xml", "<films><film>The Rock</film></films>")
    films = db.prepare("doc('films.xml')//film")
    films.execute()            # full result sequence
    films.explain().plan       # "lifted"
    db.stats().plan_cache_hits

``prepare``/``execute`` are thread-safe: plan- and function-cache
mutation is serialized inside the engine, and concurrent executions of
the same prepared query do not interfere (each gets a fresh dynamic
context).
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Union

from repro import obs
from repro.engine import Engine
from repro.engine.base import Explain
from repro.net.clock import WallClock
from repro.net.retry import NET_STATS, Deadline
from repro.rpc.store import DocumentStore
from repro.search.index import keyword_search
from repro.xdm.atomic import (
    AtomicValue,
    boolean,
    double,
    integer,
    string,
)
from repro.xdm.nodes import DocumentNode, Node
from repro.xquery.context import ExecutionContext
from repro.xquery.modules import ModuleRegistry

__all__ = [
    "Database",
    "DatabaseStats",
    "ExecutionContext",
    "Explain",
    "PreparedQuery",
    "to_sequence",
]


def to_sequence(value: Any) -> list:
    """Coerce a Python value into an XDM sequence (facade variable
    bindings: ``db.execute(q, pid="person0")``)."""
    if isinstance(value, list):
        return value
    if isinstance(value, (Node, AtomicValue)):
        return [value]
    if isinstance(value, bool):
        return [boolean(value)]
    if isinstance(value, int):
        return [integer(value)]
    if isinstance(value, float):
        return [double(value)]
    if isinstance(value, str):
        return [string(value)]
    raise TypeError(
        f"cannot bind a {type(value).__name__} as an XQuery variable; "
        "pass str/int/float/bool, an XDM node or atomic, or a list of those")


@dataclass
class DatabaseStats:
    """Counters of one :class:`Database` (and its engine's caches).

    ``counters`` holds the *process-wide* totals of every declared
    :class:`~repro.obs.Counters` group under namespaced ``group.name``
    keys (``updates.*``, ``parse.*``, ``search.*``, ``net.*`` — the
    README's counter table lists them): what the update path, the parse
    frontend, keyword search and the fault-tolerance layer have been
    doing, whichever database or peer in the process did it.
    ``fallback_reasons`` is the engine's per-reason histogram: stable
    :class:`~repro.pathfinder.compiler.UnsupportedExpression` code ->
    count of lifted attempts that bailed with it.
    """

    plan_cache_hits: int
    plan_cache_misses: int
    plan_cache_entries: int
    plan_cache_size: Optional[int]
    function_cache_entries: int
    executions: int
    lifted_executions: int
    interpreter_executions: int
    documents: int
    fallback_reasons: dict = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)


class PreparedQuery:
    """A query prepared against one :class:`Database`.

    Holds the compiled plan (via the engine's plan cache) and executes
    it many times with per-call variable bindings — the paper's
    compile-once/execute-many function-cache discipline, exposed
    locally.
    """

    def __init__(self, database: "Database", source: str) -> None:
        self.database = database
        self.source = source
        # Compile eagerly: preparation errors (syntax, unknown imports)
        # surface at prepare() time, not first execute.  The first
        # execution reports what *this preparation* paid, not the
        # guaranteed plan-cache hit execute() sees after prepare().
        (self.compiled,
         self._prepare_compile_seconds,
         self._prepare_cache_hit) = database.engine.compile_with_stats(source)
        self._first_run_pending = True
        self.last_explain: Optional[Explain] = None

    # -- static analysis ----------------------------------------------------

    @property
    def analysis(self):
        """The prepare-time :class:`~repro.analysis.QueryProperties` of
        this query under the database's standard execution context
        (document resolver present, no bulk dispatch): will it lift, is
        it updating, which sites does it touch, and any semantic
        diagnostics — all without executing anything."""
        context = self.database._make_context(None, {}, None)
        return self.database.engine.analyze(self.compiled, context)

    # -- execution ---------------------------------------------------------

    def execute(self, *, variables: Optional[dict] = None,
                context_item=None, timeout: Optional[float] = None,
                **bindings) -> list:
        """Run the query; returns the full XDM result sequence.

        Variables come from ``variables`` (a name → value dict) and/or
        keyword ``bindings``; plain Python values are coerced through
        :func:`to_sequence`.  Updating queries apply their pending
        update list to the database's documents before returning.

        ``timeout`` arms a wall-clock deadline budget.  A local database
        enforces it coarsely — the run is failed with
        :class:`~repro.errors.DeadlineExceeded` if the budget is
        exhausted when it returns; fine-grained enforcement
        (per-exchange socket timeouts, remote abandonment) lives in the
        distributed :class:`~repro.rpc.peer.XRPCPeer` path.
        """
        context = self.database._make_context(variables, bindings,
                                              context_item)
        deadline = None if timeout is None \
            else Deadline.after(timeout, WallClock())
        result, _ = self._run(context)
        if deadline is not None and deadline.expired():
            from repro.errors import DeadlineExceeded
            NET_STATS.bump("deadline_expired")
            raise DeadlineExceeded(
                f"query exceeded its {timeout:.3g}s deadline budget")
        return result

    def run(self, context: ExecutionContext) -> list:
        """Full-control execution under a caller-built context."""
        result, _ = self._run(context)
        return result

    def iter(self, *, variables: Optional[dict] = None,
             context_item=None, **bindings) -> Iterator:
        """Lazy cursor: execution is deferred until the first item is
        pulled, then items stream from the materialized result."""
        def cursor():
            yield from self.execute(variables=variables,
                                    context_item=context_item, **bindings)

        return cursor()

    def explain(self, *, variables: Optional[dict] = None,
                context_item=None, **bindings) -> Explain:
        """Execute and report *this call's* plan kind, fallback reason
        and timings (race-free under concurrent executions; the
        ``last_explain`` attribute is last-writer-wins)."""
        context = self.database._make_context(variables, bindings,
                                              context_item)
        _, explain = self._run(context)
        return explain

    def _run(self, context: ExecutionContext) -> tuple[list, Explain]:
        result, explain = self.database.engine.execute(self.source, context)
        with self.database._stats_lock:
            first_run = self._first_run_pending
            self._first_run_pending = False
        if first_run:
            explain = dataclasses.replace(
                explain,
                compile_seconds=self._prepare_compile_seconds,
                cache_hit=self._prepare_cache_hit)
        self.last_explain = explain
        self.database._record_execution(explain)
        return result, explain


class Database:
    """The facade: a document store plus one engine behind a single
    prepare/execute surface.

    Parameters
    ----------
    engine:
        Engine profile to execute with (default:
        :class:`~repro.engine.Engine`, the MonetDB/XQuery profile).
    registry:
        Module registry for ``import module`` resolution (defaults to
        the engine's).
    try_lifted:
        Attempt the loop-lifted relational plan before the interpreter
        (the default; ``False`` pins every query to the interpreter).
    """

    def __init__(self, engine: Optional[Engine] = None,
                 registry: Optional[ModuleRegistry] = None,
                 try_lifted: bool = True) -> None:
        self.engine = engine or Engine(registry=registry)
        self.registry = self.engine.registry
        self.store = DocumentStore()
        self.try_lifted = try_lifted
        self._stats_lock = threading.Lock()
        self.executions = 0
        self.lifted_executions = 0
        self.interpreter_executions = 0

    # -- documents / modules ----------------------------------------------

    def register(self, uri: str,
                 content: Union[str, bytes, DocumentNode]) -> DocumentNode:
        """Load (or replace) a document under *uri*; accepts XML text
        (``str``, or encoded ``bytes`` honouring the declaration/BOM) or
        a parsed tree."""
        return self.store.register(uri, content)

    def register_module(self, source: str,
                        location: Optional[str] = None) -> None:
        """Register a library module so ``import module`` resolves."""
        self.registry.register_source(source, location=location)

    # -- prepare / execute --------------------------------------------------

    def prepare(self, source: str) -> PreparedQuery:
        return PreparedQuery(self, source)

    def execute(self, source: str, *, variables: Optional[dict] = None,
                context_item=None, timeout: Optional[float] = None,
                **bindings) -> list:
        """One-shot convenience: prepare (through the plan cache) and
        execute."""
        return self.prepare(source).execute(
            variables=variables, context_item=context_item,
            timeout=timeout, **bindings)

    def iter(self, source: str, *, variables: Optional[dict] = None,
             context_item=None, **bindings) -> Iterator:
        return self.prepare(source).iter(
            variables=variables, context_item=context_item, **bindings)

    def explain(self, source: str, *, variables: Optional[dict] = None,
                context_item=None, **bindings) -> Explain:
        return self.prepare(source).explain(
            variables=variables, context_item=context_item, **bindings)

    # -- keyword search -----------------------------------------------------

    def search(self, terms, *, uri: Optional[str] = None,
               limit: Optional[int] = None, ranked: bool = False) -> list:
        """SLCA keyword search over registered documents.

        *terms* is a string or an iterable of strings; each is tokenized
        (``\\w+``, case-folded) and the query is the conjunction of all
        resulting tokens.  Hits are the smallest elements whose subtree
        (text and attribute values) contains every token and none of
        whose descendants also does — EMBANKS-style smallest lowest
        common ancestors — served from each document's lazily built
        :class:`~repro.search.index.TermIndex` posting lists.

        Results are :class:`~repro.search.index.SearchHit` records with
        ``uri`` filled; ``score`` is the term-frequency sum over the
        hit's subtree.  Default order is document registration order
        then document order within each document; ``ranked=True``
        re-sorts by descending score (stable, so ties keep that order).
        ``uri`` restricts the search to one document; ``limit`` caps the
        returned list after ordering.
        """
        if isinstance(terms, str):
            terms = [terms]
        else:
            terms = list(terms)
        uris = [uri] if uri is not None else list(self.store.uris())
        hits = []
        for document_uri in uris:
            document = self._resolve_document(document_uri)
            if document is None:
                raise KeyError(f"no document registered at {document_uri!r}")
            for hit in keyword_search(document, terms):
                hits.append(dataclasses.replace(hit, uri=document_uri))
        if ranked:
            hits.sort(key=lambda hit: -hit.score)
        if limit is not None:
            hits = hits[:limit]
        return hits

    def stats(self) -> DatabaseStats:
        cache = self.engine.cache_stats()
        with self._stats_lock:
            return DatabaseStats(
                plan_cache_hits=cache["plan_cache_hits"],
                plan_cache_misses=cache["plan_cache_misses"],
                plan_cache_entries=cache["plan_cache_entries"],
                plan_cache_size=cache["plan_cache_size"],
                function_cache_entries=cache["function_cache_entries"],
                executions=self.executions,
                lifted_executions=self.lifted_executions,
                interpreter_executions=self.interpreter_executions,
                documents=sum(1 for _ in self.store.uris()),
                fallback_reasons=self.engine.fallback_stats(),
                counters=obs.totals(),
            )

    # -- internals ---------------------------------------------------------

    def _make_context(self, variables: Optional[dict], bindings: dict,
                      context_item) -> ExecutionContext:
        merged: dict[str, list] = {}
        for name, value in {**(variables or {}), **bindings}.items():
            merged[name] = to_sequence(value)
        return ExecutionContext(
            doc_resolver=self._resolve_document,
            variables=merged or None,
            context_item=context_item,
            put_store=self.store.register,
            try_lifted=self.try_lifted,
            # Local sessions apply pending updates immediately (the
            # single-peer form of rule R_Fu); peers defer to 2PC.
            apply_updates=True,
        )

    def _resolve_document(self, uri: str) -> Optional[DocumentNode]:
        # Returns None for unknown URIs (the resolver contract both the
        # interpreter's FODC0002 path and the lifted pipeline's static
        # fallback expect), instead of the store's raising get().
        if self.store.contains(uri):
            return self.store.get(uri)
        return None

    def _record_execution(self, explain: Explain) -> None:
        with self._stats_lock:
            self.executions += 1
            if explain.plan == "lifted":
                self.lifted_executions += 1
            else:
                self.interpreter_executions += 1
