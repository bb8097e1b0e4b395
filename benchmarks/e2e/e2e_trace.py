"""Outside-in tracer: spans recorded around the public entry points of
each layer, installed from the harness with no edits under ``src/``.

A span is ``[name, start, end, parent, op, bytes]`` kept in one
in-memory list (``parent`` is an index into that list, ``op`` the id of
the benchmark op in flight, ``-1`` during set-up).  Spans nest through a
per-thread stack.  The loopback server handles a request on its own
thread, so a span opened there with an empty stack attaches to the
client ``net.exchange`` span in flight; with one op in flight at a time
that parent is unambiguous.

Methods are patched on their class.  Module-level functions that other
modules import by name are patched at each *using* module's binding
(``Site.module``), which is also how the one ``parse_message`` function
becomes two spans: ``soap.parse_request`` where the server uses it and
``soap.parse_response`` where the client does.
"""

from __future__ import annotations

import gc
import importlib
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

NAME, START, END, PARENT, OP, BYTES = range(6)


@dataclass(frozen=True)
class Site:
    """One wrap point: ``module.owner.attr`` (``owner`` empty for a
    module-level binding) recorded as span ``name``."""

    name: str
    module: str
    owner: str
    attr: str
    #: How many bytes the call handled, from ``(args, result)``; feeds
    #: the MB/s metrics.
    size: Optional[Callable] = None
    #: Count calls only (no clock reads): for entry points called
    #: thousands of times per op, where a span would dominate.
    count_only: bool = False
    #: The span other threads' root spans attach to.
    exchange: bool = False


class Tracer:
    def __init__(self, sites: list[Site]) -> None:
        self.sites = sites
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._exchange = -1
        self._patched: list[tuple[object, str, object]] = []
        self.gc_pauses: list[tuple[float, float, int, int]] = []
        self._gc_started = 0.0

    # -- span recording ----------------------------------------------------

    def begin(self, name: str, exchange: bool = False) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._exchange
        with self._lock:        # the server thread opens spans too
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op, 0])
        stack.append(index)
        if exchange:
            self._exchange = index
        self.spans[index][START] = time.perf_counter()
        return index

    def end(self, index: int, size: int = 0) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[BYTES] = size
        self._local.stack.pop()
        if self._exchange == index:
            self._exchange = -1

    def _wrap(self, site: Site, function: Callable) -> Callable:
        name, size, exchange = site.name, site.size, site.exchange
        if site.count_only:
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return function(*args, **kwargs)

            return counted

        def traced(*args, **kwargs):
            index = self.begin(name, exchange)
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                self.end(index, size(args, result) if size else 0)

        return traced

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        for site in self.sites:
            holder = importlib.import_module(site.module)
            if site.owner:
                holder = getattr(holder, site.owner)
            original = holder.__dict__[site.attr]
            setattr(holder, site.attr, self._wrap(site, original))
            self._patched.append((holder, site.attr, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pauses.append((self._gc_started, time.perf_counter(),
                                   info["generation"], self.op))

    # -- aggregation -------------------------------------------------------

    def totals(self, first_op: int, end_op: int) -> dict[str, dict]:
        """Per span name over ops ``first_op <= op < end_op``: calls,
        inclusive ms, self ms (duration minus what child spans cover)
        and bytes handled."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        table: dict[str, dict] = {}
        for index, span in enumerate(self.spans):
            if not first_op <= span[OP] < end_op:
                continue
            row = table.setdefault(span[NAME], {
                "calls": 0, "ms": 0.0, "self_ms": 0.0, "bytes": 0})
            duration = span[END] - span[START]
            row["calls"] += 1
            row["ms"] += duration * 1e3
            row["self_ms"] += max(duration - covered[index], 0.0) * 1e3
            row["bytes"] += span[BYTES]
        return table

    def gc_totals(self, first_op: int, end_op: int) -> tuple[float, int]:
        """``(pause ms, gen-2 collections)`` over the same op range."""
        pauses = [pause for pause in self.gc_pauses
                  if first_op <= pause[3] < end_op]
        return (sum(end - start for start, end, _, _ in pauses) * 1e3,
                sum(1 for pause in pauses if pause[2] == 2))

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
