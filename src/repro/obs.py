"""Counter registry and per-execution attribution scope.

Every telemetry counter in the system is declared once, in a
:class:`Counters` group next to the code that bumps it (name plus a
one-line doc), and every bump lands in two places:

* the bumping thread's shard of the exact **process-wide totals**
  (:meth:`Counters.snapshot`, :func:`totals` — what
  ``Database.stats()`` reports), and
* the thread's current :class:`Scope`, if one is open — the
  **per-execution** view (``Explain.counters``).

A scope is opened around each unit of attributable work: an originated
execution (``Engine.execute``, ``XRPCPeer.execute_query`` /
``keyword_search``) and a *served* request (``XRPCServer.handle``).
Scopes nest without leaking: work a peer serves is charged to the
served request's scope, not to whichever execution's thread happened to
carry it — so an originator reports the same counters whether the
remote peer ran on its own thread (simulated network) or on an HTTP
daemon thread.  Fan-out workers run under a scope of their own that the
issuing thread :func:`absorb`\\ s at join, so a scope is only ever
written by one thread.

There is no lock on the bump path: a thread only writes its own shard
(found by thread ident; a recycled ident continues the dead thread's
shard, which keeps the shard table bounded by the number of
concurrently live threads) and its own current scope.  Readers sum the
shards.
"""

from __future__ import annotations

from threading import get_ident
from typing import Mapping, Optional

#: Every declared group by name.
GROUPS: dict[str, "Counters"] = {}


class Scope:
    """The counter deltas of one execution (namespaced ``group.name``
    keys, only those bumped while the scope was current).

    ``with Scope() as scope:`` makes it the calling thread's current
    scope and restores the enclosing one on exit; bumps inside land in
    ``scope.counters`` only, never in the enclosing scope.
    """

    __slots__ = ("counters", "_enclosing")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self._enclosing: Optional[Scope] = None

    def __enter__(self) -> "Scope":
        state = _state()
        self._enclosing = state.scope
        state.scope = self
        return self

    def __exit__(self, *exc_info: object) -> None:
        _state().scope = self._enclosing


class _ThreadState:
    """One thread's bump targets: its totals shard and current scope."""

    __slots__ = ("totals", "scope")

    def __init__(self) -> None:
        self.totals: dict[str, int] = {}
        self.scope: Optional[Scope] = None


_THREADS: dict[int, _ThreadState] = {}


def _state() -> _ThreadState:
    ident = get_ident()
    state = _THREADS.get(ident)
    if state is None:
        # Only the thread owning `ident` ever inserts under it.
        state = _THREADS[ident] = _ThreadState()
    return state


class Counters:
    """One group of declared counters.

    *docs* maps each counter name to its one-line description; names are
    unique across all groups (the flat :meth:`snapshot` views merge
    losslessly).  Bumping an undeclared name raises ``KeyError``.
    """

    def __init__(self, group: str, docs: Mapping[str, str]) -> None:
        taken = {name for other in GROUPS.values() for name in other.docs}
        clashes = sorted(taken.intersection(docs))
        if group in GROUPS or clashes:
            raise ValueError(
                f"counter group {group!r} redeclares "
                f"{clashes or 'an existing group'}")
        self.group = group
        self.docs = dict(docs)
        self._keys = {name: f"{group}.{name}" for name in docs}
        GROUPS[group] = self

    def bump(self, name: str, count: int = 1) -> None:
        key = self._keys[name]
        state = _state()
        totals = state.totals
        totals[key] = totals.get(key, 0) + count
        scope = state.scope
        if scope is not None:
            counters = scope.counters
            counters[key] = counters.get(key, 0) + count

    def snapshot(self) -> dict[str, int]:
        """Process-wide totals of this group, keyed by bare name."""
        shards = [state.totals for state in list(_THREADS.values())]
        return {name: sum(shard.get(key, 0) for shard in shards)
                for name, key in self._keys.items()}


def groups() -> list[Counters]:
    """Every declared group, by name (so import order never shows)."""
    return [GROUPS[name] for name in sorted(GROUPS)]


def totals() -> dict[str, int]:
    """Process-wide totals of every declared counter, namespaced."""
    return {f"{group.group}.{name}": value
            for group in groups()
            for name, value in group.snapshot().items()}


def absorb(finished: Scope) -> None:
    """Charge a fan-out worker's finished scope to the calling thread's
    current scope (a no-op when none is open)."""
    scope = _state().scope
    if scope is not None:
        counters = scope.counters
        for key, count in finished.counters.items():
            counters[key] = counters.get(key, 0) + count


def render(counters: Mapping[str, int]) -> list[str]:
    """One ``group: name=value ...`` line per group with a non-zero
    entry in *counters* (namespaced keys)."""
    lines = []
    for group in groups():
        shown = [f"{name}={counters[key]}"
                 for name, key in group._keys.items() if counters.get(key)]
        if shown:
            lines.append(f"{group.group}: {' '.join(shown)}")
    return lines


def markdown_table() -> str:
    """The README's counter reference, from the declarations."""
    rows = ["| counter | meaning |", "|---|---|"]
    rows.extend(f"| `{key}` | {group.docs[name]} |"
                for group in groups()
                for name, key in group._keys.items())
    return "\n".join(rows)
