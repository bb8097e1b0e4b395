"""The Table data structure: an ``iter|pos|item`` relation.

Rows are Python tuples; ``item`` cells hold XDM items (AtomicValue or
Node) or plain Python values.  The operators that build tables are the
compiler's single-pass builders and :mod:`repro.algebra.paths`; a table
is never changed once built, like the relational plans Pathfinder emits.
"""

from __future__ import annotations


class Table:
    """An ordered relation with named columns — the loop-lifted form of
    a sequence (§3.1): ``iter|pos|item`` rows, ``(iter, pos)``-ordered
    with a dense ``pos`` per iteration, or a loop (``iter``) or map
    (``iter|iterp``) relation.

    The table holds the caller's column tuple and row list as they are,
    neither copied nor checked: every builder makes a fresh list of
    tuples whose width follows from how it was built.
    """

    __slots__ = ("columns", "rows")

    def __init__(self, columns: tuple[str, ...], rows: list[tuple]) -> None:
        self.columns = columns
        self.rows = rows

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        header = "|".join(self.columns)
        body = "\n".join(str(row) for row in self.rows[:20])
        return f"Table[{header}]\n{body}"
