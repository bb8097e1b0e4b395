"""The Table data structure and its algebra operators.

Rows are Python tuples; ``item`` cells hold XDM items (AtomicValue or
Node) or plain Python values.  Operators return new tables — the algebra
is side-effect free, like the relational plans Pathfinder emits.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

from repro.xdm.atomic import AtomicValue


def _cell_key(value: Any) -> Any:
    """Hashable ordering/grouping key for a cell."""
    if type(value) is int:  # iter/pos columns dominate; skip the checks
        return value
    if isinstance(value, AtomicValue):
        if value.is_numeric:
            return ("num", float(value.value))
        return (value.type.name, value.string_value())
    return value


class Table:
    """An ordered relation with named columns.

    Although relational semantics are set-oriented, Pathfinder plans
    maintain explicit order columns (``pos``) and the physical MonetDB
    tables are ordered; we keep rows in insertion order and expose
    :meth:`sort` for explicit ordering.
    """

    __slots__ = ("columns", "rows", "_index")

    def __init__(self, columns: Sequence[str],
                 rows: Optional[Iterable[tuple]] = None) -> None:
        self.columns = tuple(columns)
        self.rows: list[tuple] = [tuple(row) for row in (rows or [])]
        self._index = {name: i for i, name in enumerate(self.columns)}
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row width {len(row)} != column count {len(self.columns)}")

    @classmethod
    def _of(cls, columns: tuple[str, ...], rows: list[tuple]) -> "Table":
        """A table over *rows* as they are — not copied, not checked.

        For an operator's own output: a fresh list of tuples whose width
        follows from how they were built.  Anything handed in from
        outside goes through the constructor.
        """
        table = cls.__new__(cls)
        table.columns = columns
        table.rows = rows
        table._index = {name: i for i, name in enumerate(columns)}
        return table

    # -- helpers ------------------------------------------------------------

    def col(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no column {name!r} in {self.columns}")

    def column_values(self, name: str) -> list:
        index = self.col(name)
        return [row[index] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.columns == other.columns and self.rows == other.rows

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        header = "|".join(self.columns)
        body = "\n".join(str(row) for row in self.rows[:20])
        return f"Table[{header}]\n{body}"

    # -- Table 1 operators ------------------------------------------------------

    def select(self, column: str) -> "Table":
        """σ_a: keep rows whose boolean column *a* is true."""
        index = self.col(column)
        return Table._of(self.columns, [r for r in self.rows if r[index]])

    def select_eq(self, column: str, value: Any) -> "Table":
        """Convenience fusion of fun(=)+σ (constant selection)."""
        index = self.col(column)
        key = _cell_key(value)
        return Table._of(
            self.columns,
            [r for r in self.rows if _cell_key(r[index]) == key])

    def project(self, *specs: str) -> "Table":
        """π: project and possibly rename columns.

        Each spec is ``"name"`` or ``"new:old"`` (rename old → new).
        No duplicate elimination, per Table 1.
        """
        names: list[str] = []
        indices: list[int] = []
        for spec in specs:
            if ":" in spec:
                new, old = spec.split(":", 1)
            else:
                new = old = spec
            names.append(new)
            indices.append(self.col(old))
        return Table._of(tuple(names), [tuple(row[i] for i in indices)
                                        for row in self.rows])

    def distinct(self) -> "Table":
        """δ: duplicate elimination (preserving first-seen order)."""
        seen: set = set()
        rows: list[tuple] = []
        for row in self.rows:
            key = tuple(_cell_key(cell) for cell in row)
            if key not in seen:
                seen.add(key)
                rows.append(row)
        return Table._of(self.columns, rows)

    def union(self, other: "Table") -> "Table":
        """∪ (disjoint union): same schema, concatenated rows."""
        if self.columns != other.columns:
            raise ValueError(
                f"union schema mismatch: {self.columns} vs {other.columns}")
        return Table._of(self.columns, self.rows + other.rows)

    def join(self, other: "Table", left_on: str, right_on: str) -> "Table":
        """⋈: equi-join; right-side join column is dropped, clashing
        right columns get a ``'``-suffix."""
        left_index = self.col(left_on)
        right_index = other.col(right_on)
        hash_side: dict[Any, list[tuple]] = {}
        for row in other.rows:
            hash_side.setdefault(_cell_key(row[right_index]), []).append(row)
        out_columns = list(self.columns)
        keep_right = [i for i in range(len(other.columns)) if i != right_index]
        for i in keep_right:
            name = other.columns[i]
            out_columns.append(name if name not in out_columns else name + "'")
        rows: list[tuple] = []
        for row in self.rows:
            for match in hash_side.get(_cell_key(row[left_index]), ()):
                rows.append(row + tuple(match[i] for i in keep_right))
        return Table._of(tuple(out_columns), rows)

    def rownum(self, new_column: str, order_by: Sequence[str],
               partition_by: Optional[str] = None) -> "Table":
        """ρ: dense numbering 1..n by *order_by* within each partition."""
        order_indices = [self.col(name) for name in order_by]
        partition_index = self.col(partition_by) if partition_by else None
        decorated = sorted(
            range(len(self.rows)),
            key=lambda i: tuple(_cell_key(self.rows[i][j])
                                for j in order_indices))
        counters: dict[Any, int] = {}
        numbers = [0] * len(self.rows)
        for row_position in decorated:
            row = self.rows[row_position]
            partition = (_cell_key(row[partition_index])
                         if partition_index is not None else None)
            counters[partition] = counters.get(partition, 0) + 1
            numbers[row_position] = counters[partition]
        return Table._of(
            self.columns + (new_column,),
            [row + (numbers[i],) for i, row in enumerate(self.rows)])

    @classmethod
    def literal(cls, columns: Sequence[str],
                rows: Iterable[tuple]) -> "Table":
        """Literal table constructor."""
        return cls(columns, rows)

    # -- Pathfinder helpers ------------------------------------------------------

    def attach(self, column: str, value: Any) -> "Table":
        """Attach a constant column."""
        return Table._of(self.columns + (column,),
                         [row + (value,) for row in self.rows])

    def fun(self, column: str, func: Callable[..., Any],
            *input_columns: str) -> "Table":
        """Row-wise computed column."""
        indices = [self.col(name) for name in input_columns]
        return Table._of(
            self.columns + (column,),
            [row + (func(*(row[i] for i in indices)),) for row in self.rows])

    def sort(self, *order_by: str) -> "Table":
        """Explicit (stable) reordering by the given columns."""
        indices = [self.col(name) for name in order_by]
        return Table._of(self.columns, sorted(
            self.rows,
            key=lambda row: tuple(_cell_key(row[i]) for i in indices)))

    def drop(self, *columns: str) -> "Table":
        keep = [name for name in self.columns if name not in columns]
        return self.project(*keep)
