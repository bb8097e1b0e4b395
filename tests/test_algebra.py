"""Tests for the relational algebra of Table 1."""

import pytest

from repro.algebra import Table
from repro.xdm.atomic import integer, string


class TestBasicOps:
    def test_literal_and_len(self):
        table = Table.literal(("a", "b"), [(1, "x"), (2, "y")])
        assert len(table) == 2
        assert table.columns == ("a", "b")

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            Table(("a", "b"), [(1,)])

    def test_rows_from_outside_are_checked_and_copied(self):
        rows = [[1, "x"], [2, "y"]]
        table = Table.literal(("a", "b"), rows)
        assert table.rows == [(1, "x"), (2, "y")] and table.rows is not rows
        with pytest.raises(ValueError):
            Table.literal(("a", "b"), [(1, "x"), (2,)])

    def test_operator_results_are_well_formed_tables(self):
        # Operators build their result without the constructor's check;
        # what they hand on must be what the check would have accepted.
        table = Table(("a", "keep"), [(2, True), (1, False), (2, True)])
        other = Table(("k", "keep"), [(2, "r")])
        results = [
            table.select("keep"), table.select_eq("a", 2),
            table.project("b:a"), table.distinct(), table.union(table),
            table.join(other, "a", "k"), table.rownum("n", ["a"]),
            table.attach("c", 0), table.fun("f", lambda a: a + 1, "a"),
            table.sort("a"), table.drop("keep"),
        ]
        for result in results:
            assert result == Table(result.columns, result.rows)
            assert isinstance(result.columns, tuple)
            assert all(type(row) is tuple for row in result.rows)
            assert result.rows is not table.rows
            assert [result.col(name) for name in result.columns] \
                == list(range(len(result.columns)))

    def test_select_boolean_column(self):
        table = Table(("a", "keep"), [(1, True), (2, False), (3, True)])
        assert table.select("keep").column_values("a") == [1, 3]

    def test_select_eq(self):
        table = Table(("a",), [(1,), (2,), (1,)])
        assert len(table.select_eq("a", 1)) == 2

    def test_select_eq_atomic_values(self):
        table = Table(("item",), [(string("x"),), (string("y"),)])
        assert len(table.select_eq("item", string("x"))) == 1

    def test_project_and_rename(self):
        table = Table(("a", "b"), [(1, 2)])
        projected = table.project("b", "c:a")
        assert projected.columns == ("b", "c")
        assert projected.rows == [(2, 1)]

    def test_project_no_dedup(self):
        table = Table(("a", "b"), [(1, 1), (1, 2)])
        assert len(table.project("a")) == 2

    def test_distinct(self):
        table = Table(("a",), [(1,), (2,), (1,)])
        assert table.distinct().column_values("a") == [1, 2]

    def test_distinct_atomic_items(self):
        table = Table(("item",), [(integer(1),), (integer(1),), (integer(2),)])
        assert len(table.distinct()) == 2

    def test_union_disjoint(self):
        left = Table(("a",), [(1,)])
        right = Table(("a",), [(2,)])
        assert left.union(right).column_values("a") == [1, 2]

    def test_union_schema_mismatch(self):
        with pytest.raises(ValueError):
            Table(("a",)).union(Table(("b",)))

    def test_equi_join(self):
        left = Table(("k", "l"), [(1, "a"), (2, "b")])
        right = Table(("k2", "r"), [(1, "x"), (1, "y"), (3, "z")])
        joined = left.join(right, "k", "k2")
        assert joined.columns == ("k", "l", "r")
        assert sorted(joined.rows) == [(1, "a", "x"), (1, "a", "y")]

    def test_join_clashing_column_names(self):
        left = Table(("k", "v"), [(1, "a")])
        right = Table(("k2", "v"), [(1, "b")])
        joined = left.join(right, "k", "k2")
        assert joined.columns == ("k", "v", "v'")

    def test_attach_and_fun(self):
        table = Table(("a",), [(2,), (3,)])
        computed = table.attach("c", 10).fun("sum", lambda a, c: a + c, "a", "c")
        assert computed.column_values("sum") == [12, 13]

    def test_sort(self):
        table = Table(("a", "b"), [(2, 1), (1, 2), (1, 1)])
        assert table.sort("a", "b").rows == [(1, 1), (1, 2), (2, 1)]

    def test_drop(self):
        table = Table(("a", "b"), [(1, 2)])
        assert table.drop("a").columns == ("b",)


class TestRownum:
    def test_global_numbering(self):
        table = Table(("a",), [(30,), (10,), (20,)])
        numbered = table.rownum("n", order_by=("a",))
        # Numbers follow the a-order but rows keep their position.
        assert numbered.rows == [(30, 3), (10, 1), (20, 2)]

    def test_partitioned_numbering(self):
        # The paper's ρ with grouping column: numbers ascend from 1 in
        # each partition.
        table = Table(("iter", "pos"),
                      [(1, 10), (1, 20), (2, 10), (2, 20), (2, 30)])
        numbered = table.rownum("n", order_by=("pos",), partition_by="iter")
        assert numbered.column_values("n") == [1, 2, 1, 2, 3]

    def test_loop_lifting_q5_tables(self):
        """Section 3.1's worked example: the $x/$y/loop tables of Q5."""
        loop_s2 = Table(("iter",), [(1,), (2,), (3,), (4,)])
        x = Table(("iter", "pos", "item"),
                  [(1, 1, 10), (2, 1, 10), (3, 1, 20), (4, 1, 20)])
        y = Table(("iter", "pos", "item"),
                  [(1, 1, 100), (2, 1, 200), (3, 1, 100), (4, 1, 200)])
        # z := ($x, $y): union + renumber per iteration.
        z = x.attach("ord", 0).union(y.attach("ord", 1)) \
             .rownum("newpos", order_by=("ord", "pos"), partition_by="iter") \
             .project("iter", "pos:newpos", "item").sort("iter", "pos")
        assert z.rows == [
            (1, 1, 10), (1, 2, 100),
            (2, 1, 10), (2, 2, 200),
            (3, 1, 20), (3, 2, 100),
            (4, 1, 20), (4, 2, 200),
        ]
