"""The engine's batched ingest kernel: bit-identity with the per-tuple path.

:meth:`QueryEngine.insert_cols` (and :meth:`insert_many`, which transposes
onto it) promises results equal to :meth:`process` of the same rows — not
approximately, but with every UDAF state seeing the same values in the
same order.  Every test here feeds the batched paths and a ``process``
reference engine the same logical stream and demands ``==`` on the
flushed results, including for sketch-backed aggregates whose internal
layout depends on the exact update order.
"""

from __future__ import annotations

import pytest

from repro.core.errors import QueryError, SchemaError
from repro.dsms.engine import QueryEngine
from repro.dsms.expressions import (
    BinaryOp,
    BooleanOp,
    Column,
    Comparison,
    Literal,
    UnaryOp,
)
from repro.dsms.parser import parse_query
from repro.dsms.schema import Field, FieldType, Schema
from repro.dsms.udaf import default_registry

SCHEMA = Schema(
    [
        Field("time", FieldType.INT),
        Field("srcIP", FieldType.STR),
        Field("destIP", FieldType.STR),
        Field("destPort", FieldType.INT),
        Field("len", FieldType.INT),
        Field("proto", FieldType.STR),
    ]
)


def make_rows(n: int = 400) -> list[tuple]:
    return [
        (
            i % 180,
            f"s{i % 5}",
            f"h{i % 17}",
            80 if i % 4 else 443,
            40 + (i * 31) % 500,
            "tcp" if i % 6 else "udp",
        )
        for i in range(n)
    ]


def to_cols(rows) -> list[list]:
    return [list(col) for col in zip(*rows)]


def engine(sql: str, **kwargs) -> QueryEngine:
    return QueryEngine(parse_query(sql, default_registry()), SCHEMA, **kwargs)


def via_process(sql: str, rows) -> QueryEngine:
    reference = engine(sql)
    for row in rows:
        reference.process(row)
    return reference


QUERIES = [
    pytest.param(
        "select tb, destIP, count(*) as c, sum(len) as s from TCP "
        "group by time/60 as tb, destIP",
        id="count-sum-grouped",
    ),
    pytest.param(
        "select destPort, min(len) as lo, max(len) as hi, "
        "avg(len) as mean from TCP where proto = 'tcp' group by destPort",
        id="where-filtered",
    ),
    pytest.param(
        "select count(*) as c, sum(len) as s from TCP",
        id="ungrouped",
    ),
    pytest.param(
        "select proto, fwd_hh(destIP, len) as hh from TCP group by proto",
        id="sketch-heavy-hitters",
    ),
    pytest.param(
        "select destIP, fwd_quantiles(len, time) as q from TCP "
        "group by destIP",
        id="sketch-quantiles",
    ),
    pytest.param(
        "select tb, count(*) as c from TCP "
        "where proto = 'tcp' and len > 100 group by time/60 as tb",
        id="boolean-where-lifted",
    ),
    pytest.param(
        # The right operand divides by zero wherever the left one is
        # false: the lifted WHERE must never evaluate it there.
        "select tb, count(*) as c from TCP "
        "where destPort != 443 and 1000 / (destPort - 443) > 2 "
        "group by time/60 as tb",
        id="boolean-where-guards-division",
    ),
]


class TestBitIdentity:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_one_batch_matches_process(self, sql):
        rows = make_rows()
        via_rows, via_cols = engine(sql), engine(sql)
        via_rows.insert_many(rows)
        via_cols.insert_cols(to_cols(rows))
        expected = via_process(sql, rows).flush()
        assert via_cols.flush() == expected
        assert via_rows.flush() == expected

    @pytest.mark.parametrize("sql", QUERIES)
    def test_chunked_and_interleaved_stream(self, sql):
        rows = make_rows(500)
        mixed = engine(sql)
        for start in range(0, len(rows), 100):
            chunk = rows[start : start + 100]
            if (start // 100) % 2:
                mixed.insert_many(chunk)
            else:
                mixed.insert_cols(to_cols(chunk))
        assert mixed.flush() == via_process(sql, rows).flush()

    def test_empty_batch_is_a_noop(self):
        one = engine(QUERIES[0].values[0])
        one.insert_cols([])
        one.insert_cols([[], [], [], [], [], []])
        assert one.flush() == []

    def test_ragged_batch_rejected(self):
        with pytest.raises(QueryError, match="ragged"):
            engine(QUERIES[0].values[0]).insert_cols(
                [[1], [], [], [], [], []]
            )


class TestRaisingBatch:
    """A batch whose expression raises, or that is malformed, ingests
    nothing: counters, groups, evictions and emissions stay as they were."""

    #: 1000 / (destPort - 443) raises on the final row only.
    ROWS = [row for row in make_rows(60) if row[3] != 443][:39] + [
        (179, "s0", "h0", 443, 40, "tcp")
    ]

    def assert_untouched(self, victim: QueryEngine) -> None:
        assert victim.tuples_processed == 0
        assert victim.tuples_selected == 0
        assert victim.low_evictions == 0
        assert victim.group_count == 0
        assert victim.flush() == []

    def feed(self, victim: QueryEngine, entry: str, rows) -> None:
        if entry == "insert_cols":
            victim.insert_cols(to_cols(rows))
        else:
            victim.insert_many(rows)

    @pytest.mark.parametrize("entry", ["insert_many", "insert_cols"])
    def test_raising_where(self, entry):
        victim = engine(
            "select destIP, count(*) as c from TCP "
            "where 1000 / (destPort - 443) > 2 group by destIP",
            low_table_size=2,
        )
        with pytest.raises(ZeroDivisionError):
            self.feed(victim, entry, self.ROWS)
        self.assert_untouched(victim)

    @pytest.mark.parametrize("entry", ["insert_many", "insert_cols"])
    def test_raising_aggregate_argument(self, entry):
        victim = engine(
            "select destIP, sum(1000 / (destPort - 443)) as s from TCP "
            "group by destIP",
            low_table_size=2,
        )
        with pytest.raises(ZeroDivisionError):
            self.feed(victim, entry, self.ROWS)
        self.assert_untouched(victim)

    @pytest.mark.parametrize("cut", [-1, 1], ids=["short", "long"])
    def test_row_arity_mismatch_rejected(self, cut):
        rows = make_rows(10)
        bad = rows[3][:cut] if cut < 0 else rows[3] + ("extra",)
        victim = engine(QUERIES[0].values[0])
        with pytest.raises(QueryError, match="fields"):
            victim.insert_many(rows[:3] + [bad] + rows[4:])
        self.assert_untouched(victim)


class TestCompileCols:
    ROWS = make_rows(50)
    COLS = to_cols(ROWS)

    def both_paths(self, expression):
        columnar = expression.compile_cols(SCHEMA)
        per_row = [expression.evaluate(row, SCHEMA) for row in self.ROWS]
        return columnar(self.COLS, len(self.ROWS)), per_row

    def test_column_is_the_input_column(self):
        out, expected = self.both_paths(Column("len"))
        assert out == expected
        assert out is self.COLS[4]  # zero-copy: the schema column itself

    def test_literal_broadcasts(self):
        out, expected = self.both_paths(Literal(7))
        assert out == expected == [7] * len(self.ROWS)

    def test_binary_ops_match_scalar_semantics(self):
        for op in ("+", "-", "*", "/", "%"):
            out, expected = self.both_paths(
                BinaryOp(op, Column("time"), Literal(60))
            )
            assert out == expected, f"op {op}"

    def test_unary_negation(self):
        out, expected = self.both_paths(UnaryOp("-", Column("len")))
        assert out == expected

    def test_comparisons(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            out, expected = self.both_paths(
                Comparison(op, Column("len"), Literal(100))
            )
            assert out == expected, f"op {op}"

    def test_boolean_op_lifted_form_matches_row_form(self):
        tcp = Comparison("=", Column("proto"), Literal("tcp"))
        big = Comparison(">", Column("len"), Literal(100))
        for expression in (
            BooleanOp("and", (tcp, big)),
            BooleanOp("or", (tcp, big)),
            BooleanOp("not", (big,)),
        ):
            out, expected = self.both_paths(expression)
            assert out == expected, expression.sql()

    def test_boolean_op_still_short_circuits(self):
        # 1000 / (destPort - 443) raises wherever destPort == 443, which
        # is exactly where the guarding operand decides the result.
        offset = BinaryOp("-", Column("destPort"), Literal(443))
        divides = Comparison(
            ">", BinaryOp("/", Literal(1000), offset), Literal(2)
        )
        for expression in (
            BooleanOp("and", (Comparison("!=", offset, Literal(0)), divides)),
            BooleanOp("or", (Comparison("=", offset, Literal(0)), divides)),
        ):
            assert 443 in self.COLS[3]
            out, expected = self.both_paths(expression)
            assert out == expected, expression.sql()

    def test_nested_tree_containing_boolean_matches_row_form(self):
        inner = BooleanOp(
            "or",
            (
                Comparison("=", Column("proto"), Literal("tcp")),
                Comparison("=", Column("proto"), Literal("udp")),
            ),
        )
        out, expected = self.both_paths(
            Comparison("=", inner, Literal(True))
        )
        assert out == expected


class TestValidateCols:
    def test_valid_batch_returns_row_count(self):
        assert SCHEMA.validate_cols(to_cols(make_rows(12))) == 12

    def test_arity_mismatch(self):
        with pytest.raises(SchemaError, match="arity"):
            SCHEMA.validate_cols([[1], ["a"]])

    def test_ragged_batch_names_the_field(self):
        cols = to_cols(make_rows(3))
        cols[4] = cols[4][:2]
        with pytest.raises(SchemaError, match="'len'"):
            SCHEMA.validate_cols(cols)

    def test_type_mismatch_names_the_field(self):
        cols = to_cols(make_rows(3))
        cols[0][1] = "not-an-int"
        with pytest.raises(SchemaError, match="'time'"):
            SCHEMA.validate_cols(cols)

    def test_empty_batch(self):
        assert SCHEMA.validate_cols([[], [], [], [], [], []]) == 0
