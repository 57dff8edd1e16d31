"""Differential oracle: every ingest path against the per-tuple engine.

Hypothesis draws a query (WHERE clause, GROUP BY keys, aggregates), the
engine's table settings, and a stream cut into operations that mix
``insert_many``, ``insert_cols``, ``process`` and ``heartbeat``.  The
engine fed that way must emit exactly what an engine fed the same rows
one ``process`` call at a time emits: the same ``drain()`` after every
operation, the same ``flush()``, and the same statistics.  Forward decay
makes this an equality, not a tolerance: each item's weight is fixed at
arrival, so only the order of updates could change a result, and the
batched kernel promises that order.

A snapshot leg rides along: at a drawn point in the stream the engine's
``partial_state_bytes()`` is folded into a fresh engine, whose
``flush()`` must equal the engine's own flush at that point, while the
engine itself keeps ingesting and must still match the reference.  The
stream carries float keys (signed zeros, infinities), a column of mixed
str/bool/None/int/float keys, and NaN/infinite sums, so the snapshot
codec's type and bit identity is checked, not assumed.  Results are
compared by ``repr``: NaN never equals itself, and ``repr`` also tells
``1``, ``1.0`` and ``True`` apart.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsms.engine import QueryEngine
from repro.dsms.parser import parse_query
from repro.dsms.schema import Field, FieldType, Schema
from repro.dsms.udaf import default_registry

SCHEMA = Schema(
    [
        Field("time", FieldType.INT),
        Field("key", FieldType.INT),
        Field("len", FieldType.INT),
        Field("v", FieldType.INT),
        Field("x", FieldType.FLOAT),
        Field("tag", FieldType.STR),  # deliberately mixed-type values
    ]
)

_FLOATS = [0.5, 2.25, 0.0, -0.0, math.inf, -math.inf, math.nan]
_TAGS = ["a", "b", True, False, None, 1, 2.5]

_REGISTRY = default_registry()

#: WHERE clauses; the AND/OR forms guard a division by zero that only
#: row-wise short-circuit evaluation avoids.
_WHERES = st.sampled_from(
    [
        "",
        "where len > 700",
        "where v != 0 and 100 / v > 5",
        "where v = 0 or 100 / v > 5",
    ]
)

_GROUP_KEYS = [
    "time/60 as tb", "key as k", "len % 3 as lm", "x as xv", "tag as g",
]

_AGGREGATES = [
    "count(*) as c",
    "sum(len) as s",
    "min(v) as lo",
    "max(v) as hi",
    "avg(len) as mean",
    "sum(len * exp((time % 60) * 0.05)) as fwd",
    "fwd_hh(key, exp((time % 60) * 0.05)) as hh",
    "sum(x) as sx",
    "avg(x) as ax",
    "min(x) as lx",
    "max(x) as hx",
]


@st.composite
def _queries(draw) -> str:
    keys = draw(st.permutations(_GROUP_KEYS))[: draw(st.integers(0, 4))]
    aggregates = draw(
        st.lists(st.sampled_from(_AGGREGATES), min_size=1, max_size=4,
                 unique=True)
    )
    aliases = [key.split(" as ")[1] for key in keys]
    sql = f"select {', '.join(aliases + aggregates)} from S {draw(_WHERES)}"
    if keys:
        sql += " group by " + ", ".join(keys)
    return sql


@st.composite
def _streams(draw) -> list[tuple]:
    steps = draw(st.lists(st.integers(0, 40), min_size=1, max_size=60))
    rows, time = [], 1
    for step in steps:
        time += step
        rows.append(
            (
                time,
                draw(st.integers(0, 6)),
                draw(st.integers(1, 1_500)),
                draw(st.integers(-3, 3)),
                draw(st.sampled_from(_FLOATS)),
                draw(st.sampled_from(_TAGS)),
            )
        )
    return rows


@st.composite
def _operations(draw, rows: list[tuple]) -> list[tuple[str, list]]:
    """Cut ``rows`` into consecutive chunks, each with an entry point;
    heartbeats (rows ahead of the data) land between chunks."""
    operations, begin = [], 0
    while begin < len(rows):
        size = draw(st.integers(1, 16))
        entry = draw(st.sampled_from(["process", "insert_many", "insert_cols"]))
        chunk = rows[begin:begin + size]
        operations.append((entry, chunk))
        begin += size
        if draw(st.booleans()) and draw(st.booleans()):
            ahead = chunk[-1][0] + draw(st.integers(0, 90))
            operations.append(("heartbeat", [(ahead, 0, 1, 0, 0.5, "a")]))
    return operations


def _feed(engine: QueryEngine, entry: str, chunk: list[tuple]) -> None:
    if entry == "insert_many":
        engine.insert_many(chunk)
    elif entry == "insert_cols":
        engine.insert_cols([list(col) for col in zip(*chunk)])
    elif entry == "heartbeat":
        engine.heartbeat(chunk[0])
    else:
        for row in chunk:
            engine.process(row)


@given(
    sql=_queries(),
    low_table_size=st.integers(1, 16),
    two_level=st.booleans(),
    emit_on_bucket_change=st.booleans(),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_every_ingest_path_matches_process(
    sql, low_table_size, two_level, emit_on_bucket_change, data
):
    rows = data.draw(_streams(), label="rows")
    operations = data.draw(_operations(rows), label="operations")
    snapshot_at = data.draw(st.integers(0, len(operations)), label="snapshot")
    query = parse_query(sql, _REGISTRY)

    def build() -> QueryEngine:
        return QueryEngine(
            query,
            SCHEMA,
            two_level=two_level,
            low_table_size=low_table_size,
            emit_on_bucket_change=emit_on_bucket_change,
        )

    # The twin is the engine as it stands at the snapshot point.
    twin = build()
    for entry, chunk in operations[:snapshot_at]:
        _feed(twin, entry, chunk)
    twin.drain()

    def snapshot_leg(engine: QueryEngine) -> None:
        restored = build()
        restored.merge_partial(engine.partial_state_bytes())
        assert repr(restored.flush()) == repr(twin.flush())

    mixed, reference = build(), build()
    for index, (entry, chunk) in enumerate(operations):
        if index == snapshot_at:
            snapshot_leg(mixed)
        _feed(mixed, entry, chunk)
        _feed(reference, "heartbeat" if entry == "heartbeat" else "process",
              chunk)
        assert repr(mixed.drain()) == repr(reference.drain())
    if snapshot_at == len(operations):
        snapshot_leg(mixed)
    for name in ("tuples_processed", "tuples_selected", "low_evictions",
                 "group_count"):
        assert getattr(mixed, name) == getattr(reference, name), name
    assert repr(mixed.flush()) == repr(reference.flush())
