"""Engine partial-state snapshots: the shard-merge half of Section VI-B.

``QueryEngine.partial_state_bytes()`` / ``merge_partial()`` are what
``repro.parallel`` ships between shard workers and the merge site, so
these tests pin down the contract: a snapshot restored into a fresh
engine and merged with the other substreams' snapshots must equal direct
single-engine ingestion, and a malformed snapshot raises ``MergeError``.
"""

from __future__ import annotations

import json
import struct

import pytest

from repro.core.cols import pack_cols, unpack_cols
from repro.core.errors import MergeError
from repro.core.merge import merge_all
from repro.dsms.engine import PARTIAL_STATE_VERSION, QueryEngine
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

COUNT_SUM_SQL = (
    "select tb, destIP, count(*) as c, sum(len) as s, min(len) as lo, "
    "max(len) as hi, avg(len) as mean from TCP "
    "group by time/60 as tb, destIP"
)


def make_rows(n: int = 200) -> list[tuple]:
    rows = []
    for i in range(n):
        rows.append(
            (
                i,
                f"s{i % 7}",
                f"h{i % 13}",
                80 if i % 3 else 443,
                50 + (i * 37) % 400,
                "tcp",
            )
        )
    return rows


def build_engine(sql: str = COUNT_SUM_SQL, **kwargs) -> QueryEngine:
    query = parse_query(sql, default_registry())
    return QueryEngine(query, SCHEMA, **kwargs)


def ingest_all(engine: QueryEngine, rows) -> QueryEngine:
    engine.insert_many(rows)
    return engine


_HEAD = struct.Struct("!BI")


def split_blob(blob: bytes) -> tuple[dict, list]:
    """A snapshot → its JSON header and its decoded columns."""
    _, size = _HEAD.unpack_from(blob, 0)
    header = json.loads(blob[_HEAD.size:_HEAD.size + size])
    cols, _, _ = unpack_cols(blob[_HEAD.size + size:])
    return header, cols


def build_blob(header: dict, cols: list | bytes,
               version: int = PARTIAL_STATE_VERSION) -> bytes:
    """Assemble a snapshot from a header and columns (or a packed body)."""
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    body = cols if isinstance(cols, bytes) else pack_cols(cols)
    return _HEAD.pack(version, len(head)) + head + body


class TestRoundTrip:
    def test_snapshot_restore_equals_direct(self):
        rows = make_rows()
        direct = ingest_all(build_engine(), rows)

        snapshot = ingest_all(build_engine(), rows).partial_state_bytes()
        restored = build_engine()
        restored.merge_partial(memoryview(snapshot))

        assert restored.flush() == direct.flush()

    def test_bytes_round_trip_equals_direct(self):
        rows = make_rows()
        direct = ingest_all(build_engine(), rows)

        blob = ingest_all(build_engine(), rows).partial_state_bytes()
        assert blob[0] == PARTIAL_STATE_VERSION
        restored = build_engine()
        restored.merge_partial(blob)

        assert restored.flush() == direct.flush()
        assert restored.tuples_processed == direct.tuples_processed

    def test_split_streams_merge_equals_union(self):
        rows = make_rows()
        whole = ingest_all(build_engine(), rows)

        shards = [build_engine() for __ in range(3)]
        for index, row in enumerate(rows):
            shards[index % 3].process(row)
        collector = build_engine()
        for shard in shards:
            collector.merge_partial(shard.partial_state_bytes())

        # count/sum/min/max/avg over integer values: exact, any partition.
        assert collector.flush() == whole.flush()

    def test_snapshot_is_non_destructive(self):
        rows = make_rows()
        engine = ingest_all(build_engine(), rows[:100])
        engine.partial_state_bytes()  # mid-stream snapshot
        engine.insert_many(rows[100:])
        assert engine.flush() == ingest_all(build_engine(), rows).flush()


class TestTwoLevelAndBuckets:
    def test_two_level_with_forced_evictions(self):
        rows = make_rows(300)
        direct = ingest_all(build_engine(low_table_size=2), rows)

        donor = ingest_all(build_engine(low_table_size=2), rows)
        assert donor.low_evictions > 0  # the snapshot drains a hot low table
        restored = build_engine(low_table_size=2)
        restored.merge_partial(donor.partial_state_bytes())

        assert restored.flush() == direct.flush()
        assert restored.low_evictions == donor.low_evictions

    def test_single_level_snapshot_matches_two_level(self):
        rows = make_rows()
        one = ingest_all(build_engine(two_level=False), rows)
        two = ingest_all(build_engine(two_level=True), rows)
        assert split_blob(one.partial_state_bytes())[1] == split_blob(
            two.partial_state_bytes()
        )[1]

    def test_open_bucket_survives_round_trip(self):
        sql = (
            "select tb, count(*) as c from TCP group by time/60 as tb"
        )
        rows = make_rows(90)  # spans bucket 0 and an open bucket 1
        direct = build_engine(sql, emit_on_bucket_change=True)
        direct.insert_many(rows)
        direct.drain()  # bucket 0 emitted pre-snapshot on both sides

        donor = build_engine(sql, emit_on_bucket_change=True)
        donor.insert_many(rows)
        donor.drain()  # bucket 0 already emitted by the donor
        restored = build_engine(sql, emit_on_bucket_change=True)
        restored.merge_partial(donor.partial_state_bytes())

        # The open bucket was adopted, not emitted: feeding the next
        # bucket's first tuple closes it exactly as in the donor.
        assert restored.drain() == []
        closer = (120, "s0", "h0", 80, 10, "tcp")
        direct.process(closer)
        restored.process(closer)
        assert restored.drain() == direct.drain()

    def test_merge_keeps_own_open_bucket(self):
        sql = "select tb, count(*) as c from TCP group by time/60 as tb"
        left = build_engine(sql, emit_on_bucket_change=True)
        left.process((130, "s0", "h0", 80, 10, "tcp"))  # bucket 2 open
        right = build_engine(sql, emit_on_bucket_change=True)
        right.process((70, "s0", "h0", 80, 10, "tcp"))  # bucket 1 open
        left.merge_partial(right.partial_state_bytes())
        # left already had a bucket: the snapshot's must not replace it.
        assert left.drain() == []
        rows = left.flush()
        assert {r["tb"]: r["c"] for r in rows} == {1: 1, 2: 1}


class TestSketchStates:
    def test_sketch_backed_aggregate_round_trip(self):
        sql = (
            "select destPort, fwd_hh(destIP, len) as hh from TCP "
            "group by destPort"
        )
        rows = make_rows(400)
        direct = ingest_all(build_engine(sql), rows)

        blob = ingest_all(build_engine(sql), rows).partial_state_bytes()
        restored = build_engine(sql)
        restored.merge_partial(blob)

        assert restored.flush() == direct.flush()

    def test_sketch_shard_merge_within_error(self):
        # SpaceSaving merge is approximate in general; on a stream small
        # enough to fit every item in the counters it is exact.
        sql = "select proto, unary_hh(destIP) as hh from TCP group by proto"
        rows = make_rows(300)
        whole = ingest_all(build_engine(sql), rows)

        shards = [build_engine(sql) for __ in range(2)]
        for index, row in enumerate(rows):
            shards[index % 2].process(row)
        collector = build_engine(sql)
        for shard in shards:
            collector.merge_partial(shard.partial_state_bytes())

        # Counts are exact; ties within equal counts may order differently
        # after a merge (heavy_hitters sorts by count only).
        merged = {r["proto"]: sorted(r["hh"]) for r in collector.flush()}
        single = {r["proto"]: sorted(r["hh"]) for r in whole.flush()}
        assert merged == single


class TestEnginesAreMergeable:
    def test_merge_all_over_engines(self):
        rows = make_rows()
        whole = ingest_all(build_engine(), rows)

        shards = [build_engine() for __ in range(4)]
        for index, row in enumerate(rows):
            shards[index % 4].process(row)
        combined = merge_all(shards)

        assert combined is shards[0]
        assert combined.flush() == whole.flush()

    def test_merge_rejects_non_engine(self):
        with pytest.raises(MergeError, match="cannot merge"):
            build_engine().merge(object())


class TestRejection:
    def test_rejects_other_query(self):
        donor = build_engine("select destIP, count(*) as c from TCP "
                             "group by destIP")
        donor.process(make_rows(1)[0])
        with pytest.raises(MergeError, match="different query"):
            build_engine().merge_partial(donor.partial_state_bytes())

    def test_rejects_other_schema(self):
        header, cols = split_blob(build_engine().partial_state_bytes())
        header["schema"] = ["a", "b"]
        with pytest.raises(MergeError, match="different schema"):
            build_engine().merge_partial(build_blob(header, cols))

    def test_rejects_rebuilt_buffer_with_other_version(self):
        header, cols = split_blob(build_engine().partial_state_bytes())
        with pytest.raises(MergeError, match="version 3"):
            build_engine().merge_partial(build_blob(header, cols, version=3))

    def test_rejects_version_one_naming_both_versions(self):
        # A version-1 (JSON body) buffer from an older build.
        old = bytes([1]) + json.dumps({"version": 1, "groups": []}).encode()
        with pytest.raises(MergeError, match=r"version 1 .*version 2"):
            build_engine().merge_partial(old)

    def test_rejects_wrong_wire_version(self):
        blob = build_engine().partial_state_bytes()
        with pytest.raises(MergeError, match="version"):
            build_engine().merge_partial(bytes([99]) + blob[1:])

    def test_rejects_empty_buffer(self):
        with pytest.raises(MergeError, match="empty"):
            build_engine().merge_partial(b"")

    def test_rejects_malformed_body(self):
        header, _ = split_blob(build_engine().partial_state_bytes())
        head = b"{not json"
        with pytest.raises(MergeError, match="malformed"):
            build_engine().merge_partial(
                _HEAD.pack(PARTIAL_STATE_VERSION, len(head)) + head
            )
        with pytest.raises(MergeError, match="malformed"):
            build_engine().merge_partial(build_blob(header, b"\x01garbage"))

    def test_incompatible_sketch_parameters_raise(self):
        sql = "select proto, fwd_hh(destIP, len) as hh from TCP group by proto"
        query_a = parse_query(sql, default_registry(hh_epsilon=0.01))
        query_b = parse_query(sql, default_registry(hh_epsilon=0.1))
        left = QueryEngine(query_a, SCHEMA)
        right = QueryEngine(query_b, SCHEMA)
        for row in make_rows(50):
            left.process(row)
            right.process(row)
        # Same query text, different sketch capacity: the summary-level
        # compatibility check must catch it at merge time.
        with pytest.raises(MergeError, match="capacity mismatch"):
            left.merge_partial(right.partial_state_bytes())


class TestCounters:
    def test_counters_accumulate(self):
        rows = make_rows()
        left = ingest_all(build_engine(), rows[:80])
        right = ingest_all(build_engine(), rows[80:])
        left.merge_partial(right.partial_state_bytes())
        assert left.tuples_processed == len(rows)
        assert left.tuples_selected == len(rows)


class TestMalformedSnapshots:
    """Snapshots arrive from outside (cluster frames, checkpoint files):
    every malformed buffer raises ``MergeError`` and nothing else."""

    def donor_blob(self, sql: str = COUNT_SUM_SQL, n: int = 40) -> bytes:
        return ingest_all(build_engine(sql), make_rows(n)).partial_state_bytes()

    def merge_or_merge_error(self, blob, sql: str = COUNT_SUM_SQL) -> None:
        engine = build_engine(sql)
        try:
            engine.merge_partial(blob)
        except MergeError:
            return
        engine.flush()  # a well-formed corruption merges cleanly

    def test_every_truncation_raises_merge_error(self):
        blob = self.donor_blob()
        for end in range(len(blob)):
            with pytest.raises(MergeError):
                build_engine().merge_partial(blob[:end])

    def test_every_corrupted_byte_is_rejected_or_merges(self):
        blob = self.donor_blob(n=20)
        for offset in range(len(blob)):
            for value in {blob[offset] ^ 0xFF, blob[offset] ^ 0x01, 0x30}:
                corrupt = bytearray(blob)
                corrupt[offset] = value
                self.merge_or_merge_error(bytes(corrupt))

    def test_corrupted_sketch_header_is_rejected_or_merges(self):
        sql = "select proto, unary_hh(destIP) as hh from TCP group by proto"
        blob = self.donor_blob(sql)
        _, size = _HEAD.unpack_from(blob, 0)
        for offset in range(_HEAD.size + size + 16):
            corrupt = bytearray(blob)
            corrupt[offset] ^= 0xFF
            self.merge_or_merge_error(bytes(corrupt), sql)

    def test_rejects_wrong_widths(self):
        header, cols = split_blob(self.donor_blob())
        header["widths"][0] = 2
        with pytest.raises(MergeError, match="widths"):
            build_engine().merge_partial(build_blob(header, cols))

    def test_rejects_wrong_group_count(self):
        header, cols = split_blob(self.donor_blob())
        header["groups"] += 1
        with pytest.raises(MergeError, match="declares"):
            build_engine().merge_partial(build_blob(header, cols))

    def test_rejects_wrong_column_count(self):
        header, cols = split_blob(self.donor_blob())
        with pytest.raises(MergeError, match="columns"):
            build_engine().merge_partial(build_blob(header, cols[:-1]))

    def test_rejects_non_integer_counter(self):
        header, cols = split_blob(self.donor_blob())
        header["tuples_in"] = True
        with pytest.raises(MergeError, match="tuples_in"):
            build_engine().merge_partial(build_blob(header, cols))

    def test_rejects_non_buffer(self):
        with pytest.raises(MergeError):
            build_engine().merge_partial({"version": 2})

    def test_rejection_leaves_engine_untouched(self):
        rows = make_rows()
        engine = ingest_all(build_engine(), rows)
        header, cols = split_blob(self.donor_blob())
        header["groups"] += 1
        with pytest.raises(MergeError):
            engine.merge_partial(build_blob(header, cols))
        assert engine.tuples_processed == len(rows)
        assert engine.flush() == ingest_all(build_engine(), rows).flush()


class TestSingleFold:
    def test_fold_equals_merge_all_with_sketch(self):
        from repro.parallel.worker import ShardPlan

        sql = (
            "select proto, count(*) as c, fwd_hh(destIP, len) as hh "
            "from TCP group by proto"
        )
        rows = make_rows(300)
        shards = [build_engine(sql) for __ in range(3)]
        for index, row in enumerate(rows):
            shards[index % 3].process(row)
        blobs = [shard.partial_state_bytes() for shard in shards]

        collectors = []
        for blob in blobs:
            collector = build_engine(sql)
            collector.merge_partial(blob)
            collectors.append(collector)
        expected = merge_all(collectors).flush()

        assert ShardPlan(sql, SCHEMA).fold(blobs) == expected
