"""Tests for the cluster router frames: PARTIALS fetch and ADOPT merge.

These two frames are what lets a coordinator treat a fleet of servers as
one engine: PARTIALS pulls a node's mergeable partial-state blobs,
ADOPT folds foreign blobs into another node.  Exactness is the whole
point, so every test gates on equality with an in-process run.
"""

from __future__ import annotations

import pytest

from repro.serve import RemoteError, ServeClient, protocol
from tests.serve.util import SQL, RawConnection, canon, expected_rows, make_rows, serve


class TestPartials:
    def test_partials_is_nondestructive(self):
        rows = make_rows(120)
        with serve() as server:
            with ServeClient(server.host, server.port) as client:
                client.insert(rows)
                client.flush()
                blobs = client.partials()
                assert blobs and all(isinstance(b, bytes) for b in blobs)
                assert canon(client.query()) == canon(expected_rows(SQL, rows))

    @pytest.mark.parametrize("shards", [0, 3])
    def test_partials_fold_to_the_exact_answer(self, shards):
        from repro.parallel.worker import ShardPlan
        from repro.workloads.netflow import PACKET_SCHEMA

        rows = make_rows(200)
        plan = ShardPlan(SQL, PACKET_SCHEMA)
        with serve(shards=shards) as server:
            with ServeClient(server.host, server.port) as client:
                client.insert(rows)
                client.flush()
                blobs = client.partials()
        folded = [dict(row) for row in plan.fold(blobs)]
        assert canon(folded) == canon(expected_rows(SQL, rows))

    def test_partials_of_an_empty_server(self):
        with serve() as server:
            with ServeClient(server.host, server.port) as client:
                blobs = client.partials()
                assert isinstance(blobs, list)


class TestAdopt:
    def test_adopt_ships_state_between_servers(self):
        rows = make_rows(180)
        with serve() as donor, serve() as heir:
            with ServeClient(donor.host, donor.port) as d:
                d.insert(rows[:90])
                d.flush()
                blobs = d.partials()
            with ServeClient(heir.host, heir.port) as h:
                h.insert(rows[90:])
                h.flush()
                assert h.adopt(blobs) == len(blobs)
                merged = h.query()
        assert canon(merged) == canon(expected_rows(SQL, rows))

    def test_adopt_then_ingest_keeps_exactness(self):
        rows = make_rows(150)
        with serve() as donor, serve() as heir:
            with ServeClient(donor.host, donor.port) as d:
                d.insert(rows[:50])
                d.flush()
                blobs = d.partials()
            with ServeClient(heir.host, heir.port) as h:
                h.adopt(blobs)
                h.insert(rows[50:])
                h.flush()
                merged = h.query()
        assert canon(merged) == canon(expected_rows(SQL, rows))

    def test_malformed_adopt_is_frame_scoped(self):
        with serve() as server:
            with ServeClient(server.host, server.port) as client:
                client.insert(make_rows(40))
                client.flush()
                before = client.query()
                with pytest.raises(RemoteError) as excinfo:
                    client.adopt([b"not a partial blob"])
                assert excinfo.value.code == "bad-adopt"
                # frame-scoped: the connection and state survive
                assert canon(client.query()) == canon(before)

    def test_adopt_rejects_non_list_payload(self):
        with serve() as server:
            raw = RawConnection(server.host, server.port)
            try:
                raw.hello()
                raw.send_frame(protocol.ADOPT, {"blobs": "deadbeef"})
                frame = raw.read_frame()
                assert frame.ftype == protocol.ERROR
                assert frame.payload["code"] == "bad-adopt"
            finally:
                raw.close()


class TestUnackedRows:
    def test_unacked_rows_drains_to_zero_on_flush(self):
        rows = make_rows(60)
        with serve() as server:
            with ServeClient(server.host, server.port) as client:
                client.insert(rows)
                client.flush()
                assert client.unacked_rows == 0
                assert client.unacked_batches == []
