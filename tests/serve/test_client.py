"""Client-library behaviour: credits, flush, pushes, the asyncio twin."""

from __future__ import annotations

import asyncio
import contextlib
import socket
import threading

import pytest

from repro.serve import AsyncServeClient, RemoteError, ServeClient, protocol
from tests.serve.util import SQL, canon, expected_rows, make_rows, serve


@contextlib.contextmanager
def error_then_credit_server():
    """A one-connection server that rejects the first batch by sending
    ERROR and its CREDIT in a single ``sendall``, then answers BYE."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10)

    def script() -> None:
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(10)
            decoder = protocol.FrameDecoder()

            def read_frame():
                while True:
                    for frame in decoder.frames():
                        return frame
                    data = conn.recv(65536)
                    if not data:
                        return None
                    decoder.feed(data)

            assert read_frame().ftype == protocol.HELLO
            conn.sendall(protocol.encode_frame(
                protocol.WELCOME,
                {"wire_version": protocol.WIRE_VERSION, "credits": 1},
            ))
            read_frame()  # the batch to reject
            conn.sendall(
                protocol.encode_frame(
                    protocol.ERROR, {"code": "bad-rows", "message": "no"}
                )
                + protocol.encode_frame(protocol.CREDIT, {"seq": 1})
            )
            frame = read_frame()
            if frame is not None and frame.ftype == protocol.BYE:
                conn.sendall(protocol.encode_frame(protocol.GOODBYE, {}))

    thread = threading.Thread(target=script, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        thread.join(timeout=15)
        listener.close()
    assert not thread.is_alive()


class TestSyncClient:
    def test_context_manager_says_goodbye(self):
        with serve() as server:
            with ServeClient(server.host, server.port) as client:
                client.insert(make_rows(12))
                client.flush()
            # after close the server saw a clean BYE: no errors recorded
            with ServeClient(server.host, server.port) as probe:
                assert probe.stats()["server"]["errors_total"] == 0

    def test_close_reports_connection_totals(self):
        with serve() as server:
            client = ServeClient(server.host, server.port)
            client.insert(make_rows(25))
            client.flush()
            goodbye = client.close()
        assert goodbye["tuples_in"] == 25

    def test_flush_surfaces_deferred_insert_errors(self):
        with serve() as server:
            with ServeClient(server.host, server.port) as client:
                client.insert([("bad",)])
                with pytest.raises(RemoteError) as excinfo:
                    client.flush()
                assert excinfo.value.code == "bad-rows"
                # the failed batch returned its credit
                client.flush()
                assert client.credits == client.window

    def test_credit_behind_error_in_one_chunk_is_absorbed(self):
        with error_then_credit_server() as (host, port):
            with ServeClient(host, port, timeout_s=5) as client:
                client.insert([(1,)])
                with pytest.raises(RemoteError) as excinfo:
                    client.flush()
                assert excinfo.value.code == "bad-rows"
                # The CREDIT arrived in the same chunk as the ERROR: the
                # window is already whole, so this returns without a read.
                client.flush()
                assert client.credits == client.window == 1

    def test_wire_version_mismatch_raises_at_connect(self, monkeypatch):
        from repro.serve.client import _ClientCore

        def old_hello(self, schema_names):
            return {"wire_version": 0, "client": "repro"}

        monkeypatch.setattr(_ClientCore, "_hello_payload", old_hello)
        with serve() as server:
            with pytest.raises(RemoteError) as excinfo:
                ServeClient(server.host, server.port)
            assert excinfo.value.code == "wire-version"

    def test_query_sql_property(self):
        with serve() as server:
            with ServeClient(server.host, server.port) as client:
                assert "GROUP BY" in client.query_sql


class TestAsyncClient:
    def run(self, coroutine):
        return asyncio.run(coroutine)

    def test_full_surface(self):
        rows = make_rows(90)

        async def scenario(host, port):
            client = await AsyncServeClient.connect(host, port)
            for start in range(0, len(rows), 30):
                await client.insert(rows[start : start + 30])
            await client.flush()
            await client.heartbeat((9_000, 9_000.0, "", "", 0, 0, 0, ""))
            results = await client.query()
            await client.subscribe(0.01, count=2)
            pushes = await client.results(2)
            stats = await client.stats()
            goodbye = await client.close()
            return results, pushes, stats, goodbye

        with serve(shards=2) as server:
            results, pushes, stats, goodbye = self.run(
                scenario(server.host, server.port)
            )
        assert canon(results) == canon(expected_rows(SQL, rows))
        assert [p["done"] for p in pushes] == [False, True]
        assert stats["server"]["rows_total"] == len(rows)
        assert goodbye["tuples_in"] == len(rows)

    def test_async_flush_surfaces_errors(self):
        async def scenario(host, port):
            client = await AsyncServeClient.connect(host, port)
            try:
                await client.insert([(1,)])
                with pytest.raises(RemoteError) as excinfo:
                    await client.flush()
                return excinfo.value.code
            finally:
                await client.close()

        with serve() as server:
            assert self.run(scenario(server.host, server.port)) == "bad-rows"

    def test_credit_behind_error_in_one_chunk_is_absorbed(self):
        async def scenario(host, port):
            client = await AsyncServeClient.connect(host, port)
            try:
                await client.insert([(1,)])
                with pytest.raises(RemoteError) as excinfo:
                    await client.flush()
                await asyncio.wait_for(client.flush(), timeout=5)
                return excinfo.value.code, client.credits, client.window
            finally:
                await client.close()

        with error_then_credit_server() as (host, port):
            assert self.run(scenario(host, port)) == ("bad-rows", 1, 1)

    def test_results_match_sync_client(self):
        rows = make_rows(40)

        async def scenario(host, port):
            client = await AsyncServeClient.connect(host, port)
            await client.insert(rows)
            await client.flush()
            results = await client.query()
            await client.close()
            return results

        with serve() as server:
            async_rows = self.run(scenario(server.host, server.port))
            with ServeClient(server.host, server.port) as client:
                sync_rows = client.query()
        assert canon(async_rows) == canon(sync_rows)
