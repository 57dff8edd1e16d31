"""The ``serve-mixed`` workload: a ``repro serve`` process, open-loop load.

The generator is this process: one TCP connection speaking the public
:mod:`repro.serve.protocol` codec on one asyncio thread.  It reads every
``CREDIT`` as it arrives, so each batch's ack time is known (the library
clients only read credits when they run out of them).  Batch ``i`` is
due at ``start + i * interval`` whether or not earlier batches were
acknowledged; its latency runs from that due time to its ``CREDIT``.
A ``QUERY`` goes out just ahead of every ``QUERY_EVERY``-th batch.
"""

from __future__ import annotations

import asyncio
import collections
import os
import signal
import subprocess
import sys
import time

from repro.serve import protocol
from repro.workloads.netflow import PACKET_SCHEMA

import layers
from measure import (
    Coverage, generator_lag, host_probe_s, percentile, proc_cpu_s, proc_memory_kb,
)
from workloads import (
    FIG2A_KEYS, FIG2A_SQL, Round, build_trace, float_tolerance, mismatches,
    reference, to_batches,
)

_NOW = time.perf_counter

#: 60k packets over 200 Zipf destinations and 10 ports: about 2k groups,
#: so an interleaved read (which serializes, merges and encodes every
#: group: about 60 ms here) stays a modest share of the server's time.
SERVE_TRACE = dict(duration_sec=60.0, rate_per_sec=1000.0, tcp_fraction=1.0,
                   num_dest_ips=200, num_dest_ports=10)

#: Offered load, rows per second (open loop): about a tenth of the
#: closed-loop served capacity of this version (about 145k rows/s
#: without reads, server and client on a 2-core 2.1 GHz x86-64 host),
#: leaving room for the reads.  It sets
#: a 20 ms batch interval: after each read the generator's own loop
#: runs a few ms late, and on a slow phase of the shared host that
#: doubles, which must stay well inside one interval (run validity).
OFFERED_ROWS_PER_S = 12_500.0
#: A QUERY goes out just ahead of every this many batches (one read per
#: 200 ms).  Each read holds the server for about 50 ms.  The batch sent
#: right behind it waits out the whole hold, so the p95 tail (the 12th
#: of a round's 240 batches, among its 24 such batches) measures the
#: read's cost on the server.  Were the read sent right after a batch,
#: the next batch would arrive one interval into the hold and wait the
#: hold minus a fixed 20 ms: a tail that moves out of proportion to
#: the server's speed, and so with the host's.
QUERY_EVERY = 10
#: A batch or query without a reply after this long counts as failed.
ACK_TIMEOUT_S = 20.0
#: Launch-to-ready limit for the server.
LAUNCH_TIMEOUT_S = 30.0

_HERE = os.path.dirname(os.path.abspath(__file__))


class ServeMixed:
    name = "serve-mixed"
    keys = FIG2A_KEYS

    def __init__(self, seed: int, scratch: str, src_dir: str):
        self.scratch = scratch
        self.src_dir = src_dir
        self.trace = build_trace(SERVE_TRACE, seed)
        self.batches = to_batches(self.trace)
        self.expected = reference(FIG2A_SQL, self.trace, self.keys)
        self.rel_tol = float_tolerance(len(self.trace))
        self.interval_s = len(self.batches[0][0]) / OFFERED_ROWS_PER_S

    def run_round(self, round_id: int, tracer=None) -> Round:
        before = host_probe_s()
        result = asyncio.run(self._round(round_id, tracer))
        result.host_s = (before + host_probe_s()) / 2
        return result

    # -- server lifecycle ---------------------------------------------------------

    def _launch(self, round_id: int, traced: bool):
        port_file = os.path.join(self.scratch, f"port-{round_id}")
        summary_path = os.path.join(self.scratch, f"server-{round_id}.json")
        serve_args = ["serve", FIG2A_SQL, "--port-file", port_file]
        if traced:
            argv = [sys.executable, os.path.join(_HERE, "launch_server.py"),
                    summary_path, *serve_args]
        else:
            argv = [sys.executable, "-m", "repro", *serve_args]
        env = dict(os.environ, PYTHONPATH=self.src_dir)
        log = open(os.path.join(self.scratch, f"server-{round_id}.log"), "wb")
        process = subprocess.Popen(argv, env=env, stdout=log, stderr=log)
        log.close()
        return process, port_file, summary_path

    @staticmethod
    def _stop(process) -> None:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=LAUNCH_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()

    async def _await_port(self, process, port_file: str) -> int:
        deadline = _NOW() + LAUNCH_TIMEOUT_S
        while _NOW() < deadline:
            if process.poll() is not None:
                raise RuntimeError(f"server exited with {process.returncode}")
            try:
                with open(port_file) as handle:
                    text = handle.read()
                if text.endswith("\n"):
                    return int(text.split()[1])
            except FileNotFoundError:
                pass
            await asyncio.sleep(0.002)
        raise RuntimeError("server did not start listening")

    # -- one round ----------------------------------------------------------------

    async def _round(self, round_id: int, tracer) -> Round:
        started = _NOW()
        process, port_file, summary_path = self._launch(round_id, tracer is not None)
        try:
            port = await self._await_port(process, port_file)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            link = _Link(reader, writer)
            welcome = await link.handshake()
            setup_s = _NOW() - started
            result = await self._drive(link, welcome, process.pid, tracer)
            result.setup_s = setup_s
            await link.close()
        finally:
            self._stop(process)
        if tracer is not None:
            self._collect_trace(result, summary_path, tracer)
        return result

    async def _drive(self, link: "_Link", welcome: dict, pid: int, tracer) -> Round:
        link.credits = int(welcome.get("credits", 1))
        batches = self.batches
        n = len(batches)
        cpu0 = proc_cpu_s(pid)
        interval = self.interval_s
        due, began, prev_done = [], [], []
        credit_wait = 0.0
        queries = []
        start = _NOW() + 0.01
        done = start
        for index, cols in enumerate(batches):
            when = start + index * interval
            delay = when - _NOW()
            if delay > 0:
                await asyncio.sleep(delay)
            now = _NOW()
            due.append(when)
            began.append(now)
            prev_done.append(done)
            if link.credits < 1:
                await link.wait_credit(ACK_TIMEOUT_S)
                credit_wait += _NOW() - now
            if link.credits < 1:
                break  # no credit within the timeout: the rest fail
            link.credits -= 1
            if tracer is not None:
                tracer.batch = index
            if (index + 1) % QUERY_EVERY == 0:
                queries.append(asyncio.ensure_future(
                    link.reply_latency(*link.send_request(protocol.QUERY, False),
                                       ACK_TIMEOUT_S)
                ))
            frame = protocol.encode_cols(cols, seq=index)
            link.writer.write(frame)
            await link.writer.drain()
            done = _NOW()
        await link.wait_acks(n, ACK_TIMEOUT_S)
        read_times = await asyncio.gather(*queries)
        ingest_end = max(link.acked.values(), default=_NOW())
        cpu_s = proc_cpu_s(pid) - cpu0
        rows = await link.result_rows(ACK_TIMEOUT_S)
        stats = await link.stats(ACK_TIMEOUT_S)
        rss_kb = proc_memory_kb(pid)["VmHWM"]

        acked = [link.acked.get(index) for index in range(n)]
        # Timed from when each batch was due, not from when it was sent:
        # a stall delays later sends too, and that wait is the system's.
        latencies = [ack - when for when, ack in zip(due, acked) if ack is not None]
        failed = sum(ack is None for ack in acked) + len(link.errors)
        failed += sum(latency is None for latency in read_times)
        if rows is None or mismatches(rows, self.expected, self.keys, self.rel_tol):
            failed = n + len(queries) + 1
        lags = generator_lag(due, began, prev_done)
        result = Round(
            setup_s=0.0, ingest_s=ingest_end - start, rows=len(self.trace),
            batch_s=latencies,
            query_s=[latency for latency in read_times if latency is not None],
            cpu_s=cpu_s, attempted=n + len(queries) + 1,
            failed=min(failed, n + len(queries) + 1), child_rss_kb=rss_kb,
        )
        # Open-loop validity: if the generator itself ran late (not held
        # back by credits) by more than a batch interval at the 99th
        # percentile, the offered load was not the schedule's.
        lag_p99 = percentile(lags, 99.0)
        if lag_p99 > interval:
            result.invalid = (
                f"generator lag p99 {lag_p99 * 1e3:.2f} ms exceeds the batch "
                f"interval {interval * 1e3:.2f} ms"
            )
        metrics = stats.get("metrics", {}).get("metrics", {})
        result.ctx = {
            "batches": n,
            "queries": len(queries) + 1,
            "credit_wait_s": credit_wait,
            "gen_lags_s": lags,
            "groups": len(rows or ()),
            "insert_frame_us_p50": _p50(metrics, "serve.frame.INSERT_COLS.us"),
            "query_frame_us_p50": _p50(metrics, "serve.frame.QUERY.us"),
            "timeline": (due, acked),
        }
        return result

    def _collect_trace(self, result: Round, summary_path: str, tracer) -> None:
        client = tracer.take(keep_top=True)
        server = layers.read_summary(summary_path)
        os.unlink(summary_path)
        # Attribution: over each batch's [due, ack] interval, the time
        # the server spent inside traced library calls (any frame: a
        # batch queued behind a read waits on the read's spans) or the
        # generator spent encoding this batch.
        due, acked = result.ctx.pop("timeline")
        server_busy = Coverage((start, end) for _, start, end, _ in server.top)
        encode = {}
        for name, start, end, batch in client.top:
            if batch >= 0 and name == "core.cols.pack":
                encode[batch] = encode.get(batch, 0) + end - start
        attributed = total = 0
        for index, (when, ack) in enumerate(zip(due, acked)):
            if ack is None:
                continue
            lo, hi = int(when * 1e9), int(ack * 1e9)
            total += hi - lo
            attributed += min(
                hi - lo, server_busy.covered(lo, hi) + encode.get(index, 0)
            )
        result.attribution = (attributed, total)
        result.ctx["low_evictions"] = server.counters["engine.low_evictions"]
        client.top.clear()
        server.top.clear()
        result.summary = server.merge(client)


def _p50(metrics: dict, name: str) -> float:
    value = metrics.get(name, {}).get("p50")
    return float(value) if value is not None else 0.0


class _Link:
    """One protocol connection with a background frame reader.

    Replies (RESULT, STATS_OK, GOODBYE) come back in request order and
    are matched to waiters FIFO.  The bodies of interleaved RESULT frames
    are not decoded: parsing them on the generator's only thread would
    delay the next batch's send, and only the final result is checked.
    """

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.credits = 0
        self.acked: dict[int, float] = {}
        self.errors: list[dict] = []
        self._credit = asyncio.Event()
        self._replies: collections.deque = collections.deque()
        self._task = None

    async def _frame(self):
        """``(arrival time, body)`` of the next frame."""
        header = await self.reader.readexactly(protocol.HEADER.size)
        (length,) = protocol.HEADER.unpack(header)
        body = await self.reader.readexactly(length)
        return _NOW(), body

    async def handshake(self) -> dict:
        self.writer.write(protocol.encode_frame(
            protocol.HELLO,
            {"wire_version": protocol.WIRE_VERSION, "client": "pipebench",
             "schema": PACKET_SCHEMA.names()},
        ))
        await self.writer.drain()
        _, body = await self._frame()
        frame = protocol.decode_frame_body(body)
        if frame.ftype != protocol.WELCOME:
            raise ConnectionError(f"handshake got {frame.name}")
        self._task = asyncio.ensure_future(self._read())
        return frame.payload

    async def _read(self) -> None:
        try:
            while True:
                now, body = await self._frame()
                if body[0] == protocol.RESULT and self._replies:
                    waiter, decode = self._replies.popleft()
                    waiter.set_result(
                        (now, protocol.decode_frame_body(body) if decode else None)
                    )
                    continue
                frame = protocol.decode_frame_body(body)
                if frame.ftype == protocol.CREDIT:
                    self.acked[frame.payload.get("seq")] = now
                    self.credits += int(frame.payload.get("credits", 1))
                    self._credit.set()
                elif frame.ftype == protocol.ERROR:
                    self.errors.append(frame.payload)
                elif self._replies:
                    self._replies.popleft()[0].set_result((now, frame))
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            for waiter, _ in self._replies:
                waiter.cancel()
            self._credit.set()

    async def _wait(self, done, timeout: float) -> None:
        deadline = _NOW() + timeout
        while not done() and _NOW() < deadline and not self._task.done():
            self._credit.clear()
            try:
                await asyncio.wait_for(self._credit.wait(), deadline - _NOW())
            except asyncio.TimeoutError:
                return

    async def wait_credit(self, timeout: float) -> None:
        await self._wait(lambda: self.credits >= 1, timeout)

    async def wait_acks(self, count: int, timeout: float) -> None:
        await self._wait(lambda: len(self.acked) >= count, timeout)

    def send_request(self, ftype: int, decode: bool = True):
        """Write one request frame now: ``(sent time, reply future)``."""
        waiter = asyncio.get_running_loop().create_future()
        self._replies.append((waiter, decode))
        sent = _NOW()
        self.writer.write(protocol.encode_frame(ftype))
        return sent, waiter

    async def _reply(self, sent: float, waiter, timeout: float):
        """``(latency_s, frame)``; ``(None, None)`` without a reply."""
        try:
            arrived, frame = await asyncio.wait_for(waiter, timeout)
        except (asyncio.TimeoutError, asyncio.CancelledError):
            return None, None
        return arrived - sent, frame

    async def _request(self, ftype: int, timeout: float, decode: bool = True):
        sent, waiter = self.send_request(ftype, decode)
        await self.writer.drain()
        return await self._reply(sent, waiter, timeout)

    async def reply_latency(self, sent: float, waiter, timeout: float):
        """Latency of one interleaved QUERY (None on failure)."""
        latency, _ = await self._reply(sent, waiter, timeout)
        return latency

    async def result_rows(self, timeout: float):
        """Decoded rows of one QUERY (None on failure)."""
        _, frame = await self._request(protocol.QUERY, timeout)
        if frame is None or frame.ftype != protocol.RESULT:
            return None
        return protocol.decode_result_rows(frame.payload.get("rows", []))

    async def stats(self, timeout: float) -> dict:
        _, frame = await self._request(protocol.STATS, timeout)
        return frame.payload if frame is not None else {}

    async def close(self) -> None:
        await self._request(protocol.BYE, ACK_TIMEOUT_S)
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        if self._task is not None:
            await self._task
