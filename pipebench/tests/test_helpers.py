"""Tests of the benchmark's own helpers (not of the program under test).

Run with ``python3 -m pytest pipebench/tests`` from a checkout.
"""

import asyncio
import json
import os
import subprocess
import sys
import time

import pytest

import measure
import tracer as tracer_module
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- tail percentile ----------------------------------------------------------------


def test_tail_is_highest_ladder_percentile_with_ten_samples_beyond():
    samples = list(range(1, 101))  # 100 samples
    assert measure.tail_percentile(samples) == (90.0, 90, 100)
    samples = list(range(1, 1001))
    assert measure.tail_percentile(samples) == (99.0, 990, 1000)
    samples = list(range(1, 241))  # 240 batches: p95 leaves 12 beyond
    pct, value, n = measure.tail_percentile(samples)
    assert (pct, value, n) == (95.0, 228, 240)
    assert sum(s > value for s in samples) >= measure.MIN_BEYOND


def test_tail_falls_back_to_median_when_too_few_samples():
    assert measure.tail_percentile([5, 1, 3]) == (50.0, 3, 3)


# -- spans and self time ------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


def test_self_time_subtracts_direct_children(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer_module, "_NOW", clock)
    t = Tracer()

    def leaf():
        clock.advance(2)

    def inner():
        clock.advance(3)
        traced_leaf()

    def sibling():
        clock.advance(1)

    def outer():
        clock.advance(5)
        traced_inner()
        traced_sibling()

    traced_leaf = t.wrap(leaf, "leaf")
    traced_inner = t.wrap(inner, "inner")
    traced_sibling = t.wrap(sibling, "sibling")
    t.batch = 7
    t.wrap(outer, "outer")()
    assert list(t.parents) == [-1, 0, 1, 0]
    assert list(t.batches) == [7, 7, 7, 7]
    summary = t.take()
    assert summary.names["outer"] == [1, 11, 5]
    assert summary.names["inner"] == [1, 5, 3]
    assert summary.names["leaf"] == [1, 2, 2]
    assert summary.names["sibling"] == [1, 1, 1]
    assert summary.top_ns == 11
    assert not t.names  # take() clears the spans


def test_wrapper_costs_are_subtracted_from_self_time(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer_module, "_NOW", clock)
    t = Tracer()
    t.inner_cost_ns, t.parent_cost_ns = 1.0, 2.0

    def child():
        clock.advance(10)

    def parent():
        clock.advance(20)
        traced_child()
        traced_child()
        clock.advance(4)  # the two wrappers' bookkeeping, as traced

    traced_child = t.wrap(child, "child")
    t.wrap(parent, "parent")()
    summary = t.take()
    # child: 10 - 1 inner; parent: 44 - 2*10 - 2*2 per child - 1 inner.
    assert summary.names["child"] == [2, 18.0, 18.0]
    assert summary.names["parent"] == [1, 37.0, 19.0]


def test_patches_are_restored():
    import layers
    from repro.dsms.engine import QueryEngine
    from repro.parallel import sharded

    before = (QueryEngine.insert_cols, sharded.shard_worker_main)
    t = Tracer()
    layers.install(t, worker_dir="unused")
    assert QueryEngine.insert_cols is not before[0]
    t.restore()
    assert (QueryEngine.insert_cols, sharded.shard_worker_main) == before


# -- open-loop latency under an injected stall --------------------------------------


def _serve_generator(batches, interval_s):
    """A serve-mixed generator over a small trace (no subprocess)."""
    import workloads
    from serve_loop import ServeMixed

    trace = workloads.build_trace(
        dict(duration_sec=3.0, rate_per_sec=1000.0, tcp_fraction=1.0,
             num_dest_ips=50, num_dest_ports=5),
        seed=3,
    )[: batches * 50]
    generator = ServeMixed.__new__(ServeMixed)
    generator.trace = trace
    generator.batches = [
        workloads.rows_to_cols(trace[i:i + 50]) for i in range(0, len(trace), 50)
    ]
    generator.expected = workloads.reference(
        workloads.FIG2A_SQL, trace, workloads.FIG2A_KEYS
    )
    generator.rel_tol = workloads.float_tolerance(len(trace))
    generator.interval_s = interval_s
    return generator


def test_latency_runs_from_due_time_through_an_injected_stall():
    from repro.serve import StreamServer, build_backend
    from repro.serve.server import ThreadedServer
    from repro.workloads.netflow import PACKET_SCHEMA
    from serve_loop import _Link
    from workloads import FIG2A_SQL

    interval, stall_at, stall_s = 0.01, 5, 0.15
    generator = _serve_generator(batches=40, interval_s=interval)
    backend = build_backend(FIG2A_SQL, PACKET_SCHEMA)
    original = backend.insert_cols
    calls = []

    def stalling_insert(cols):
        calls.append(1)
        if len(calls) == stall_at + 1:
            time.sleep(stall_s)
        original(cols)

    backend.insert_cols = stalling_insert

    async def drive(port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        link = _Link(reader, writer)
        welcome = await link.handshake()
        result = await generator._drive(link, welcome, os.getpid(), None)
        await link.close()
        return result

    with ThreadedServer(StreamServer(backend)) as server:
        result = asyncio.run(drive(server.port))
    assert result.failed == 0
    latencies = result.batch_s
    # The stalled batch waits out the stall; the credit window (8) lets
    # the next batches go out on schedule, so they queue behind it and
    # their latency, timed from when each was due, shows the stall
    # shrinking by one interval per batch.
    assert latencies[stall_at] >= stall_s
    for k in range(1, 8):
        assert latencies[stall_at + k] >= stall_s - k * interval - 0.005
    # Batches past the window waited for credit: system backpressure,
    # not generator lag.
    assert result.ctx["credit_wait_s"] > 0
    assert max(result.ctx["gen_lags_s"]) < interval
    assert result.invalid is None


def test_generator_lag_excludes_waiting_on_the_previous_send():
    due = [0.0, 1.0, 2.0, 3.0]
    # Batch 1 waited for credit until 2.5; batches 2 and 3 went right
    # after their predecessor finished: no lag of the generator's own.
    started = [0.0, 1.0, 2.5, 3.0]
    previous_done = [0.0, 0.1, 2.5, 2.6]
    assert measure.generator_lag(due, started, previous_done) == [0, 0, 0, 0]
    # A wake-up 0.4 late on batch 3 is the generator's own lag.
    started[3] = 3.4
    assert measure.generator_lag(due, started, previous_done)[3] == pytest.approx(0.4)


class _ScheduledRounds:
    """A stand-in workload whose rounds are invalid where told."""

    def __init__(self, invalid):
        self.invalid = list(invalid)
        self.scratch = None

    def run_round(self, round_id, tracer=None):
        from workloads import Round

        result = Round(setup_s=0.0, ingest_s=1.0, rows=1, batch_s=[0.0],
                       query_s=[0.0], cpu_s=0.0, attempted=1, failed=0)
        if round_id < len(self.invalid) and self.invalid[round_id]:
            result.invalid = "late"
        return result


def test_invalid_rounds_are_dropped_and_replaced():
    import run

    workload = _ScheduledRounds([False, True, False, True, False])
    plain, traced, dropped, _ = run.run_rounds(workload, 0.0, traced=False)
    assert len(plain) == run.MIN_ROUNDS
    assert traced == []
    assert len(dropped) == 2
    assert all(r.invalid is None for r in plain)


def test_run_stops_once_invalid_rounds_outnumber_valid_ones():
    import run

    workload = _ScheduledRounds([False] + [True] * 50)
    plain, _, dropped, _ = run.run_rounds(workload, 0.0, traced=False)
    assert len(plain) == 1
    assert len(dropped) == run.MIN_ROUNDS


def test_coverage_of_intervals():
    coverage = measure.Coverage([(0, 10), (5, 15), (20, 30)])
    assert coverage.covered(0, 40) == 25
    assert coverage.covered(12, 22) == 5
    assert coverage.covered(15, 20) == 0


# -- CPU across processes -----------------------------------------------------------


def test_cpu_is_summed_across_a_child_process():
    child = subprocess.Popen([
        sys.executable, "-c",
        "import time\n"
        "end = time.process_time() + 0.3\n"
        "while time.process_time() < end: pass\n"
        "time.sleep(30)\n",
    ])
    try:
        deadline = time.monotonic() + 20
        while measure.proc_cpu_s(child.pid) < 0.3 and time.monotonic() < deadline:
            time.sleep(0.05)
        child_cpu = measure.proc_cpu_s(child.pid)
        total = measure.self_cpu_s() + child_cpu
        assert 0.3 <= child_cpu < 1.0
        assert total >= measure.self_cpu_s() + 0.3
    finally:
        child.kill()
        child.wait()
    assert measure.proc_cpu_s(child.pid) == 0.0  # gone: nothing to read


# -- exactness oracle ---------------------------------------------------------------


def test_mismatches_allows_summation_order_only():
    from workloads import mismatches

    expected = {("a",): {"k": "a", "c": 3, "s": 1.0}}
    keys = ("k",)
    def bad(rows):
        return mismatches(rows, expected, keys, 1e-12)

    assert bad([{"k": "a", "c": 3, "s": 1.0 + 1e-15}]) == 0
    assert bad([{"k": "a", "c": 3, "s": 1.0 + 1e-9}]) == 1
    assert bad([{"k": "a", "c": 3.0, "s": 1.0}]) == 1  # int became float
    assert bad([]) == 1  # a missing group


# -- BENCHMARK.json -----------------------------------------------------------------


def test_benchmark_json_names_every_metric_the_runner_prints():
    import layers
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
