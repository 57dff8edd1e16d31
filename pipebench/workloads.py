"""The four benchmark workloads and the exactness oracle.

Every size, rate and seed below is a constant of its workload; only the
trace seed comes from the command line.  The program under test sees
nothing but the generated trace (as columnar batches) and the query.

A run repeats *rounds*: each round sets the system up from nothing,
replays the whole trace, answers the final query, checks the answer
against the all-RAM in-process reference, and tears the system down.
End-to-end figures summarize the rounds (see ``run.py``), so one slow
round does not move them.
"""

from __future__ import annotations

import os
import pickle
import shutil
import time
from dataclasses import dataclass, field

from repro.core.cols import rows_to_cols
from repro.dsms.engine import QueryEngine
from repro.dsms.parser import parse_query
from repro.dsms.udaf import default_registry
from repro.parallel.sharded import ShardedEngine
from repro.store import TieredStore
from repro.workloads.netflow import (
    PACKET_SCHEMA, PacketTraceConfig, PacketTraceGenerator,
)

import layers
from measure import host_probe_s, proc_cpu_s, proc_memory_kb, self_cpu_s
from tracer import Summary

_NOW = time.perf_counter

#: The forward-exponential weight of Fig. 2(a): g(t - L) with L the start
#: of the minute, alpha = 0.1 (at most e^6 within a bucket).
FWD_EXP = "exp((time % 60) * 0.1)"

#: Fig. 2(a) forward-exponential count and sum per (minute, destIP,
#: destPort).  ``where proto = 'tcp'`` spells out what ``from TCP`` means
#: on a mixed tap; on the TCP-only trace it keeps every row, but it makes
#: the engine evaluate a WHERE clause, as the paper's GSQL query would.
FIG2A_SQL = (
    f"select tb, destIP, destPort, sum({FWD_EXP}) as c, "
    f"sum(len * {FWD_EXP}) as s from TCP where proto = 'tcp' "
    "group by time/60 as tb, destIP, destPort"
)
FIG2A_KEYS = ("tb", "destIP", "destPort")

#: Per-destination count, sum and q-digest median: the sketch state is
#: what makes spilling and faulting groups expensive.
STORE_SQL = (
    "select destIP, count(*) as c, sum(len) as s, "
    "fwd_quantiles(len, 0.5) as med from TCP group by destIP"
)
STORE_KEYS = ("destIP",)

#: Rows per columnar batch on every workload.
BATCH_ROWS = 250

#: 120k TCP packets over two minutes, Zipf destinations: about 24k
#: (destIP, destPort) groups per minute against the engine's default
#: low_table_size of 4096, so low-table eviction runs all the time.
FIG2A_TRACE = dict(duration_sec=120.0, rate_per_sec=1000.0, tcp_fraction=1.0,
                   num_dest_ips=20_000, num_dest_ports=100)

#: 40k packets over 65,536 Zipf(1.1) destinations: about 8k distinct
#: groups, so a 400-group hot tier holds about 5% of them.
STORE_TRACE = dict(duration_sec=40.0, rate_per_sec=1000.0, tcp_fraction=1.0,
                   num_dest_ips=65_536, num_dest_ports=100)
STORE_HOT_GROUPS = 400
#: Small segments so the run rotates segments and compacts garbage.
STORE_SEGMENT_BYTES = 256 << 10

SHARDS = 2


def build_trace(config: dict, seed: int) -> list[tuple]:
    return PacketTraceGenerator(PacketTraceConfig(seed=seed, **config)).materialize()


def to_batches(trace: list[tuple]) -> list[list[list]]:
    return [
        rows_to_cols(trace[start:start + BATCH_ROWS])
        for start in range(0, len(trace), BATCH_ROWS)
    ]


# -- the exactness oracle -----------------------------------------------------------


def reference(sql: str, trace: list[tuple], keys: tuple) -> dict:
    """The all-RAM in-process engine's result keyed by group.

    Rows go in one at a time through ``QueryEngine.process`` (the
    reference path every batched path must match), then ``flush``.  Not
    ``run_query``: it closes a "bucket" whenever the first GROUP BY key
    changes, which splits the per-destination groups of ``STORE_SQL``.
    Computed in a forked child, which sees the trace without copying it
    and keeps the computation's memory out of this process's peak RSS.
    """

    def compute():
        engine = QueryEngine(parse_query(sql, default_registry()), PACKET_SCHEMA)
        for row in trace:
            engine.process(row)
        return {tuple(row[k] for k in keys): dict(row) for row in engine.flush()}

    return in_child(compute)


def in_child(fn):
    """Run ``fn`` in a forked child and return its pickled result."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        code = 0
        try:
            os.close(read_fd)
            data = pickle.dumps(fn())
            with os.fdopen(write_fd, "wb") as out:
                out.write(data)
        except BaseException:
            code = 1
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as source:
        data = source.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        raise RuntimeError("reference computation failed")
    return pickle.loads(data)


def mismatches(rows, expected: dict, keys: tuple, rel_tol: float) -> int:
    """Result rows that differ from the reference (missing ones included).

    Integers, strings and lists must be equal.  Floats may differ in the
    last bits only: every summed term is positive, so any summation order
    lies within ``n * 2**-53`` (relative) of the exact sum for ``n``
    terms, and ``rel_tol`` is set from the trace length.
    """
    bad = 0
    seen = 0
    for row in rows:
        want = expected.get(tuple(row[k] for k in keys))
        seen += 1
        if want is None or want.keys() != row.keys():
            bad += 1
            continue
        for alias, value in row.items():
            other = want[alias]
            if isinstance(value, float) and isinstance(other, float):
                if abs(value - other) > rel_tol * max(abs(value), abs(other)):
                    bad += 1
                    break
            elif value != other or type(value) is not type(other):
                bad += 1
                break
    return bad + max(0, len(expected) - seen)


def float_tolerance(trace_rows: int) -> float:
    return 4.0 * trace_rows * 2.0 ** -53


# -- rounds -------------------------------------------------------------------------


@dataclass
class Round:
    """What one round measured."""

    setup_s: float
    ingest_s: float
    rows: int
    batch_s: list[float]
    query_s: list[float]
    cpu_s: float
    attempted: int
    failed: int
    #: Peak resident set of system-under-test processes outside this
    #: one (servers, shard workers), KiB.
    child_rss_kb: float = 0.0
    #: Per-layer context (see layers.layer_metrics) of a traced round.
    ctx: dict = field(default_factory=dict)
    summary: Summary | None = None
    #: (attributed ns, end-to-end ns) over the round's batches.
    attribution: tuple[int, int] = (0, 0)
    #: Why the round's figures are not valid (open-loop lag), or None.
    invalid: str | None = None
    #: Host probe time around the round (see measure.host_factor).
    host_s: float = 0.0


class InProcess:
    """Shared round loop of the three in-process workloads.

    Subclasses set ``sql``/``keys``/``trace_config`` and implement
    :meth:`setup`, :meth:`final_query` and :meth:`teardown`.
    """

    sql: str
    keys: tuple
    trace_config: dict
    name: str

    def __init__(self, seed: int, scratch: str):
        self.scratch = scratch
        self.trace = build_trace(self.trace_config, seed)
        self.batches = to_batches(self.trace)
        self.expected = reference(self.sql, self.trace, self.keys)
        self.rel_tol = float_tolerance(len(self.trace))

    # Hooks -----------------------------------------------------------------------

    def setup(self, round_id: int):
        raise NotImplementedError

    def final_query(self, target) -> list:
        raise NotImplementedError

    def teardown(self, target) -> None:
        pass

    def sut_pids(self, target) -> list[int]:
        """System-under-test processes other than this one."""
        return []

    def round_context(self, target, result_rows) -> dict:
        """Engine counts of a traced round (read before teardown)."""
        return {"low_evictions": target.low_evictions, "groups": len(result_rows)}

    # Round -----------------------------------------------------------------------

    def run_round(self, round_id: int, tracer=None) -> Round:
        before = host_probe_s()
        started = _NOW()
        target = self.setup(round_id)
        setup_s = _NOW() - started
        try:
            result = self._measure(target, tracer)
        finally:
            self.teardown(target)
        result.setup_s = setup_s
        result.host_s = (before + host_probe_s()) / 2
        if tracer is not None:
            self.after_teardown(result)
        return result

    def after_teardown(self, result: Round) -> None:
        """Collect figures that exist only once the system has stopped."""

    def _measure(self, target, tracer) -> Round:
        pids = self.sut_pids(target)
        cpu0 = self_cpu_s() + sum(proc_cpu_s(pid) for pid in pids)
        rss0 = {pid: proc_memory_kb(pid)["VmRSS"] for pid in pids}
        batch_s = []
        insert = target.insert_cols
        begin = _NOW()
        for index, cols in enumerate(self.batches):
            if tracer is not None:
                tracer.batch = index
            t0 = _NOW()
            insert(cols)
            batch_s.append(_NOW() - t0)
        ingest_s = _NOW() - begin
        ingest = (
            tracer.take(durations=layers.KEEP_DURATIONS) if tracer is not None else None
        )
        extra = self.before_query(target)
        t0 = _NOW()
        rows = self.final_query(target)
        query_s = _NOW() - t0
        cpu_s = self_cpu_s() + sum(proc_cpu_s(pid) for pid in pids) - cpu0
        child_rss = sum(
            proc_memory_kb(pid)["VmHWM"] - rss0[pid] for pid in pids
        )
        failed = mismatches(rows, self.expected, self.keys, self.rel_tol)
        attempted = len(self.batches) + 1
        result = Round(
            setup_s=0.0, ingest_s=ingest_s, rows=len(self.trace),
            batch_s=batch_s, query_s=[query_s], cpu_s=cpu_s,
            attempted=attempted, failed=attempted if failed else 0,
            child_rss_kb=child_rss, ctx=extra,
        )
        if tracer is not None:
            query = tracer.take()
            result.ctx.update(self.round_context(target, rows))
            result.ctx["cold_merge_ns"] = (
                query.inclusive_ns("store.tiered.cold_key_set")
                + query.inclusive_ns("store.tiered.fault_in")
                + query.inclusive_ns("store.tiered.fault_in_miss")
            )
            # Every batch is one top-level call: the spans account for the
            # batch time measured around it up to the call's own overhead.
            result.attribution = (ingest.top_ns, sum(batch_s) * 1e9)
            result.summary = ingest.merge(query)
        return result

    def before_query(self, target) -> dict:
        """Figures read after ingest and before the final query."""
        return {}


class EngineFwdExp(InProcess):
    name = "engine-fwd-exp"
    sql = FIG2A_SQL
    keys = FIG2A_KEYS
    trace_config = FIG2A_TRACE

    def setup(self, round_id: int):
        return QueryEngine(parse_query(self.sql, default_registry()), PACKET_SCHEMA)

    def final_query(self, target) -> list:
        return target.flush()


class StoreChurn(InProcess):
    name = "store-churn"
    sql = STORE_SQL
    keys = STORE_KEYS
    trace_config = STORE_TRACE

    def setup(self, round_id: int):
        directory = os.path.join(self.scratch, f"store-{round_id}")
        store = TieredStore(
            directory, hot_groups=STORE_HOT_GROUPS,
            segment_bytes=STORE_SEGMENT_BYTES,
        )
        return QueryEngine(
            parse_query(self.sql, default_registry()), PACKET_SCHEMA, store=store
        )

    def before_query(self, target) -> dict:
        stats = target.store.stats()
        return {
            "store": stats,
            "bytes_per_group": stats["segment_bytes"] / max(1, len(self.expected)),
        }

    def final_query(self, target) -> list:
        return target.flush()

    def teardown(self, target) -> None:
        store = target.store
        store.close()
        shutil.rmtree(store.directory, ignore_errors=True)


class Sharded2Proc(InProcess):
    name = "sharded-2proc"
    sql = FIG2A_SQL
    keys = FIG2A_KEYS
    trace_config = FIG2A_TRACE
    #: Set by the traced run: where forked workers leave their summaries.
    worker_dir: str | None = None

    def setup(self, round_id: int):
        return ShardedEngine(self.sql, PACKET_SCHEMA, shards=SHARDS)

    def sut_pids(self, target) -> list[int]:
        import multiprocessing

        return [
            child.pid for child in multiprocessing.active_children()
            if child.name.startswith("repro-shard-")
        ]

    def final_query(self, target) -> list:
        return target.query()

    def teardown(self, target) -> None:
        self.shard_rows = target.close()["tuples_per_shard"]

    def round_context(self, target, result_rows) -> dict:
        return {"groups": len(result_rows)}

    def after_teardown(self, result: Round) -> None:
        # The parent packs every shipped partition: its pack bytes are
        # the bytes shipped.  Workers wrote their summaries on stop.
        result.ctx["shipped_bytes"] = result.summary.counters["cols.pack_bytes"]
        result.ctx["shard_rows"] = self.shard_rows
        for name in sorted(os.listdir(self.worker_dir)):
            path = os.path.join(self.worker_dir, name)
            result.summary.merge(layers.read_summary(path))
            os.unlink(path)
        result.ctx["low_evictions"] = result.summary.counters["engine.low_evictions"]
