"""Which library functions a traced run wraps, and the per-layer metrics.

:func:`install` patches public functions of ``repro.dsms``,
``repro.core.cols``, ``repro.serve``, ``repro.store`` and
``repro.parallel`` with :class:`~tracer.Tracer` wrappers; the program's
files are never touched.  :func:`layer_metrics` turns a folded
:class:`~tracer.Summary` plus the counts the program reports through its
public surfaces into the ``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os

from repro import cli  # noqa: F401  (imports every module patched below)
from repro.core import cols
from repro.dsms import engine, expressions, parser, udaf
from repro.dsms.schema import Schema
from repro.parallel import routing, sharded, worker
from repro.serve import backend, protocol
from repro.store import directory, segment, tiered

from measure import median, percentile
from tracer import Summary, Tracer

#: Every per-layer metric, in BENCHMARK.json order: (name, unit).
PER_LAYER = (
    ("dsms.expressions.where_ns_per_row", "ns/row"),
    ("dsms.expressions.key_ns_per_row", "ns/row"),
    ("dsms.expressions.arg_ns_per_row", "ns/row"),
    ("dsms.engine.insert_cols_self_ns_per_row", "ns/row"),
    ("dsms.engine.low_evictions_per_krow", "1/krow"),
    ("dsms.engine.groups", "count"),
    ("dsms.udaf.update_ns_per_row", "ns/row"),
    ("dsms.udaf.update_many_ns_per_row", "ns/row"),
    ("dsms.udaf.rows_per_call", "rows"),
    ("dsms.udaf.merge_calls_per_krow", "1/krow"),
    ("dsms.engine.flush_ms", "ms"),
    ("dsms.engine.merge_partial_ms", "ms"),
    ("core.cols.pack_ns_per_row", "ns/row"),
    ("core.cols.unpack_ns_per_row", "ns/row"),
    ("core.cols.bytes_per_row", "B/row"),
    ("dsms.schema.validate_cols_ns_per_row", "ns/row"),
    ("serve.client.credit_wait_ms_per_batch", "ms"),
    ("serve.server.insert_cols_frame_us_p50", "us"),
    ("serve.server.query_frame_us_p50", "us"),
    ("serve.protocol.result_encode_ms", "ms"),
    ("serve.protocol.result_decode_ms", "ms"),
    ("workloads.gen_lag_p99_ms", "ms"),
    ("store.tiered.observe_batch_ns_per_row", "ns/row"),
    ("store.tiered.fault_in_us_p50", "us"),
    ("store.tiered.fault_ins_per_krow", "1/krow"),
    ("store.tiered.evictions_per_krow", "1/krow"),
    ("store.tiered.hit_ratio", "ratio"),
    ("store.tiered.compactions", "count"),
    ("store.tiered.compact_ms_total", "ms"),
    ("store.tiered.cold_merge_ms", "ms"),
    ("store.segment.append_ns_per_record", "ns"),
    ("store.segment.read_us_per_record", "us"),
    ("store.segment.bytes_written_per_row", "B/row"),
    ("store.segment.bytes_per_group", "B"),
    ("store.directory.lookup_ns", "ns"),
    ("store.directory.put_ns", "ns"),
    ("parallel.routing.keys_ns_per_row", "ns/row"),
    ("parallel.sharded.ship_ns_per_row", "ns/row"),
    ("parallel.sharded.bytes_shipped_per_row", "B/row"),
    ("parallel.sharded.partial_states_ms", "ms"),
    ("parallel.sharded.shard_skew", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("host.factor", "ratio"),
)

#: Units of per-layer times, which are scaled to the reference host speed.
_TIME_UNITS = ("ns/row", "ns", "us", "ms")

#: Span names whose every duration is kept (for medians).
KEEP_DURATIONS = ("store.tiered.fault_in",)


# -- hooks (run after a wrapped call returns) ---------------------------------------


def _count_pack(tracer, index, args, result):
    tracer.counters["cols.pack_bytes"] += len(result)


def _count_update_many(tracer, index, args, result):
    tracer.counters["udaf.update_many_rows"] += len(args[2])


def _frame_batch(tracer, index, args, result):
    # The server decodes each frame before handling it: an INSERT_COLS
    # frame's client seq becomes the batch id of every span its handling
    # records; any other frame clears it.
    seq = -1
    if result.ftype == protocol.INSERT_COLS:
        seq = result.payload.get("seq", -1)
    tracer.batch = tracer.batches[index] = seq


def _fault_outcome(tracer, index, args, result):
    if result is None:
        tracer.names[index] = "store.tiered.fault_in_miss"


def _count_touches(tracer, index, args, result):
    keys = args[1]
    tracer.counters["store.touches"] += len(set(keys))


def install(tracer: Tracer, worker_dir: str | None = None) -> list:
    """Wrap every traced library function; undo with ``tracer.restore()``.

    Returns a list that collects every engine ``ShardPlan.build_engine``
    builds while the patches are in place (the serve backend's and the
    shard workers'), so their counts can be read when they finish.  With
    ``worker_dir``, shard worker processes forked while the patches are
    in place write their own span summary there when they stop.
    """
    tracer.calibrate()
    engines: list = []

    def _keep_engine(tracer, index, args, result):
        engines.append(result)

    # dsms: engine entry points, UDAF updates, schema validation.
    for attr in ("insert_cols", "flush", "merge_partial", "partial_state_bytes"):
        tracer.patch_method(engine.QueryEngine, attr, f"dsms.engine.{attr}")
    for cls in _subclasses(udaf.Udaf):
        for attr, hook in (
            ("update", None),
            ("update_many", _count_update_many),
            ("merge", None),
        ):
            if attr in cls.__dict__:
                tracer.patch_method(cls, attr, f"dsms.udaf.{attr}", hook)
    tracer.patch_method(Schema, "validate_cols", "dsms.schema.validate_cols")

    # dsms.expressions: the columnar closures compiled for a query's WHERE
    # clause, GROUP BY keys and aggregate arguments.  parse_query records
    # each root expression's role; compile_cols wraps the closures of
    # roots (nested sub-expressions run inside their root's span).
    roles: dict[int, tuple[object, str]] = {}

    def _record_roles(tracer, index, args, query):
        if query.where is not None:
            roles[id(query.where)] = (query.where, "where")
        for group in query.group_by:
            roles[id(group.expression)] = (group.expression, "key")
        for item in query.select:
            if item.is_aggregate:
                for arg in item.aggregate.args:
                    roles[id(arg)] = (arg, "arg")

    tracer.patch_function(parser, "parse_query", "dsms.parser.parse_query",
                          _record_roles)
    for cls in _subclasses(expressions.Expression):
        if "compile_cols" in cls.__dict__:
            tracer.patch_value(
                cls, "compile_cols",
                _traced_compile(tracer, cls.__dict__["compile_cols"], roles),
            )

    # core.cols: the shared columnar codec (wire and shard transport).
    tracer.patch_function(cols, "pack_cols", "core.cols.pack", _count_pack)
    tracer.patch_function(cols, "unpack_cols", "core.cols.unpack")

    # serve: frame codec, result encoding, the single-engine backend.
    tracer.patch_function(protocol, "decode_frame_body",
                          "serve.protocol.decode_frame", _frame_batch)
    tracer.patch_function(protocol, "encode_frame", "serve.protocol.encode_frame")
    tracer.patch_function(protocol, "encode_result_rows",
                          "serve.protocol.encode_result_rows")
    tracer.patch_function(protocol, "decode_result_rows",
                          "serve.protocol.decode_result_rows")
    for attr in ("insert_cols", "query"):
        tracer.patch_method(backend.SingleEngineBackend, attr,
                            f"serve.backend.{attr}")

    # store: tiered hot/cold path, segment I/O, key directory.
    tracer.patch_method(tiered.TieredStore, "observe_batch",
                        "store.tiered.observe_batch", _count_touches)
    tracer.patch_method(tiered.TieredStore, "fault_in",
                        "store.tiered.fault_in", _fault_outcome)
    tracer.patch_method(tiered.TieredStore, "compact", "store.tiered.compact")
    tracer.patch_method(tiered.TieredStore, "encoded_states",
                        "store.tiered.encoded_states")
    tracer.patch_method(tiered.TieredStore, "cold_key_set",
                        "store.tiered.cold_key_set", generator=True)
    tracer.patch_method(segment.SegmentWriter, "append", "store.segment.append")
    tracer.patch_function(segment, "read_record", "store.segment.read")
    tracer.patch_function(segment, "read_record_at", "store.segment.read")
    tracer.patch_method(directory.KeyDirectory, "lookup",
                        "store.directory.lookup")
    tracer.patch_method(directory.KeyDirectory, "put", "store.directory.put")

    # parallel: routing, shipping, query-time state collection.
    tracer.patch_method(routing.GroupKeyRouter, "keys", "parallel.routing.keys")
    for attr in ("insert_cols", "partial_states", "query"):
        tracer.patch_method(sharded.ShardedEngine, attr,
                            f"parallel.sharded.{attr}")
    tracer.patch_method(worker.ShardPlan, "build_engine",
                        "parallel.plan.build_engine", _keep_engine)
    if worker_dir is not None:
        tracer.patch_value(
            sharded, "shard_worker_main",
            _traced_worker(tracer, sharded.shard_worker_main, worker_dir,
                           engines),
        )
    return engines


def _subclasses(cls) -> list[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _traced_compile(tracer: Tracer, original, roles):
    def compile_cols(self, schema):
        fn = original(self, schema)
        role = roles.get(id(self))
        if fn is None or role is None or role[0] is not self:
            return fn
        return tracer.wrap(fn, f"dsms.expressions.{role[1]}")

    return compile_cols


def _traced_worker(tracer: Tracer, original, worker_dir: str, engines: list):
    # Runs in a forked shard worker: drop the spans inherited from the
    # parent, run the worker loop, and leave this process's summary for
    # the parent to collect.
    def shard_worker_main(plan, shard_id, *args, **kwargs):
        tracer.reset()
        engines.clear()
        try:
            original(plan, shard_id, *args, **kwargs)
        finally:
            summary = tracer.take(durations=KEEP_DURATIONS)
            add_engine_counts(summary, engines)
            path = os.path.join(worker_dir, f"worker-{os.getpid()}.json")
            write_summary(summary, path)

    return shard_worker_main


def add_engine_counts(summary: Summary, engines: list) -> None:
    """Add the low-table evictions of engines that ingested rows."""
    for built in engines:
        summary.counters["engine.low_evictions"] += built.low_evictions


def write_summary(summary: Summary, path: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(summary.to_json(), handle)
    os.replace(tmp, path)


def read_summary(path: str) -> Summary:
    with open(path) as handle:
        return Summary.from_json(json.load(handle))


# -- per-layer metrics --------------------------------------------------------------


def layer_metrics(s: Summary, ctx: dict) -> dict[str, float]:
    """Per-layer metrics from a summary of every process of a workload.

    ``ctx`` carries what the spans cannot: ``rows`` (rows ingested over
    the traced rounds), ``rounds``, ``batches``, ``queries``, the engine
    counts (``low_evictions``, ``groups``), store statistics deltas
    (``store``), shard row counts (``shard_rows``), server frame
    quantiles (``insert_frame_us_p50``, ``query_frame_us_p50``), the
    generator figures (``credit_wait_s``, ``gen_lags_s``), the trace
    validity figures (``overhead``, ``unattributed``) and the traced
    rounds' ``host_factor``, by which every time is divided (as the
    end-to-end times are).
    """
    rows = max(1, ctx["rows"])
    rounds = max(1, ctx["rounds"])
    queries = max(1, ctx.get("queries", rounds))
    store = ctx.get("store", {})
    c = s.counters

    def per_row(name, inclusive=True):
        ns = s.inclusive_ns(name) if inclusive else s.self_ns(name)
        return ns / rows

    def per_call(name, scale=1.0):
        calls = s.calls(name)
        return s.inclusive_ns(name) / calls / scale if calls else 0.0

    update_calls = s.calls("dsms.udaf.update") + s.calls("dsms.udaf.update_many")
    update_rows = s.calls("dsms.udaf.update") + c["udaf.update_many_rows"]
    fault_ins = store.get("fault_ins", 0)
    touches = c["store.touches"]
    shard_rows = ctx.get("shard_rows") or []
    gen_lags = ctx.get("gen_lags_s") or []
    fault_durations = s.durations.get("store.tiered.fault_in") or []
    values = {
        "dsms.expressions.where_ns_per_row": per_row("dsms.expressions.where"),
        "dsms.expressions.key_ns_per_row": per_row("dsms.expressions.key"),
        "dsms.expressions.arg_ns_per_row": per_row("dsms.expressions.arg"),
        "dsms.engine.insert_cols_self_ns_per_row": per_row(
            "dsms.engine.insert_cols", inclusive=False
        ),
        "dsms.engine.low_evictions_per_krow": 1e3 * ctx.get("low_evictions", 0) / rows,
        "dsms.engine.groups": ctx.get("groups", 0),
        "dsms.udaf.update_ns_per_row": per_row("dsms.udaf.update"),
        "dsms.udaf.update_many_ns_per_row": per_row("dsms.udaf.update_many"),
        "dsms.udaf.rows_per_call": update_rows / update_calls if update_calls else 0.0,
        "dsms.udaf.merge_calls_per_krow": 1e3 * s.calls("dsms.udaf.merge") / rows,
        "dsms.engine.flush_ms": s.inclusive_ns("dsms.engine.flush") / 1e6 / queries,
        "dsms.engine.merge_partial_ms": (
            s.inclusive_ns("dsms.engine.merge_partial") / 1e6 / queries
        ),
        "core.cols.pack_ns_per_row": per_row("core.cols.pack"),
        "core.cols.unpack_ns_per_row": per_row("core.cols.unpack"),
        "core.cols.bytes_per_row": c["cols.pack_bytes"] / rows,
        "dsms.schema.validate_cols_ns_per_row": per_row("dsms.schema.validate_cols"),
        "serve.client.credit_wait_ms_per_batch": (
            1e3 * ctx.get("credit_wait_s", 0.0) / max(1, ctx.get("batches", 0))
        ),
        "serve.server.insert_cols_frame_us_p50": ctx.get("insert_frame_us_p50", 0.0),
        "serve.server.query_frame_us_p50": ctx.get("query_frame_us_p50", 0.0),
        "serve.protocol.result_encode_ms": (
            per_call("serve.protocol.encode_result_rows", 1e6)
        ),
        "serve.protocol.result_decode_ms": (
            per_call("serve.protocol.decode_result_rows", 1e6)
        ),
        "workloads.gen_lag_p99_ms": (
            1e3 * percentile(gen_lags, 99.0) if gen_lags else 0.0
        ),
        "store.tiered.observe_batch_ns_per_row": per_row("store.tiered.observe_batch"),
        "store.tiered.fault_in_us_p50": (
            median(fault_durations) / 1e3 if fault_durations else 0.0
        ),
        "store.tiered.fault_ins_per_krow": 1e3 * fault_ins / rows,
        "store.tiered.evictions_per_krow": 1e3 * store.get("evictions", 0) / rows,
        "store.tiered.hit_ratio": 1.0 - fault_ins / touches if touches else 0.0,
        "store.tiered.compactions": store.get("compactions", 0) / rounds,
        "store.tiered.compact_ms_total": (
            s.inclusive_ns("store.tiered.compact") / 1e6 / rounds
        ),
        "store.tiered.cold_merge_ms": ctx.get("cold_merge_ns", 0) / 1e6 / rounds,
        "store.segment.append_ns_per_record": per_call("store.segment.append"),
        "store.segment.read_us_per_record": per_call("store.segment.read", 1e3),
        "store.segment.bytes_written_per_row": store.get("spilled_bytes", 0) / rows,
        "store.segment.bytes_per_group": ctx.get("bytes_per_group", 0.0),
        "store.directory.lookup_ns": per_call("store.directory.lookup"),
        "store.directory.put_ns": per_call("store.directory.put"),
        "parallel.routing.keys_ns_per_row": per_row("parallel.routing.keys"),
        "parallel.sharded.ship_ns_per_row": (
            (s.inclusive_ns("parallel.sharded.insert_cols")
             - s.inclusive_ns("parallel.routing.keys")) / rows
        ),
        "parallel.sharded.bytes_shipped_per_row": (
            ctx.get("shipped_bytes", 0) / rows
        ),
        "parallel.sharded.partial_states_ms": (
            s.inclusive_ns("parallel.sharded.partial_states") / 1e6 / queries
        ),
        "parallel.sharded.shard_skew": (
            max(shard_rows) / (sum(shard_rows) / len(shard_rows))
            if shard_rows and sum(shard_rows) else 0.0
        ),
        "trace.overhead": ctx["overhead"],
        "trace.unattributed_share": ctx["unattributed"],
        "host.factor": ctx["host_factor"],
    }
    for name, unit in PER_LAYER:
        if unit in _TIME_UNITS:
            values[name] /= ctx["host_factor"]
    return values
