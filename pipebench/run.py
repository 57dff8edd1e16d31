"""pipebench: one pipeline benchmark over the engine, wire, store and shards.

Run from the root of a checkout of this repository::

    python3 pipebench/run.py --workload engine-fwd-exp --seed 1 \\
        --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``engine-fwd-exp`` -- in-process ``QueryEngine.insert_cols``, Fig. 2(a)
  forward-exponential query, final ``flush``;
* ``serve-mixed`` -- a ``repro serve`` subprocess fed open loop over TCP
  with interleaved ``QUERY`` reads (:mod:`serve_loop`);
* ``store-churn`` -- in-process engine over a ``TieredStore`` whose hot
  tier holds about 5% of the groups, final query merges hot and cold;
* ``sharded-2proc`` -- ``ShardedEngine(shards=2)`` on two worker
  processes with the default ``cols`` transport, final ``query()``.

A run repeats set-up, replay, final query, exactness check and teardown
until ``--seconds`` have passed (at least :data:`MIN_ROUNDS` times) and
reports medians over rounds (a ``serve-mixed`` round whose generator
fell behind its schedule is dropped and replaced, see :func:`run_rounds`), scaled to a reference host speed measured
around every round (:func:`measure.host_factor`).  With ``--trace 0`` it prints every
end-to-end metric.  With ``--trace 1`` it alternates untraced rounds
with traced ones (spans recorded by wrapping the program's public
functions, :mod:`layers`) and prints every per-layer metric, including
the tracing overhead and the share of batch time no span accounts for.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every result matched the in-process
reference, no operation failed, and no more rounds were invalid than
valid.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Rounds a run makes even when ``--seconds`` is shorter.
MIN_ROUNDS = 3

#: Largest share of end-to-end batch time the traced spans may leave
#: unaccounted for.  In process every batch is one traced call, so only
#: the wrapper's own entry and exit are missing; over the wire a batch
#: also spends time in sockets and the server's event loop, which no
#: library function covers.
ATTRIBUTION_TOLERANCE = {
    "engine-fwd-exp": 0.05,
    "store-churn": 0.05,
    "sharded-2proc": 0.05,
    "serve-mixed": 0.5,
}

#: Every end-to-end metric, in BENCHMARK.json order: (name, unit).
END_TO_END = (
    ("rows_per_s", "rows/s"),
    ("batch_latency_p50_ms", "ms"),
    ("batch_latency_tail_ms", "ms"),
    ("query_latency_ms", "ms"),
    ("cpu_us_per_row", "us/row"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


WORKLOADS = ("engine-fwd-exp", "serve-mixed", "store-churn", "sharded-2proc")


def make_workload(name: str, seed: int, scratch: str):
    from serve_loop import ServeMixed
    from workloads import EngineFwdExp, Sharded2Proc, StoreChurn

    if name == "serve-mixed":
        return ServeMixed(seed, scratch, SRC)
    return {
        "engine-fwd-exp": EngineFwdExp,
        "store-churn": StoreChurn,
        "sharded-2proc": Sharded2Proc,
    }[name](seed, scratch)


def run_rounds(workload, seconds: float, traced: bool):
    """Untraced rounds (and, with ``traced``, alternating traced ones).

    Returns ``(plain, traced, dropped, first_peak_kb)``.  A round whose
    open-loop generator fell behind its schedule (``Round.invalid``) is
    not reported: it goes to ``dropped`` and another round takes its
    place.  The run stops early, invalid, once at least
    :data:`MIN_ROUNDS` rounds were dropped and they outnumber the valid
    ones: then the offered load was not the schedule's.
    """
    import layers
    from measure import proc_memory_kb
    from tracer import Tracer

    plain, traced_rounds, dropped = [], [], []
    deadline = time.perf_counter() + seconds
    round_id = 0
    first_peak_kb = None
    while True:
        result = workload.run_round(round_id)
        (dropped if result.invalid else plain).append(result)
        if first_peak_kb is None:
            # Later rounds reuse what the first freed, so its peak is the
            # one that does not depend on how many rounds fit the run.
            first_peak_kb = proc_memory_kb()["VmHWM"]
        round_id += 1
        if traced:
            tracer = Tracer()
            worker_dir = os.path.join(workload.scratch, f"workers-{round_id}")
            os.makedirs(worker_dir)
            workload.worker_dir = worker_dir
            layers.install(tracer, worker_dir=worker_dir)
            try:
                result = workload.run_round(round_id, tracer)
            finally:
                tracer.restore()
            (dropped if result.invalid else traced_rounds).append(result)
            round_id += 1
        valid = len(plain) + len(traced_rounds)
        if len(dropped) >= MIN_ROUNDS and len(dropped) > valid:
            return plain, traced_rounds, dropped, first_peak_kb
        if traced:
            enough = bool(plain) and bool(traced_rounds)
        else:
            enough = len(plain) >= MIN_ROUNDS
        if time.perf_counter() >= deadline and enough:
            return plain, traced_rounds, dropped, first_peak_kb


def end_to_end(rounds, workload, rss_growth_kb: int) -> tuple[dict, dict]:
    """The end-to-end metrics and printed extras.

    Each round's times are divided by the host factor measured around it
    (:func:`measure.host_factor`), and its rates multiplied, so that the
    figures describe the program on a host of the reference speed.  The
    open-loop ``serve-mixed`` rate is the schedule's and is not scaled.
    Per-round figures are summarized by their median over rounds; batch
    latencies are pooled over rounds, their median estimated by
    :func:`measure.central_mean`.
    """
    from measure import (
        central_mean, host_factor, median, percentile, tail_percentile,
    )

    factors = [host_factor(r.host_s) for r in rounds]
    in_process = workload.name != "serve-mixed"
    # Batch latencies of all rounds, pooled, each scaled by its round's
    # factor.  The tail percentile is fixed by the batches in one round
    # (a constant of the workload), so it does not move with the number
    # of rounds that fit the run.
    tail_pct, _, per_round_batches = tail_percentile(rounds[0].batch_s)
    batch_s = [
        value / f for r, f in zip(rounds, factors) for value in r.batch_s
    ]

    def per_round(values, power):
        # power 1 scales a time, -1 a rate, 0 leaves the value alone.
        return median([value / f ** power for value, f in zip(values, factors)])

    peak_kb = median([r.child_rss_kb for r in rounds])
    if in_process:
        # This process is part of the system under test: count what it
        # grew by after the trace, batches and reference were in memory.
        peak_kb += rss_growth_kb
    rates = [r.rows / r.ingest_s for r in rounds]
    values = {
        "rows_per_s": per_round(rates, -1 if in_process else 0),
        "batch_latency_p50_ms": 1e3 * central_mean(batch_s),
        "batch_latency_tail_ms": 1e3 * percentile(batch_s, tail_pct),
        "query_latency_ms": 1e3 * per_round([median(r.query_s) for r in rounds], 1),
        "cpu_us_per_row": 1e6 * per_round([r.cpu_s / r.rows for r in rounds], 1),
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": per_round([r.setup_s for r in rounds], 1),
    }
    attempted = sum(r.attempted for r in rounds)
    extras = {
        "tail_percentile": tail_pct,
        "batches_per_round": per_round_batches,
        "rounds": len(rounds),
        "host_factor": median(factors),
        "raw_rows_per_s": median(rates),
        "error_rate": sum(r.failed for r in rounds) / attempted,
        "store_bytes_per_group": median(
            [r.ctx.get("bytes_per_group", 0.0) for r in rounds]
        ),
    }
    return values, extras


def per_layer(traced_rounds, plain_rounds) -> dict:
    import layers
    from measure import host_factor, median
    from tracer import Summary

    summary = Summary()
    ctx: dict = {"rows": 0, "rounds": len(traced_rounds), "batches": 0,
                 "queries": 0, "credit_wait_s": 0.0, "gen_lags_s": [],
                 "shipped_bytes": 0, "cold_merge_ns": 0,
                 "low_evictions": 0, "store": {}}
    attributed = total = 0.0
    for r in traced_rounds:
        summary.merge(r.summary)
        ctx["rows"] += r.rows
        ctx["batches"] += r.ctx.get("batches", len(r.batch_s))
        ctx["queries"] += r.ctx.get("queries", len(r.query_s))
        ctx["credit_wait_s"] += r.ctx.get("credit_wait_s", 0.0)
        ctx["gen_lags_s"] += r.ctx.get("gen_lags_s", [])
        ctx["shipped_bytes"] += r.ctx.get("shipped_bytes", 0)
        ctx["cold_merge_ns"] += r.ctx.get("cold_merge_ns", 0)
        ctx["low_evictions"] += r.ctx.get("low_evictions", 0)
        for key, value in r.ctx.get("store", {}).items():
            if isinstance(value, (int, float)):
                ctx["store"][key] = ctx["store"].get(key, 0) + value
        attributed += r.attribution[0]
        total += r.attribution[1]
    # Every round replays the same trace: these are the same each round.
    last = traced_rounds[-1].ctx
    ctx["groups"] = last.get("groups", 0)
    ctx["bytes_per_group"] = last.get("bytes_per_group", 0.0)
    ctx["shard_rows"] = last.get("shard_rows", [])
    ctx["insert_frame_us_p50"] = median(
        [r.ctx.get("insert_frame_us_p50", 0.0) for r in traced_rounds]
    )
    ctx["query_frame_us_p50"] = median(
        [r.ctx.get("query_frame_us_p50", 0.0) for r in traced_rounds]
    )

    def rate(r):
        return r.rows / r.ingest_s * host_factor(r.host_s)

    ctx["overhead"] = median([rate(r) for r in traced_rounds]) / median(
        [rate(r) for r in plain_rounds]
    )
    ctx["unattributed"] = 1.0 - attributed / total if total else 1.0
    ctx["host_factor"] = median([host_factor(r.host_s) for r in traced_rounds])
    return layers.layer_metrics(summary, ctx)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from measure import MIN_BEYOND, proc_memory_kb

    scratch = os.path.join(ROOT, ".pipebench-tmp", str(os.getpid()))
    os.makedirs(scratch)
    try:
        workload = make_workload(args.workload, args.seed, scratch)
        # The trace, its batches and the reference stay alive all run;
        # freezing them keeps the garbage collector from walking them
        # again and again inside the program's (and the generator's)
        # timed work.
        gc.freeze()
        rss_base_kb = proc_memory_kb()["VmRSS"]
        plain, traced, dropped, first_peak_kb = run_rounds(
            workload, args.seconds, bool(args.trace)
        )
        # A run cut short by invalid rounds may have no valid round of a
        # kind: it prints no figures (and fails, below).
        complete = bool(plain) and (bool(traced) or not args.trace)
        if complete:
            values, extras = end_to_end(
                plain, workload, first_peak_kb - rss_base_kb
            )
            layer_values = per_layer(traced, plain) if traced else {}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass

    rounds = plain + traced + dropped
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"rounds {len(plain)} untraced"
          + (f", {len(traced)} traced" if traced else "")
          + (f", {len(dropped)} dropped as invalid" if dropped else ""))
    for r in dropped:
        print(f"  dropped invalid round: {r.invalid}")
    valid = len(plain) + len(traced)
    if len(dropped) > valid or not complete:
        print(f"invalid run: {len(dropped)} of {len(rounds)} rounds invalid")
        return 1
    for name, unit in END_TO_END:
        line = f"  {name:<24} {values[name]:>14.6g} {unit}"
        if name == "batch_latency_tail_ms":
            line += (f"   (p{extras['tail_percentile']:g}: at least "
                     f"{MIN_BEYOND} of the "
                     f"{extras['batches_per_round']} batches of a round "
                     f"lie beyond it; pooled over {len(plain)} round(s))")
        print(line)
    print(f"  {'host_factor':<24} {extras['host_factor']:>14.6g} "
          f"(times were divided by it; unscaled rows_per_s "
          f"{extras['raw_rows_per_s']:.6g})")
    print(f"  {'error_rate':<24} {failed / attempted:>14.6g} "
          f"({failed} of {attempted} operations failed)")
    print(f"  {'store_bytes_per_group':<24} "
          f"{extras['store_bytes_per_group']:>14.6g} B")
    ok = failed == 0
    if traced:
        import layers

        for name, unit in layers.PER_LAYER:
            print(f"  {name:<42} {layer_values[name]:>14.6g} {unit}")
        tolerance = ATTRIBUTION_TOLERANCE[args.workload]
        share = layer_values["trace.unattributed_share"]
        if share > tolerance:
            ok = False
            print(f"attribution check failed: {share:.3f} of batch time is "
                  f"outside traced spans (tolerance {tolerance})")
        else:
            print(f"attribution check passed: {share:.3f} of batch time "
                  f"unattributed (tolerance {tolerance})")
        metrics = {
            name: {"value": layer_values[name], "unit": unit}
            for name, unit in layers.PER_LAYER
        }
    else:
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END
        }
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
