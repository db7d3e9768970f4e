"""Run one benchmark workload in a fresh interpreter.

run.py starts this file with PYTHONPATH set to the checkout's src/.  It
prints "ready" and its set-up time once the workload's inputs are built,
then, unless --setup-only is given, runs the closed loop: one client, each
op starting when the previous one has returned.  The last line it prints is
one JSON object with the op statistics and the result digest, plus the
per-layer numbers under --trace.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

DIGEST_OPS = 100  # the digest covers these first ops, then the final checks
HARD_LIMIT_S = 120.0


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", default=None, help="write spans to this file")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True, help="perf_counter() at spawn")
    args = parser.parse_args()

    import calibrate

    start = time.perf_counter()
    clock = calibrate.Clock()
    calibrating_s = time.perf_counter() - start

    import gbmoments

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(gbmoments.__file__).startswith(src + os.sep):
        print(f"gbmoments imported from {gbmoments.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        setup_span = tracer.open(tracer.name_id("bench.setup"))
    workload = workloads.WORKLOADS[args.workload]()
    try:
        ops = workload.inputs(args.seed)
        if tracer:
            tracer.close(setup_span)
        clock.add(time.perf_counter() - args.spawned_at - calibrating_s)
        clock.tick(force=True)
        print(f"ready {clock.scaled[0]!r}", flush=True)
        if args.setup_only:
            return 0
        result = _closed_loop(workload, ops, args.seconds, tracer)
        if tracer:
            result["layers"].update(workload.layer_counts())
            tracer.write(args.trace, result["layers"])
    finally:
        workload.close()
    print(json.dumps(result), flush=True)
    return 0


def _closed_loop(workload, ops, seconds, tracer) -> dict:
    """Run ops in order until they have taken `seconds` at the reference
    speed (so a run does the same work whatever the host's speed) and at
    least workload.MIN_OPS ops are done."""
    from gbmoments import moments

    import calibrate
    import workloads

    cache_info = moments._graph_exponent.cache_info
    op_span = tracer.name_id("bench.op") if tracer else None
    wall = []
    digest_values = []
    failed = 0
    hard_deadline = time.perf_counter() + HARD_LIMIT_S
    clock = calibrate.Clock()
    while len(wall) < workload.MIN_OPS or clock.elapsed_s() < seconds:
        if time.perf_counter() > hard_deadline:
            break
        op = ops[len(wall) % len(ops)]
        if tracer:
            before = cache_info()
            sid = tracer.open(op_span)
        t0 = time.perf_counter()
        try:
            values = workload.run(op)
        except Exception:
            traceback.print_exc()
            values = None
        latency = time.perf_counter() - t0
        wall.append(latency)
        clock.add(latency)
        if tracer:
            tracer.close(sid)
            after = cache_info()
            tracer.cache_hits += after.hits - before.hits
            tracer.cache_misses += after.misses - before.misses
            tracer.active = False
        if values is None or not workload.check(op, values):
            failed += 1
            print(f"op {len(wall) - 1} failed: {op!r:.300} -> {values!r:.300}", file=sys.stderr)
        if len(digest_values) < DIGEST_OPS:
            digest_values.append(values)
        clock.tick()
        if tracer:
            tracer.active = True
    if tracer:
        tracer.active = False
    clock.tick(force=True)
    peak_rss_mb = _peak_rss_mb()
    final = workload.final_checks()
    failed += sum(not ok for _, ok in final)
    digest_values += [values for values, _ in final]
    result = {
        "ops": len(wall),
        "attempted": len(wall) + len(final),
        "failed": failed,
        **_latency_stats(clock.scaled),
        "peak_rss_mb": peak_rss_mb,
        "result_digest": workloads.result_digest(digest_values),
        "wall": _latency_stats(wall),
        "calibration_ms": statistics.median(clock.bursts) * 1e3,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
    return result


def _latency_stats(latencies: list[float]) -> dict:
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3,
    }


if __name__ == "__main__":
    sys.exit(main())
