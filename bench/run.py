"""The gbmoments benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh,
single-threaded interpreter (bench/worker.py) with PYTHONPATH=src and
GBMOMENTS_THREADS unset; this process only starts it and measures.  The
last line printed is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics BENCHMARK.json declares with
--trace 0, its per-layer metrics, from a separate traced run, with
--trace 1.  The line before it holds
the result digest and how it compares with the one recorded in
bench/baseline.json.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402  (does not import gbmoments)

SETUP_SAMPLES = 9
CLI_SAMPLES = 5
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def child_env(root: str) -> dict:
    """The environment of every process the benchmark starts: one
    gbmoments worker, one BLAS thread, and bytecode caches written, so that
    the untimed first start warms them for the timed ones."""
    env = {k: v for k, v in os.environ.items() if k not in ("GBMOMENTS_THREADS", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn_worker(env, args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return its set-up time, scaled to the reference speed
    by the worker, and its final JSON line."""
    command = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    # perf_counter is CLOCK_MONOTONIC, so the worker can time its set-up from here
    command += ["--spawned-at", repr(time.perf_counter())]
    # its own process group, so a timeout also stops the CLI processes it runs
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        first = proc.stdout.readline().split()
        rest = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))[0]
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("worker timed out")
    if first[:1] != ["ready"] or proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return float(first[1]), json.loads(lines[-1]) if lines else None


def median_spawn_s(env, code: str) -> float:
    """Median time to run `python -c code`, scaled to the reference speed."""
    command = [sys.executable, "-c", code]

    def spawn() -> float:
        start = time.perf_counter()
        subprocess.run(command, env=env, check=True, timeout=60)
        return time.perf_counter() - start

    return statistics.median(calibrate.scaled_s(spawn) for _ in range(CLI_SAMPLES))


def recorded_digest(workload: str, seed: int) -> str | None:
    with open(os.path.join(HERE, "baseline.json")) as fh:
        digests = json.load(fh)["digests"]
    return digests.get(workload, {}).get(str(seed))


def measure(args, env, deadline) -> tuple[dict, dict]:
    """Run the workload; return the metrics and the worker's result."""
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    # warms the bytecode cache; this set-up is not timed
    spawn_worker(env, base + ["--setup-only"], deadline)
    if not args.trace:
        setup_only = base + ["--setup-only"]
        setups = [spawn_worker(env, setup_only, deadline)[0] for _ in range(SETUP_SAMPLES)]
        _, result = spawn_worker(env, base, deadline)
        return {"setup_s": statistics.median(setups), **result}, result
    _, untraced = spawn_worker(env, base, deadline)
    os.makedirs(os.path.join("bench", "out"), exist_ok=True)
    trace_file = os.path.join("bench", "out", f"trace-{args.workload}-{args.seed}.json")
    _, result = spawn_worker(env, base + ["--trace", trace_file], deadline)
    if untraced["result_digest"] != result["result_digest"]:
        raise BenchError("traced and untraced runs disagree")
    result["failed"] += untraced["failed"]
    result["attempted"] += untraced["attempted"]
    layers = result["layers"]
    layers["cli.interpreter_s"] = median_spawn_s(env, "pass")
    layers["cli.import_s"] = median_spawn_s(env, "import gbmoments.cli") - layers["cli.interpreter_s"]
    if args.workload == "cli_queries":
        layers["cli.overhead_frac"] = 1.0 - layers["cli.compute_s"] / (result["ops"] / result["wall"]["ops_per_s"])
    else:
        layers["cli.compute_s"] = layers["cli.overhead_frac"] = 0.0
        layers["cli.exit_nonzero"] = 0
    for name, value in untraced["wall"].items():
        layers[f"wall.{name}"] = value
    layers["wall.calibration_ms"] = untraced["calibration_ms"]
    layers["trace.untraced_ops_per_s"] = untraced["ops_per_s"]
    layers["trace.traced_ops_per_s"] = result["ops_per_s"]
    layers["trace.overhead_frac"] = 1.0 - result["ops_per_s"] / untraced["ops_per_s"]
    return layers, result


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gbmoments", "__init__.py")):
        print("run from the root of a gbmoments checkout (src/gbmoments is missing)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        values, result = measure(args, child_env(root), deadline)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    expected = recorded_digest(args.workload, args.seed)
    digest = result["result_digest"]
    status = "unrecorded" if expected is None else ("match" if digest == expected else "MISMATCH")
    failed = result["failed"] + (status == "MISMATCH")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "ops": result["ops"],
                      "result_digest": digest, "digest": status}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
