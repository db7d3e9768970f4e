"""Tests of the benchmark itself.  They are not part of the tier-1 suite:

    PYTHONPATH=src python3 -m pytest bench/tests -q           # ~1 min
    PYTHONPATH=src python3 -m pytest bench/tests -q -m slow   # traced CLI run
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import worker  # noqa: E402
import workloads  # noqa: E402

FEW_OPS = 5
NAMES = sorted(workloads.WORKLOADS)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def first_values(workload, ops):
    return [workload.run(op) for op in ops[:FEW_OPS]]


def run_bench(*args, cwd=ROOT, env=None):
    command = [sys.executable, os.path.join("bench", "run.py"), *args]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_same_inputs_and_values(name):
    a, b = workloads.WORKLOADS[name](), workloads.WORKLOADS[name]()
    try:
        ops_a, ops_b = a.inputs(7), b.inputs(7)
        assert workloads.serialize_inputs(ops_a) == workloads.serialize_inputs(ops_b)
        assert workloads.result_digest(first_values(a, ops_a)) == workloads.result_digest(
            first_values(b, ops_b)
        )
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_gives_other_inputs_that_pass(name):
    a, b = workloads.WORKLOADS[name](), workloads.WORKLOADS[name]()
    try:
        ops_a, ops_b = a.inputs(7), b.inputs(8)
        assert workloads.serialize_inputs(ops_a) != workloads.serialize_inputs(ops_b)
        for workload, ops in ((a, ops_a), (b, ops_b)):
            for op, values in zip(ops, first_values(workload, ops)):
                assert workload.check(op, values), (op, values)
    finally:
        a.close()
        b.close()


def _perturb(values):
    """Add 1/10^9 to the first Fraction of an op's values."""
    values = list(values)
    for k, value in enumerate(values):
        if type(value) is Fraction:
            values[k] = value + Fraction(1, 10**9)
            return tuple(values)
    raise AssertionError(f"no Fraction in {values!r}")


@pytest.mark.parametrize("name", ["weight_sweep", "identities", "oracle_crosscheck", "cli_queries"])
def test_checker_rejects_a_perturbed_fraction(name):
    workload = workloads.WORKLOADS[name]()
    try:
        ops = workload.inputs(3)
        for op in ops[:FEW_OPS]:
            values = workload.run(op)
            assert workload.check(op, values)
            if any(type(v) is Fraction for v in values):
                assert not workload.check(op, _perturb(values))
    finally:
        workload.close()


def test_gram_checker_rejects_a_wrong_verdict_and_digest_sees_values():
    workload = workloads.GramPositivity()
    op = workload.inputs(3)[0]
    ok, recorded = workload.run(op)
    assert workload.check(op, (ok, recorded))
    assert not workload.check(op, (False, recorded))
    perturbed = (ok, _perturb(recorded))
    assert workloads.result_digest([(ok, recorded)]) != workloads.result_digest([perturbed])


def test_closed_loop_counts_each_failed_check():
    class Perturbed(workloads.WeightSweep):
        def run(self, op):
            return _perturb(super().run(op))

    workload = Perturbed()
    result = worker._closed_loop(workload, workload.inputs(1), 0.0, None)
    assert result["attempted"] == result["ops"] == workload.MIN_OPS
    assert result["failed"] == result["attempted"]


def test_every_declared_workload_exists():
    assert sorted(w["name"] for w in SPEC["workloads"]) == NAMES


def _assert_declared(result: dict, declared: list):
    """The result line has the contract's keys and exactly the declared
    metrics, each with its declared unit."""
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert metric == {"value": metric["value"], "unit": m["unit"]}
        assert isinstance(metric["value"], (int, float))


def test_end_to_end_run_prints_declared_metrics_and_a_stable_digest():
    runs = [run_bench("--workload", "weight_sweep", "--seed", "1", "--seconds", "1") for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        _assert_declared(last_json(proc.stdout), SPEC["end_to_end"])
        assert all(m["value"] > 0 for m in last_json(proc.stdout)["metrics"].values())
    infos = [json.loads(proc.stdout.strip().splitlines()[-2]) for proc in runs]
    assert infos[0]["result_digest"] == infos[1]["result_digest"]
    assert infos[0]["digest"] in ("match", "unrecorded")


def test_traced_run_prints_declared_per_layer_metrics():
    proc = run_bench("--workload", "oracle_crosscheck", "--seed", "2", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    _assert_declared(result, SPEC["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["fock.dense.calls"] > 0 and metrics["cyclegraph.build_graph.calls"] > 0
    assert metrics["partitions.enumerate.items"] == 2 * (2 + 12 + 120 + 1680)


@pytest.mark.slow
def test_traced_cli_run_prints_declared_per_layer_metrics():
    proc = run_bench("--workload", "cli_queries", "--seed", "2", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    _assert_declared(result, SPEC["per_layer"])
    assert 0 < result["metrics"]["cli.overhead_frac"]["value"] < 1


def test_fails_without_the_program():
    clean = os.path.join(ROOT, "bench", "out", f"clean-{os.getpid()}")
    shutil.rmtree(clean, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(clean, "bench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), clean)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    try:
        proc = run_bench("--workload", "weight_sweep", "--seed", "1", "--seconds", "1", cwd=clean, env=env)
    finally:
        shutil.rmtree(clean, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
