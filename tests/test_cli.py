import ast
import copy
import hashlib
import json
import os
import pickle
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import gbmoments
from gbmoments import broken, cli, cyclegraph, fock, moments, partitions, qproduct
from gbmoments import words as W
from gbmoments.cli import dispatch, fmt_scalar
from fractions import Fraction

FIXTURES = Path(__file__).parent / "fixtures"
TWELVE = str(FIXTURES / "twelve_point.json")


def run(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def strip_time(report):
    report = dict(report)
    report.pop("wall_time_s")
    return report


def test_fmt_scalar():
    assert fmt_scalar(Fraction(1, 3)) == "1/3"
    assert fmt_scalar(Fraction(4, 2)) == "2"
    assert fmt_scalar(Fraction(0)) == "0"
    assert fmt_scalar(0.125) == 0.125


def test_enumerate(capsys):
    code, report = run(capsys, ["enumerate", "--pairs", "2", "--colors", "1"])
    assert code == 0
    assert report["results"]["count"] == 3
    assert report["checks"][0]["pass"]


def test_enumerate_capacity_exit(capsys):
    assert dispatch(["enumerate", "--pairs", "9"]) == 3


def test_enumerate_bad_counts_exit_2(capsys):
    # the listing bound's count is never formed from them (0 ** -1 would raise)
    for pairs, colors in [("-1", "1"), ("-1", "2"), ("2", "0"), ("-1", "0"), ("9", "0")]:
        assert dispatch(["enumerate", "--pairs", pairs, "--colors", colors]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_usage_exit():
    assert dispatch(["no-such-command"]) == 2
    assert dispatch(["eval", "--partition", "does-not-exist.json", "--t", "tn"]) == 2


def test_eval_tn_twelve_point(capsys):
    code, report = run(
        capsys, ["eval", "--t", "tn", "--N", "3", "--partition", TWELVE]
    )
    assert code == 0
    assert report["results"]["value"] == "1/3"


def test_eval_thoma(capsys):
    code, report = run(
        capsys,
        ["eval", "--t", "thoma", "--alpha", "1/2,1/2", "--partition", TWELVE],
    )
    assert code == 0
    assert report["results"]["value"] == "1/2"


def test_graph_twelve_point(capsys, twelve_point_expected):
    code, report = run(capsys, ["graph", "--partition", TWELVE])
    assert code == 0
    results = report["results"]
    assert sorted(
        (c["vertices"], c["inc_paths"]) for c in results["cycles"]
    ) == sorted(
        (c["vertices"], c["inc_paths"]) for c in twelve_point_expected["cycles"]
    )
    assert results["gamma"] == {"1": 1, "2": 1}
    for key, row in twelve_point_expected["rows"].items():
        assert results["classification"][key] == row["class"]
        assert results["z"][key] == row["z"]
    assert results["bar"]["pairs"] == twelve_point_expected["bar"]["pairs"]
    assert results["bar"]["colors"] == twelve_point_expected["bar"]["colors"]


def test_graph_deterministic_output(capsys):
    _, first = run(capsys, ["graph", "--partition", TWELVE])
    _, second = run(capsys, ["graph", "--partition", TWELVE])
    assert strip_time(first) == strip_time(second)


def test_oracle(capsys, tmp_path):
    word = [
        {"b": 1, "i": 1, "k": "a"},
        {"b": 1, "i": 2, "k": "a"},
        {"b": 1, "i": 1, "k": "a*"},
        {"b": 1, "i": 2, "k": "a*"},
    ]
    path = tmp_path / "word.json"
    path.write_text(json.dumps(word))
    code, report = run(capsys, ["oracle", "--word", str(path), "--N", "2"])
    assert code == 0
    assert report["results"]["dense"] == "1/2"
    assert report["results"]["combinatorial"] == "1/2"


def test_oracle_dense_mode_exits_2(capsys, tmp_path):
    # --mode both already reports the dense value beside the combinatorial one
    path = tmp_path / "word.json"
    path.write_text(json.dumps([{"b": 1, "i": 1, "k": "a"}, {"b": 1, "i": 1, "k": "a*"}]))
    assert dispatch(["oracle", "--word", str(path), "--N", "2", "--mode", "dense"]) == 2


def test_compare_exits_zero(capsys):
    code, report = run(capsys, ["compare", "--max-pairs", "3", "--N", "2"])
    assert code == 0
    assert report["pass"]
    assert report["results"]["instances"] == 2 + 12 + 120


@pytest.mark.parametrize(
    "max_pairs, n, code, message",
    [
        ("0", "2", 2, "at least 1"),
        ("-1", "2", 2, "at least 1"),
        ("0", "99", 2, "at least 1"),
        ("2", "1", 2, "require N >= 2"),
        ("2", "-2", 2, "require N >= 2"),
        ("2", "4", 3, "limited to N <= 3"),
        # the one-color nest of 5 pairs reaches level 5
        ("5", "2", 3, "above level 4"),
        ("1000000000", "3", 3, "above level 4"),
    ],
)
def test_compare_checks_inputs_before_computing(capsys, monkeypatch, max_pairs, n, code, message):
    monkeypatch.setattr(cli, "enumerate_colored", lambda *a: pytest.fail("enumerated"))
    start = time.perf_counter()
    assert dispatch(["compare", "--max-pairs", max_pairs, "--N", n]) == code
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_clt(capsys, tmp_path):
    q = tmp_path / "q.json"
    q.write_text(json.dumps([["1/2", "1/2"], ["1/2", "1/2"]]))
    code, report = run(
        capsys,
        ["clt", "--Q", str(q), "--V", str(FIXTURES / "v_crossing.json"),
         "--t", "free", "--n", "4,8,16,32"],
    )
    assert code == 0
    assert report["results"]["errors"] == [
        {"n": 4, "error": "1/8"},
        {"n": 8, "error": "1/16"},
        {"n": 16, "error": "1/32"},
        {"n": 32, "error": "1/64"},
    ]


    assert report["checks"] == [
        {"name": "error_within_collision_bound", "expected": True, "actual": True, "pass": True}
    ]


def _found_clt_argv(tmp_path, ns):
    # 4 pairs and a 3x3 Q whose error is not monotone at small n
    q, v = tmp_path / "q.json", tmp_path / "v.json"
    q.write_text(json.dumps([["1/2", "-1/3", "1/5"], ["-1/3", 1, 0], ["1/5", 0, "-1/4"]]))
    v.write_text(json.dumps({"pairs": [[1, 5], [2, 7], [3, 6], [4, 8]]}))
    return ["clt", "--Q", str(q), "--V", str(v), "--t", "tn", "--N", "3", "--n", ns]


def test_clt_non_monotone_error_passes(capsys, tmp_path):
    code, report = run(capsys, _found_clt_argv(tmp_path, "1,2,5,7"))
    errors = [Fraction(e["error"]) for e in report["results"]["errors"]]
    assert errors[1] > errors[2] < errors[3]
    # no requested n is a multiple of the base size 3, so nothing is bounded
    assert code == 0 and report["checks"] == []
    code, report = run(capsys, _found_clt_argv(tmp_path, "3,6"))
    assert code == 0 and [c["name"] for c in report["checks"]] == ["error_within_collision_bound"]


def test_clt_error_past_the_bound_fails(capsys, tmp_path, monkeypatch):
    q = tmp_path / "q.json"
    q.write_text(json.dumps([["1/2", "1/2"], ["1/2", "1/2"]]))
    v = partitions.pair_partition_from_json(json.loads((FIXTURES / "v_crossing.json").read_text()))
    limit = qproduct.t_q_limit(qproduct.QMatrix.of([["1/2", "1/2"], ["1/2", "1/2"]]), v)
    monkeypatch.setattr(qproduct, "t_q_limit", lambda q, v: limit)
    monkeypatch.setattr(qproduct, "t_q_star_n", lambda t, q, n, v: limit + 1)
    argv = ["clt", "--Q", str(q), "--V", str(FIXTURES / "v_crossing.json"), "--t", "free"]
    code, report = run(capsys, argv + ["--n", "4"])
    # error 1 against 2 (1 - 4 * 3 / 4^2) = 1/2 at 2 pairs
    assert code == 1 and report["checks"][0]["actual"] is False


def test_clt_at_large_n(capsys, tmp_path):
    # the coloring sum runs over kernels and residues, so its cost does not grow with n
    q = tmp_path / "q.json"
    q.write_text(json.dumps([["1/2", "1/2"], ["1/2", "1/2"]]))
    argv = ["clt", "--Q", str(q), "--V", str(FIXTURES / "v_crossing.json"), "--t", "free"]
    start = time.perf_counter()
    code, report = run(capsys, argv + ["--n", "1000000"])
    assert time.perf_counter() - start < 1
    assert code == 0
    assert report["results"]["errors"] == [{"n": 1000000, "error": "1/2000000"}]


def test_clt_unprintable_n_exits_3(capsys, tmp_path):
    # 2 pairs at n = 10^2200: the exact error's denominator has 4,401 digits
    q = tmp_path / "q.json"
    q.write_text(json.dumps([["1/2", "1/2"], ["1/2", "1/2"]]))
    argv = ["clt", "--Q", str(q), "--V", str(FIXTURES / "v_crossing.json"), "--t", "free"]
    assert dispatch(argv + ["--n", "4," + "1" + "0" * 2200]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_clt_computes_limit_once(capsys, tmp_path, monkeypatch):
    calls = []
    limit = qproduct.t_q_limit
    monkeypatch.setattr(qproduct, "t_q_limit", lambda q, v: calls.append(1) or limit(q, v))
    q = tmp_path / "q.json"
    q.write_text(json.dumps([["1/2", "1/2"], ["1/2", "1/2"]]))
    argv = ["clt", "--Q", str(q), "--V", str(FIXTURES / "v_crossing.json"), "--t", "free"]
    code, report = run(capsys, argv + ["--n", "4,8"])
    assert code == 0 and report["results"]["limit"] == "1/2"
    assert len(calls) == 1


def test_oracle_over_scan_budget_exits_3(capsys, tmp_path, monkeypatch):
    # a small budget: the 20-letter word a^10 a*^10 holds 10 open paths
    # after its annihilators, so its scan must stop at the sixth letter
    monkeypatch.setattr(fock, "SCAN_MAX_PATHS", 5)
    points = []
    scan_point = fock._scan_point
    monkeypatch.setattr(fock, "_scan_point", lambda states, k, *rest: points.append(k) or scan_point(states, k, *rest))
    word = [{"b": 0, "i": 1, "k": k} for k in ["a"] * 10 + ["a*"] * 10]
    path = tmp_path / "word.json"
    path.write_text(json.dumps(word))
    start = time.perf_counter()
    code = dispatch(["oracle", "--word", str(path), "--N", "2", "--mode", "combinatorial"])
    assert code == 3
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and "more than 5 open paths" in err
    assert points == [1, 2, 3, 4, 5, 6]
    # under the real budget the same word has its exact value, 11!/2^10
    monkeypatch.undo()
    code, report = run(capsys, ["oracle", "--word", str(path), "--N", "2", "--mode", "combinatorial"])
    assert code == 0 and report["results"]["combinatorial"] == "155925/4"


def test_oracle_on_a_deep_nest(capsys, tmp_path):
    # a(0,1) ... a(0,1200) a*(0,1200) ... a*(0,1): one compatible partition,
    # matched without a recursion as deep as the word
    m = 1200
    word = [{"b": 0, "i": i, "k": "a"} for i in range(1, m + 1)]
    word += [{"b": 0, "i": i, "k": "a*"} for i in range(m, 0, -1)]
    path = tmp_path / "nest.json"
    path.write_text(json.dumps(word))
    code, report = run(capsys, ["oracle", "--word", str(path), "--N", "2", "--mode", "combinatorial"])
    assert code == 0 and report["results"]["combinatorial"] == "1"
    assert "Traceback" not in capsys.readouterr().err


# [[1,3],[2,5],[4,6]] in one color: t_N = (1/N)^2
CROSSING_THREE = {"pairs": [[1, 3], [2, 5], [4, 6]], "colors": [0, 0, 0]}
# a1 a2 a3 a4 a1* a2* a3* a4*: P(w) = 4
FOUR_INDICES = [{"b": 0, "i": i, "k": k} for k in ("a", "a*") for i in (1, 2, 3, 4)]


@pytest.mark.parametrize(
    "subcommand, obj, value",
    [("eval", CROSSING_THREE, "1/9"), ("oracle", FOUR_INDICES, "1/9")],
    ids=["eval", "oracle"],
)
def test_power_over_printable_digits_exits_3(capsys, tmp_path, subcommand, obj, value):
    # N^e with e * digits(N) past 4,300 digits could be computed but not
    # printed; it is refused before computing
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    option = {"eval": ["--t", "tn", "--partition"], "oracle": ["--mode", "combinatorial", "--word"]}
    argv = [subcommand, *option[subcommand], str(path), "--N"]
    start = time.perf_counter()
    assert dispatch(argv + ["7" * 3000]) == 3
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and "would have more than 4300 digits" in err
    code, report = run(capsys, argv + ["3"])
    assert code == 0 and report["results"] == {"value" if subcommand == "eval" else "combinatorial": value}
    # a 1,075-digit N to the 4th power stays within the limit
    code, report = run(capsys, argv + ["1" + "0" * 1074])
    assert code == 0


@pytest.mark.parametrize(
    "family",
    [
        ["--t", "thoma", "--alpha", "1/3,1/3,1/3"],
        ["--t", "tensor", "--alpha-minus", "1/3,1/3,1/3", "--alpha-plus", "1/2"],
    ],
    ids=["thoma", "tensor"],
)
def test_value_over_printable_digits_exits_3(capsys, tmp_path, family):
    # {(i, i + n)} in one color has n/2 two-cycles, so both weights are
    # (1/3)^(n/2): 2,388 characters at n = 10,000, 4,772 digits in the
    # denominator at n = 20,000, which Python would refuse to print
    path = tmp_path / "nest.json"
    for n, code, err in (
        (20000, 3, "capacity error: the exact value would have more than 4300 digits\n"),
        (10000, 0, ""),
    ):
        path.write_text(json.dumps({"pairs": [[i, i + n] for i in range(1, n + 1)], "colors": [0] * n}))
        assert dispatch(["eval", "--partition", str(path), *family]) == code
        captured = capsys.readouterr()
        assert captured.err == err
    value = json.loads(captured.out)["results"]["value"]
    assert value == f"1/{3**5000}" and len(value) == 2388


def test_unprintable_value_names_the_capacity_limit():
    with pytest.raises(partitions.CapacityError, match="more than 4300 digits"):
        fmt_scalar(Fraction(1, 10**4300))
    with pytest.raises(partitions.CapacityError):
        fmt_scalar(Fraction(-(10**4300), 7))
    assert fmt_scalar(Fraction(-(10**4300 - 1), 10**4300 - 3)) == f"{-(10**4300 - 1)}/{10**4300 - 3}"


def test_closed_stdout_exits_4_without_traceback():
    # the report is far larger than a pipe buffer, so the write fails once
    # the reader has gone
    env = {**os.environ, "PYTHONPATH": str(Path(gbmoments.__file__).parents[1])}
    argv = [sys.executable, "-m", "gbmoments.cli", "enumerate", "--pairs", "4", "--colors", "2"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert head == b'{\n  "check'
    assert code == cli.OUTPUT_EXIT == 4
    assert err.splitlines() == ["error: the report could not be written: [Errno 32] Broken pipe"]


@pytest.mark.parametrize(
    "argv",
    [
        # 11,411 diagrams and 1.3e8 Gram cells
        ["pd-check", "--max-points", "6", "--colors", "2"],
        ["pd-check", "--max-points", "5", "--colors", "3"],
        ["pd-check", "--max-points", "1000000000", "--colors", "1"],
        # 15!! * 2^8, about 5.2e8 partitions
        ["enumerate", "--pairs", "8", "--colors", "2"],
        ["enumerate", "--pairs", "3", "--colors", "1000"],
        ["enumerate", "--pairs", "1000000000", "--colors", "2"],
    ],
    ids=["pd_6_2", "pd_5_3", "pd_huge", "enum_8_2", "enum_3_1000", "enum_huge"],
)
def test_over_enumeration_budget_exits_3(capsys, monkeypatch, argv):
    # fail fast rather than enumerate if the guard stops firing
    monkeypatch.setattr(broken, "enumerate_broken", lambda *a: pytest.fail("enumerated"))
    monkeypatch.setattr(partitions, "enumerate_pair_partitions", lambda m: pytest.fail("enumerated"))
    start = time.perf_counter()
    assert dispatch(argv) == 3
    assert time.perf_counter() - start < 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "pairs, colors",
    # 15!! = 2,027,025; 11!! * 2^6 = 665,280; 200,000 partitions
    [("8", "1"), ("6", "2"), ("1", "200000")],
    ids=["8_pairs", "6_pairs_2_colors", "1_pair_200000_colors"],
)
def test_enumerate_over_the_listing_bound_exits_3(capsys, monkeypatch, pairs, colors):
    # each is within the library's enumeration cap, but no report lists it
    monkeypatch.setattr(cli, "enumerate_pair_partitions", lambda m: pytest.fail("enumerated"))
    monkeypatch.setattr(cli, "enumerate_colored", lambda m, k: pytest.fail("enumerated"))
    start = time.perf_counter()
    assert dispatch(["enumerate", "--pairs", pairs, "--colors", colors]) == 3
    assert time.perf_counter() - start < 1
    assert "Traceback" not in capsys.readouterr().err


def test_pd_check_refuses_colors_no_weight_reads(capsys, monkeypatch):
    # at 0 points the family guard counts one diagram, whatever --colors is
    monkeypatch.setattr(broken, "enumerate_broken", lambda *a: pytest.fail("enumerated"))
    start = time.perf_counter()
    assert dispatch(["pd-check", "--max-points", "0", "--colors", str(10**30)]) == 2
    assert time.perf_counter() - start < 1
    assert "Traceback" not in capsys.readouterr().err


def test_pd_check(capsys):
    code, report = run(
        capsys, ["pd-check", "--max-points", "3", "--colors", "2", "--t", "tn", "--N", "2"]
    )
    assert code == 0
    assert report["checks"][0]["pass"]
    assert report["results"]["min_pivot"] == "0"


def test_pd_check_q_product(capsys):
    code, report = run(
        capsys,
        ["pd-check", "--max-points", "3", "--colors", "2", "--N", "2", "--q12", "-1"],
    )
    assert code == 0


def test_pd_check_takes_a_negative_fraction_q12_in_the_equals_form(capsys):
    # argparse reads a separate -1/2 as an option, so it needs the = form
    code, report = run(capsys, ["pd-check", "--max-points", "3", "--colors", "2", "--N", "2", "--q12=-1/2"])
    assert code == 0
    assert report["pass"] and report["inputs"]["q12"] == "-1/2"


@pytest.mark.slow
@pytest.mark.parametrize("q12", ["1/2", "-1/2"])
def test_pd_check_q_product_at_five_points(capsys, q12):
    # 164,015 products of 1,571 diagrams, of which 32,055 are distinct: the
    # q-product's layout memo hits on most of them and misses on many
    code, report = run(capsys, ["pd-check", "--max-points", "5", "--colors", "2", "--N", "2", f"--q12={q12}"])
    assert code == 0
    assert report["pass"] and report["checks"][0]["name"] == "psd"
    assert report["results"] == {"family_size": 1571, "min_pivot": "0"}


@pytest.mark.parametrize(
    "name, options",
    [
        ("tn", ["--colors", "2", "--t", "tn", "--N", "2"]),
        ("thoma", ["--colors", "2", "--t", "thoma", "--alpha", "1/2,1/5", "--beta", "1/4"]),
        ("q12", ["--colors", "2", "--N", "2", "--q12", "-1"]),
        ("colors1", ["--colors", "1", "--t", "tn", "--N", "2"]),
    ],
)
def test_pd_check_reports_are_pinned(capsys, name, options):
    # reports of the dense LDL^T check, before it was factored block by
    # block; byte-identical up to wall_time_s
    assert dispatch(["pd-check", "--max-points", "4", *options]) == 0
    out = capsys.readouterr().out
    pinned = (FIXTURES / f"pd_check_m4_{name}.json").read_text()
    wall_time = re.compile(r'"wall_time_s": [0-9.e+-]+')
    assert wall_time.sub("", out) == wall_time.sub("", pinned)
    assert wall_time.search(out)


@pytest.mark.parametrize(
    "name, q, options",
    [
        ("tn", "q_rational_2x2.json", ["--t", "tn", "--N", "3"]),
        ("free", "q_float_3x3.json", ["--t", "free"]),
    ],
)
def test_clt_reports_are_pinned(capsys, monkeypatch, name, q, options):
    # reports of the coloring sum that built a matrix, a colored partition
    # and a q_product_eval call per term, on 6 pairs with 10 crossings;
    # byte-identical up to wall_time_s, floats included
    monkeypatch.chdir(FIXTURES)
    argv = ["clt", "--Q", q, "--V", "v_six_pairs.json", *options, "--n", "1,2,3,6,1000000"]
    assert dispatch(argv) == 0
    out = capsys.readouterr().out
    pinned = (FIXTURES / f"clt_v6_{name}.json").read_text()
    wall_time = re.compile(r'"wall_time_s": [0-9.e+-]+')
    assert wall_time.sub("", out) == wall_time.sub("", pinned)
    assert wall_time.search(out)


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["compare", "--max-pairs", "4", "--N", "2"],
         "3ef491b717616b70a80311cd33cd41f09bbcc3a53454914d4406de9663345f09"),
        (["compare", "--max-pairs", "4", "--N", "3"],
         "22c38d374e91f657225ccab66831aa70e7cbe8aa3181c2156f7b6d24c5b6b5d0"),
        (["oracle", "--mode", "both", "--N", "3", "--word", str(FIXTURES / "word_two_colors_m4.json")],
         "5d6884f31fb975f0f5e2ad43fbdc8f4d881c47bd3dbc13681f31df9c39fa2c8c"),
        (["oracle", "--mode", "both", "--N", "2", "--word", str(FIXTURES / "word_two_colors_m5.json")],
         "7b6cd16589761977c3e56b256d881b0ed42203ef2caa1cff6ededa1d12b9829f"),
    ],
    ids=["compare_N2", "compare_N3", "oracle_m4_N3", "oracle_m5_N2"],
)
def test_oracle_reports_are_pinned(capsys, argv, digest):
    # SHA-256 of the reports of the dense oracle that listed every key of
    # a state and of the elementary-state oracle that walked the word once
    # per value assignment, up to wall_time_s
    assert dispatch(argv) == 0
    out = capsys.readouterr().out
    wall_time = re.compile(r'"wall_time_s": [0-9.e+-]+')
    assert wall_time.search(out)
    assert hashlib.sha256(wall_time.sub("", out).encode()).hexdigest() == digest


def test_stirling(capsys):
    code, report = run(capsys, ["stirling", "--N", "-1"])
    assert code == 0
    assert report["results"] == {"value": "0", "pass": True}
    assert dispatch(["stirling", "--N", "-8"]) == 3


@pytest.mark.parametrize(
    "content",
    [
        {"pairs": [[1, "a"], [2, 3]]},
        [[1, 2]],
        {"pairs": [[1, 2]], "colors": [True]},
    ],
    ids=["non_int_point", "bare_list", "bool_color"],
)
def test_malformed_partition_exits_2(capsys, tmp_path, content):
    path = tmp_path / "partition.json"
    path.write_text(json.dumps(content))
    assert dispatch(["graph", "--partition", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_zero_denominator_exits_2(capsys):
    argv = ["eval", "--t", "thoma", "--alpha", "1/0", "--partition", TWELVE]
    assert dispatch(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, long",
    [
        ("1e4300", False), ("1e4301", True), ("-1E-4300", False), ("1e-4301", True),
        ("1" * 4300, False), ("1" * 4301, True),
        ("0." + "0" * 4298 + "1", False), ("0." + "0" * 4299 + "1", True),
        ("1/" + "3" * 4299, False), ("1/" + "3" * 4300, True),
    ],
    ids=["exponent_4300", "exponent_4301", "exponent_minus_4300", "exponent_minus_4301",
         "integer_4300", "integer_4301", "decimal_4300", "decimal_4301",
         "ratio_4300", "ratio_4301"],
)
def test_too_long_at_the_digit_limit(text, long):
    # digits are counted wherever they stand, the exponent's among them
    assert partitions.too_long(text) is long
    if not long:
        assert isinstance(partitions.read_scalar(text), Fraction)


@pytest.mark.parametrize("text", ["12e", "e", "1e5e5", "1e--3", "1/2e3"])
def test_too_long_leaves_malformed_exponents_to_fraction(text):
    assert not partitions.too_long(text)
    with pytest.raises(ValueError):
        partitions.read_scalar(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["pd-check", "--max-points", "2", "--colors", "2", "--N", "2", "--q12", "1e-10000000"],
        ["eval", "--t", "thoma", "--alpha", "1/2,1e-10000000", "--partition", TWELVE],
        ["clt", "--Q", "q.json", "--V", str(FIXTURES / "v_crossing.json"), "--t", "free",
         "--n", "2"],
    ],
    ids=["pd_check_q12", "eval_alpha", "clt_Q"],
)
def test_huge_exponent_exits_3_before_fraction_expands_it(capsys, tmp_path, monkeypatch, argv):
    # Fraction would build 10^10000000, about 9.5 s, before any later guard
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q.json").write_text(json.dumps([["1", "1e-10000000"], ["1e-10000000", "1"]]))
    start = time.perf_counter()
    assert dispatch(argv) == 3
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "4300 digits" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "entry", ["0." + "0" * 4300 + "1", "1e-4301"], ids=["long_digit_string", "tiny_entry"]
)
def test_too_long_matrix_entry_exits_3_on_a_noncrossing_v(capsys, tmp_path, entry):
    # the entry is refused as read, though no crossing would ever use it
    (tmp_path / "q.json").write_text(json.dumps([[entry]]))
    (tmp_path / "v.json").write_text(json.dumps({"pairs": [[1, 2], [3, 4]]}))
    argv = ["clt", "--Q", str(tmp_path / "q.json"), "--V", str(tmp_path / "v.json"),
            "--t", "free", "--n", "2"]
    assert dispatch(argv) == 3
    assert "Traceback" not in capsys.readouterr().err


def _clt_with_matrix(tmp_path, content: str) -> int:
    q = tmp_path / "q.json"
    q.write_text(content)
    argv = ["clt", "--Q", str(q), "--V", str(FIXTURES / "v_crossing.json"),
            "--t", "free", "--n", "2"]
    return dispatch(argv)


def test_clt_empty_matrix_exits_2(capsys, tmp_path):
    assert _clt_with_matrix(tmp_path, "[]") == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    ["[[1,[2]],[[2],1]]", "5", "[[true]]", '[["1/0"]]'],
    ids=["nested_entry", "scalar", "bool_entry", "zero_denominator"],
)
def test_clt_malformed_matrix_exits_2(capsys, tmp_path, content):
    assert _clt_with_matrix(tmp_path, content) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "n, code", [("4", 3), ("1", 2), ("2", 3)], ids=["N_above_dense", "N_below_dense", "level_8"]
)
def test_oracle_both_refuses_before_the_sum(capsys, tmp_path, monkeypatch, n, code):
    # a^8 a*^8 has 8! = 40,320 compatible partitions and drives level 8
    monkeypatch.setattr(fock, "rho_n_combinatorial", lambda w, n: pytest.fail("summed"))
    word = [{"b": 0, "i": 1, "k": k} for k in ["a"] * 8 + ["a*"] * 8]
    path = tmp_path / "word.json"
    path.write_text(json.dumps(word))
    start = time.perf_counter()
    assert dispatch(["oracle", "--word", str(path), "--N", n]) == code
    assert time.perf_counter() - start < 1
    assert "Traceback" not in capsys.readouterr().err


def test_oracle_vanishing_word_over_the_level_is_left_to_the_oracle(capsys, tmp_path):
    # the color-1 annihilator kills the vacuum before five color-0 creators
    # would reach level 5; no partition is compatible, so both sides are 0
    word = [{"b": 0, "i": 1, "k": "a*"}] * 5 + [{"b": 1, "i": 1, "k": "a"}]
    path = tmp_path / "word.json"
    path.write_text(json.dumps(word))
    code, report = run(capsys, ["oracle", "--word", str(path), "--N", "2"])
    assert code == 0
    assert report["results"] == {"combinatorial": "0", "dense": "0"}


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "--partition"],
        ["oracle", "--N", "2", "--word"],
        ["clt", "--V", str(FIXTURES / "v_crossing.json"), "--t", "free", "--n", "2", "--Q"],
    ],
    ids=["partition", "word", "Q"],
)
def test_deeply_nested_json_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert dispatch([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nested too deeply" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("content", [[1], {}], ids=["bare_int_letter", "object"])
def test_malformed_word_exits_2(capsys, tmp_path, content):
    path = tmp_path / "word.json"
    path.write_text(json.dumps(content))
    assert dispatch(["oracle", "--word", str(path), "--N", "2"]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra", [["--t", "tensor"], ["--alpha-minus", "1/2"]], ids=["tensor", "alpha_minus"]
)
def test_pd_check_rejects_unsupported_options(capsys, extra):
    assert dispatch(["pd-check", "--max-points", "2", *extra]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--t", "tn", "--N", "3", "--alpha", "1/2", "--partition", TWELVE],
        ["eval", "--t", "thoma", "--N", "7", "--partition", TWELVE],
        ["clt", "--t", "free", "--N", "5", "--Q", str(FIXTURES / "q_mixed.json"),
         "--V", str(FIXTURES / "v_crossing.json"), "--n", "2"],
        ["pd-check", "--max-points", "2", "--colors", "1", "--t", "tn", "--alpha", "1/2"],
        ["pd-check", "--max-points", "2", "--colors", "2", "--q12", "-1", "--t", "thoma",
         "--alpha", "1/2"],
        ["pd-check", "--max-points", "2", "--colors", "2", "--q12", "-1", "--t", "tn"],
    ],
    ids=["eval_tn_alpha", "eval_thoma_N", "clt_free_N", "pd_tn_alpha", "pd_q12_thoma", "pd_q12_tn"],
)
def test_unread_family_options_exit_2(capsys, argv):
    assert dispatch(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_eval_tn_three_colors_exits_2(capsys, tmp_path):
    path = tmp_path / "partition.json"
    path.write_text(json.dumps({"pairs": [[1, 3], [2, 4]], "colors": [0, 1], "num_colors": 3}))
    assert dispatch(["eval", "--t", "tn", "--partition", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "first, second",
    [
        (["pd-check", "--N", "2"], ["pd-check", "--N", "3"]),
        (["pd-check", "--q12", "-1"], ["pd-check", "--q12", "1/2"]),
        (["pd-check", "--t", "thoma", "--alpha", "1/2"], ["pd-check", "--t", "thoma", "--beta", "1/2"]),
        (["eval", "--t", "tn", "--N", "2"], ["eval", "--t", "tn", "--N", "3"]),
        (["eval", "--t", "thoma", "--alpha", "1/2"], ["eval", "--t", "thoma", "--alpha", "1/3"]),
        (["eval", "--t", "tensor", "--beta-plus", "1/2"], ["eval", "--t", "tensor", "--beta-minus", "1/2"]),
        (["clt", "--t", "tn", "--N", "2"], ["clt", "--t", "tn", "--N", "3"]),
    ],
    ids=["pd_N", "pd_q12", "pd_thoma", "eval_N", "eval_thoma", "eval_tensor", "clt_N"],
)
def test_inputs_record_weight_parameters(capsys, tmp_path, first, second):
    q = tmp_path / "q.json"
    q.write_text(json.dumps([["1", "1/2"], ["1/2", "1"]]))
    common = {
        "pd-check": ["--max-points", "2", "--colors", "2"],
        "eval": ["--partition", TWELVE],
        "clt": ["--Q", str(q), "--V", str(FIXTURES / "v_crossing.json"), "--n", "2"],
    }
    inputs = []
    for argv in (first, second):
        code, report = run(capsys, argv + common[argv[0]])
        assert code == 0
        inputs.append(report["inputs"])
    assert inputs[0] != inputs[1]


def test_no_assert_statements_in_src():
    # invariants must hold under `python -O`, which strips assert statements
    for path in Path(gbmoments.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not asserts, f"{path.name}: assert on lines {asserts}"


def _value_classes(base):
    """Every class below base, at any depth."""
    return [cls for sub in base.__subclasses__() for cls in (sub, *_value_classes(sub))]


# the names `import gbmoments` offers, submodules aside: a name joins or
# leaves the library's surface only through an edit of this list
PUBLIC_NAMES = [
    "BrokenPairPartition", "CapacityError", "ColorArityError", "ColoredPairPartition",
    "CycleGraphAnalysis", "Letter", "PairPartition", "QMatrix", "StandardForm",
    "ThomaParameter", "Word", "adjoint", "annihilate", "build_graph", "canonical_word",
    "classify", "clt_error_bound", "clt_error_curve", "commutation_check",
    "compatible_partitions", "create", "crossings", "double_factorial", "embed", "empty",
    "enumerate_colored", "enumerate_pair_partitions", "evaluate_t_hat", "fock_moment",
    "gram_blocks", "gram_matrix", "gram_psd_check", "involution", "left_hook", "multiply",
    "noncrossing_hat", "q_product_eval", "rho_n_combinatorial", "right_hook",
    "standard_form", "standard_form_product", "stirling_check", "t_colored", "t_free",
    "t_n", "t_q_limit", "t_q_star_n", "t_tensor", "t_uncolored", "thoma_character",
    "thoma_n", "uncolored_cycles", "vacuum_expectation_dense", "vacuum_expectation_lambda",
    "wlim_identity_check", "word", "word_profile",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(gbmoments).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert names == PUBLIC_NAMES


def test_value_classes_share_one_path():
    # FrozenValue alone defines equality and hashing, its _assign alone
    # sets slots past the refusing __setattr__, and only FrozenValue reads
    # the slot setters it keeps per class
    for path in Path(gbmoments.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        allowed, inside = set(), set()
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            methods = {f.name: f for f in cls.body if isinstance(f, ast.FunctionDef)}
            if cls.name == "FrozenValue":
                allowed = {id(node) for node in ast.walk(methods["_assign"])}
                inside = {id(node) for node in ast.walk(cls)}
                continue
            # `__hash__ = None` and the like count too
            names = set(methods) | {
                t.id for a in cls.body if isinstance(a, ast.Assign) for t in a.targets
                if isinstance(t, ast.Name)
            }
            forks = sorted({"__eq__", "__hash__"} & names)
            assert not forks, f"{path.name}: {cls.name} defines {forks}"
        setattrs = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name) and node.value.id == "object"
            and id(node) not in allowed
        ]
        assert not setattrs, f"{path.name}: object.__setattr__ on lines {setattrs}"
        setters = [
            node.lineno
            for node in ast.walk(tree)
            if "_setters" in (getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "value", None))
            and id(node) not in inside
        ]
        assert not setters, f"{path.name}: _setters read outside FrozenValue on lines {setters}"
    # every value class, through FrozenValue's setters: a wrong value count
    # is refused before any slot is set, the right one sets each slot in
    # order, and pickle and copy give an equal value
    half = Fraction(1, 2)
    p = partitions.ColoredPairPartition.of([(1, 3), (2, 4)], [1, 1])
    form = broken.standard_form(p)
    samples = [p.base, p, broken.embed(p), form, *form.factors, qproduct.QMatrix.constant(2, half),
               moments.ThomaParameter(alpha=(half,), beta=(half,)), cyclegraph.build_graph(p)]
    classes = _value_classes(partitions.FrozenValue)
    assert sorted(type(x).__name__ for x in samples) == sorted(cls.__name__ for cls in classes)
    for x in samples:
        cls, slots = type(x), type(x).__slots__
        for count in (len(slots) - 1, len(slots) + 1):
            bare = cls.__new__(cls)
            with pytest.raises(ValueError, match="values"):
                bare._assign(*[None] * count)
            assert not any(hasattr(bare, name) for name in slots)
        bare = cls.__new__(cls)
        bare._assign(*[getattr(x, name) for name in slots])
        assert [getattr(bare, name) for name in slots] == [getattr(x, name) for name in slots]
        for twin in (bare, pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(twin) is cls and twin == x and hash(twin) == hash(x)


def test_cli_imports_without_numpy():
    # a None entry in sys.modules makes any `import numpy` raise ImportError
    src = str(Path(gbmoments.__file__).parents[1])
    # nor does it import dataclasses, which pulls in inspect, ast, dis and
    # tokenize and costs every CLI process more than the package itself
    code = (
        f'import sys; sys.modules["numpy"] = None; sys.path.insert(0, {src!r}); import gbmoments.cli; '
        'slow = sorted({"dataclasses", "inspect"} & set(sys.modules)); '
        'sys.exit(f"imported at start-up: {slow}" if slow else 0)'
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
