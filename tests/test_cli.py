import ast
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gbmoments
from gbmoments import qproduct
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


def test_compare_exits_zero(capsys):
    code, report = run(capsys, ["compare", "--max-pairs", "3", "--N", "2"])
    assert code == 0
    assert report["pass"]
    assert report["results"]["instances"] == 2 + 12 + 120


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


def test_oracle_over_partition_budget_exits_3(capsys, tmp_path, monkeypatch):
    # a^10 a*^10 has 10! = 3,628,800 compatible partitions; fail fast
    # rather than enumerate them if the guard stops firing
    monkeypatch.setattr(W, "compatible_partitions", lambda w: pytest.fail("enumerated"))
    word = [{"b": 0, "i": 1, "k": k} for k in ["a"] * 10 + ["a*"] * 10]
    path = tmp_path / "word.json"
    path.write_text(json.dumps(word))
    start = time.perf_counter()
    code = dispatch(["oracle", "--word", str(path), "--N", "2", "--mode", "combinatorial"])
    assert code == 3
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


def test_cli_imports_without_numpy():
    # a None entry in sys.modules makes any `import numpy` raise ImportError
    src = str(Path(gbmoments.__file__).parents[1])
    code = f'import sys; sys.modules["numpy"] = None; sys.path.insert(0, {src!r}); import gbmoments.cli'
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
