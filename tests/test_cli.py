import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import warnings
from collections import OrderedDict, namedtuple
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhyper import cli, errors, exact, groebner, mgraph, series, weyl
from dhyper.exact import IntMatrix
from dhyper.series import PuiseuxSeries
from dhyper.systems import horn_system, hypergeometric_system
from dhyper.weyl import WeylOperator, normal_product
from test_systems import MEMO_FILLERS

A_JSON = "[[3,2,1,0],[0,1,2,3]]"
B_JSON = "[[1,0],[-2,1],[1,-2],[0,1]]"
BETA_JSON = '["-11/6","-5/3"]'


def run_main(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_toric_reports_three_binomials(capsys):
    code, rep = run_main(capsys, ["toric", "--a", A_JSON])
    assert code == 0
    polys = {g["poly"] for g in rep["results"]["groebner"]}
    assert polys == {"d2^2 - d1 d3", "d3^2 - d2 d4", "d2 d3 - d1 d4"}


def test_report_bytes_are_stable(capsys):
    code1 = cli.main(["mgraph", "--m", "[[-2,1],[1,-2]]", "--cap", "8"])
    out1 = capsys.readouterr().out
    code2 = cli.main(["mgraph", "--m", "[[-2,1],[1,-2]]", "--cap", "8"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_example_pipeline_all_checks_pass(capsys):
    code, rep = run_main(capsys, ["example-erdelyi", "--window", "6"])
    assert code == 0
    by_name = {v["name"]: v for v in rep["verdicts"]}
    assert len(by_name) == 6
    assert all(v["passed"] for v in by_name.values())
    assert by_name["monomial-fails-missing-binomial"]["detail"]["witness_coeff"] == "55/162"
    assert by_name["missing-binomial-not-in-horn"]["detail"]["basis_status"] == "complete"
    assert rep["results"]["monomial"]["v"] == ["-11/18", "0", "0", "-5/9"]
    nf = rep["results"]["membership_horn"]["normal_form"]
    assert nf["terms"]


def test_resonant_beta_fails_with_facet_witness(capsys):
    code, rep = run_main(capsys, ["nonresonant", "--a", A_JSON, "--beta", "[0,0]"])
    assert code == 1
    detail = rep["verdicts"][0]["detail"]
    assert "violating_facet" in detail


def test_nonresonant_demo_beta(capsys):
    code, rep = run_main(capsys, ["nonresonant", "--a", A_JSON, "--beta", BETA_JSON])
    assert code == 0


def test_malformed_json_exit(capsys):
    code, rep = run_main(capsys, ["toric", "--a", "[[1,2"])
    assert code == 2
    assert "malformed" in rep["error"]


def test_float_literal_rejected(capsys):
    code, rep = run_main(capsys, ["gamma", "--a", A_JSON, "--beta", "[0, 0.5]"])
    assert code == 2


@pytest.mark.parametrize("value", ["1e5", "NaN", "-Infinity"])
def test_floats_are_refused_anywhere_in_a_flag(capsys, value):
    # the operator reader ignores the key, so only the float screen sees it
    gens = f'[{{"nvars": 1, "terms": [], "ignored": {value}}}]'
    argv = ["membership", "--gens", gens, "--query", '{"nvars": 1, "terms": []}']
    code, rep = run_main(capsys, argv)
    assert code == rep["exit_code"] == 2
    assert rep["error"] == 'rational literals must be integers or "p/q" strings, not floats'


def test_malformed_json_is_reported_before_its_floats(capsys):
    code, rep = run_main(capsys, ["facets", "--a", "[1.5,"])
    assert code == rep["exit_code"] == 2
    assert rep["error"].startswith("malformed JSON: ")


def test_unreadable_flag_file_exits_bad_input(tmp_path, capsys):
    path = tmp_path / "missing.json"
    code, rep = run_main(capsys, ["facets", "--a", f"@{path}"])
    assert code == rep["exit_code"] == 2
    assert rep["error"].startswith(f"cannot read {path}: ")


def test_membership_query_must_be_one_operator(capsys):
    op = '{"nvars": 1, "terms": [{"coeff": "1", "x": [0], "dx": [1]}]}'
    code, rep = run_main(capsys, ["membership", "--gens", f"[{op}]", "--query", f"[{op}, {op}]"])
    assert code == rep["exit_code"] == 2
    assert rep["error"] == "query must be a single operator"


def test_dimension_mismatch_exit(capsys):
    code, rep = run_main(capsys, ["ahyp", "--a", A_JSON, "--beta", "[0]"])
    assert code == 3


def test_unsupported_character_exit(capsys):
    code, rep = run_main(
        capsys, ["components", "--b", "[[2],[-2]]", "--beta", '["1/2"]']
    )
    assert code == 4


def test_domain_error_exit(capsys):
    code, rep = run_main(capsys, ["horn", "--b", "[[1],[1]]", "--beta", "[0]"])
    assert code == 5


def test_membership_subcommand(capsys):
    gens = json.dumps([
        {"nvars": 1, "terms": [{"coeff": "1", "x": [0], "dx": [1]}]}
    ])
    query = json.dumps({"nvars": 1, "terms": [{"coeff": "1", "x": [0], "dx": [2]}]})
    code, rep = run_main(capsys, ["membership", "--gens", gens, "--query", query])
    assert code == 0
    assert rep["results"]["certificate"]["member"] is True


def test_annihilate_subcommand(capsys):
    mono = PuiseuxSeries.monomial((Fraction(1, 2),))
    euler = json.dumps([
        {
            "nvars": 1,
            "terms": [
                {"coeff": "1", "x": [1], "dx": [1]},
                {"coeff": "-1/2", "x": [0], "dx": [0]},
            ],
        }
    ])
    series = json.dumps(mono.to_json())
    code, rep = run_main(capsys, ["annihilate", "--gens", euler, "--series", series])
    assert code == 0
    deriv = json.dumps([{"nvars": 1, "terms": [{"coeff": "1", "x": [0], "dx": [1]}]}])
    code, rep = run_main(capsys, ["annihilate", "--gens", deriv, "--series", series])
    assert code == 1
    assert rep["verdicts"][0]["detail"]["statuses"] == ["NONZERO"]


def test_mgraph_subcommand(capsys):
    code, rep = run_main(capsys, ["mgraph", "--m", "[[-2,1],[1,-2]]", "--cap", "12"])
    assert code == 0
    bounded = rep["results"]["bounded"]
    assert [b["representative"] for b in bounded] == [[0, 0]]
    assert bounded[0]["coefficients"] == [{"vertex": [0, 0], "coeff": "1"}]


def test_components_subcommand(capsys):
    code, rep = run_main(
        capsys,
        ["components", "--b", B_JSON, "--beta", BETA_JSON, "--a", A_JSON],
    )
    assert code == 0
    items = rep["results"]["components"]
    assert [i["decomposition"]["jbar"] for i in items] == [[], [2, 3]]
    assert all(i["class"]["verdict"] == "TORAL" for i in items)
    assert len(items[1]["ideal"]["generators"]) == 6


def test_components_classifies_a_wide_block_andean(capsys):
    b = "[[-1,-1,2],[-1,-2,-1],[2,2,-1],[1,2,0],[2,0,1]]"
    code, rep = run_main(capsys, ["components", "--b", b])
    assert code == 0
    classes = {tuple(i["decomposition"]["jbar"]): i["class"] for i in rep["results"]["components"]}
    assert classes[(1, 3)] == {"verdict": "ANDEAN", "justification": "block is 2 x 3 with q < p"}


def test_emit_writes_artifacts(tmp_path, capsys):
    out = str(tmp_path / "art")
    code, rep = run_main(capsys, ["--emit", out, "toric", "--a", A_JSON])
    assert code == 0
    assert rep["artifacts"]
    for path in rep["artifacts"]:
        with open(path) as fh:
            json.load(fh)


def _unwritable_emit_target(tmp_path, case):
    blocker = tmp_path / "file"
    blocker.write_text("")
    if case == "existing file":
        return blocker
    if case == "below a file":
        return blocker / "sub"
    (tmp_path / "art" / "facets.json").mkdir(parents=True)
    return tmp_path / "art"


@pytest.mark.parametrize("case", ["existing file", "below a file", "directory at artifact"])
def test_emit_to_unwritable_target_exits_bad_input(tmp_path, capsys, case):
    out = _unwritable_emit_target(tmp_path, case)
    code, rep = run_main(capsys, ["--emit", str(out), "facets", "--a", A_JSON])
    assert code == rep["exit_code"] == 2
    assert rep["error"].startswith(f"cannot write {out}")


@pytest.mark.parametrize("via_file", [False, True])
def test_integer_literal_past_the_string_limit_exits_bad_input(tmp_path, capsys, via_file):
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int-string conversion limit")
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    flag = f"[[{digits},1],[0,1]]"
    if via_file:
        path = tmp_path / "a.json"
        path.write_text(flag)
        flag = f"@{path}"
    code, rep = run_main(capsys, ["facets", "--a", flag])
    assert code == rep["exit_code"] == 2
    assert rep["error"].startswith("malformed JSON: ")


def _limit_cases():
    """Two valid inputs whose results hold integers past the int-string
    limit: each result multiplies two input literals just below it."""
    digits = "7" * (sys.get_int_max_str_digits() - 300)
    return [
        ["facets", "--a", f"[[{digits},1],[0,{digits}]]"],
        ["nonresonant", "--a", f"[[1,1],[0,{digits}]]", "--beta", f'["{digits}/3","1/{digits}"]'],
    ]


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python prints integers of any length",
)
@pytest.mark.parametrize("case", [0, 1, "printing"])
def test_a_result_past_the_int_string_limit_exits_with_a_domain_error(capsys, monkeypatch, case):
    limit = sys.get_int_max_str_digits()
    if case == "printing":
        # an integer that reaches json.dumps itself, after run returned
        monkeypatch.setattr(cli, "run", lambda argv: {"exit_code": 0, "n": 10 ** (limit + 1)})
        argv = ["facets", "--a", A_JSON]
    else:
        argv = _limit_cases()[case]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    [line] = out.splitlines()
    rep = json.loads(line)
    assert code == rep["exit_code"] == 5
    assert rep["error"] == (
        f"a result integer has more than {limit} digits, past Python's int-string limit"
    )


# gamma --v with an integral entry on a coordinate that a kernel move
# touches goes through the sweep fill: the bytes and the error text are
# those the sweep gave before fully generic bases took the tree fill
SWEPT_GAMMA_SHA256 = "4a3cfb577891c3f06969b1827d836af1e750cdc0a7bca8e593c08afec4ca1b0b"


def test_gamma_with_an_integral_touched_entry_keeps_the_sweep(capsys, monkeypatch):
    calls = []
    fill = series._binomial_fill
    monkeypatch.setattr(series, "_binomial_fill", lambda *args: calls.append(args) or fill(*args))
    argv = ["gamma", "--a", "[[1,1]]", "--beta", '["-1/2"]', "--v", '["-1/2","0"]', "--window", "5"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SWEPT_GAMMA_SHA256
    v = '["-11/18","0","0","-5/9"]'
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code, rep = run_main(
            capsys, ["gamma", "--a", A_JSON, "--beta", BETA_JSON, "--v", v, "--window", "3"]
        )
    assert code == rep["exit_code"] == 5
    assert rep["error"] == "window point (-1, -1) unreachable through nonvanishing factorials"
    assert len(calls) == 2


def test_gamma_subcommand_full_density(capsys):
    code, rep = run_main(
        capsys, ["gamma", "--a", A_JSON, "--beta", BETA_JSON, "--window", "3"]
    )
    assert code == 0
    assert rep["verdicts"][0]["detail"]["density"] == "1"


@pytest.mark.parametrize(
    "argv",
    [
        ["mgraph", "--m", "[[1],[-2]]", "--cap", "-1"],
        ["membership", "--gens", "[]", "--query", "{}", "--cap", "-1"],
        ["example-erdelyi", "--cap", "-1"],
        ["components", "--b", B_JSON, "--monomial-cap", "-1"],
    ],
)
def test_negative_caps_exit_bad_input(capsys, argv):
    code, rep = run_main(capsys, argv)
    assert code == 2
    assert rep["exit_code"] == 2
    assert "must be nonnegative" in rep["error"]


@pytest.mark.parametrize("depth", [900, 5000])
def test_deeply_nested_json_exits_bad_input(tmp_path, capsys, depth):
    # 5000 levels overflow the JSON parser; 900 parse but overflow the float
    # screen or reach the matrix check: either way the input is malformed
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth)
    code, rep = run_main(capsys, ["facets", "--a", f"@{path}"])
    assert code == 2
    assert isinstance(rep, dict)
    assert rep["exit_code"] == 2


@pytest.mark.parametrize("matrix", ["[]", "[[]]", "[[],[]]"])
def test_empty_matrix_exits_bad_input(capsys, matrix):
    code, rep = run_main(capsys, ["facets", "--a", matrix])
    assert code == rep["exit_code"] == 2
    assert "at least one row and one column" in rep["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["toric", "--a", "[[1,true]]"],
        ["ahyp", "--a", A_JSON, "--beta", "[true,1]"],
        ["nonresonant", "--a", A_JSON, "--beta", '[false,"1/2"]'],
        # an argparse usage error, not a JSON one
        ["gamma", "--a", A_JSON, "--beta", BETA_JSON, "--window", "true"],
    ],
)
def test_json_booleans_are_not_integers(capsys, argv):
    code, rep = run_main(capsys, argv)
    assert code == rep["exit_code"] == 2


def test_unexpected_exception_exits_internal_error(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "facets", broken)
    code, rep = run_main(capsys, ["facets", "--a", A_JSON])
    assert code == cli.EXIT_INTERNAL == 6
    assert rep == {"error": "internal error: RuntimeError: boom", "exit_code": 6}


ERROR_CLASSES = sorted(
    (c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.DhyperError)),
    key=lambda c: c.__name__,
)
# README's exit-code table; every other domain error exits 5
README_EXIT_CODES = {
    errors.InputFormatError: 2,
    errors.DimensionMismatchError: 3,
    errors.UnsupportedCharacterError: 4,
}


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_each_error_class_exits_with_its_code(capsys, monkeypatch, cls):
    def raising(args):
        raise cls("raised on purpose")

    monkeypatch.setitem(cli._HANDLERS, "facets", raising)
    code, rep = run_main(capsys, ["facets", "--a", A_JSON])
    assert code == rep["exit_code"] == cls.exit_code == README_EXIT_CODES.get(cls, 5)
    assert rep == {"error": "raised on purpose", "exit_code": code}


def test_error_exit_code_is_the_process_exit_code():
    # the console script passes main's return value to sys.exit
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    script = (
        "import sys\n"
        "from dhyper import cli, errors\n"
        "def raising(args):\n"
        "    raise errors.UnsupportedCharacterError('raised on purpose')\n"
        "cli._HANDLERS['facets'] = raising\n"
        f"sys.exit(cli.main(['facets', '--a', {A_JSON!r}]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == json.loads(proc.stdout)["exit_code"] == 4


ONE_D = {"x": [0], "dx": [1], "coeff": "1"}


@pytest.mark.parametrize(
    "gens,query",
    [
        (
            [{"nvars": True, "terms": [{"x": [True], "dx": [False], "coeff": "1"}]}],
            {"nvars": "1", "terms": [{"x": ["1"], "dx": [0], "coeff": "2"}]},
        ),
        ([{"nvars": 1, "terms": [ONE_D]}], {"nvars": "1", "terms": [ONE_D]}),
        ([{"nvars": 1, "terms": [ONE_D]}], {"nvars": 1, "terms": [{"x": [True], "dx": [0], "coeff": "1"}]}),
        ([{"nvars": 1, "terms": [{"x": ["0"], "dx": [1], "coeff": "1"}]}], {"nvars": 1, "terms": [ONE_D]}),
        ([{"nvars": -1, "terms": []}], {"nvars": -1, "terms": []}),
    ],
)
def test_operator_json_with_non_integers_exits_bad_input(capsys, gens, query):
    code = cli.main(["membership", "--gens", json.dumps(gens), "--query", json.dumps(query)])
    out = capsys.readouterr().out
    rep = json.loads(out)  # exactly one JSON object: trailing data would not parse
    assert code == rep["exit_code"] == 2
    assert "bad operator json" in rep["error"]


# SHA-256 of the canonical example-erdelyi report at the default parameters.
# Performance work must leave these bytes alone; a deliberate change to the
# report updates the digest and says why.
ERDELYI_REPORT_SHA256 = "1a88d067cb322f2bb53e48d14aa9c9e9eb153beaca5f27617407803880312b91"


def test_example_erdelyi_report_bytes_are_pinned(capsys):
    assert cli.main(["example-erdelyi"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ERDELYI_REPORT_SHA256


def test_example_erdelyi_emit_artifacts_are_json_dumps_bytes(tmp_path):
    out = tmp_path / "art"
    report = cli.run(["--emit", str(out), "example-erdelyi"])
    payload = report["results"]
    assert report["artifacts"] == [str(out / f"{key}.json") for key in sorted(payload)]
    for key, value in payload.items():
        want = json.dumps(value, indent=2, sort_keys=True) + "\n"
        assert (out / f"{key}.json").read_bytes() == want.encode()


# ---------------------------------------------------------------------------
# The report writer against json.dumps(indent=2, sort_keys=True)

TRICKY_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\x00\x1f\n\t\x7f\u00e9\u20ac\u2028\U0001f600'), st.characters()),
    max_size=8,
)
JSON_LEAF = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**4000), 10**4000),
    st.floats(),
    TRICKY_TEXT,
)
JSON_TREE = st.recursive(
    JSON_LEAF,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TRICKY_TEXT, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(JSON_TREE)
def test_report_writer_is_json_dumps_byte_for_byte(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


Pair = namedtuple("Pair", "a b")


class Level(IntEnum):
    HIGH = 7


class Label(str):
    def __str__(self):
        return "not the text"


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [[], {}]},
        -(10**3999),
        {1: "a", 10: "b", 2: "c"},
        {True: 1, False: 0},
        {None: [1.5, float("inf"), float("nan")]},
        {2.5: -0.0},
        [Pair(1, [2]), Level.HIGH, Label("x\"y"), OrderedDict([("b", 1), ("a", 2)])],
    ],
)
def test_report_writer_matches_json_dumps_on_edge_values(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [{"a": object()}, {(1, 2): 0}, {1: 0, "a": 1}])
def test_report_writer_refuses_what_json_dumps_refuses(obj):
    with pytest.raises(TypeError) as want:
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        cli._json_text(obj)
    assert str(got.value) == str(want.value)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python prints integers of any length",
)
def test_report_writer_raises_json_dumps_error_past_the_int_string_limit():
    obj = {"n": [1, -(10 ** sys.get_int_max_str_digits())]}
    with pytest.raises(ValueError) as want:
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(ValueError) as got:
        cli._json_text(obj)
    assert str(got.value) == str(want.value)
    assert "integer string conversion" in str(got.value)


def test_no_indented_json_dump_in_the_package():
    # one report writer: an indented json.dump or json.dumps in dhyper would
    # print a second way, and with the standard library's pure-Python encoder
    src = os.path.dirname(cli.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called in ("dump", "dumps") and any(k.arg == "indent" for k in node.keywords):
                found.append(f"{name}:{node.lineno}")
    assert found == []


@pytest.mark.parametrize(
    "spaced,joined",
    [
        (["--a-param", "-1/2"], ["--a-param=-1/2"]),
        (["--a-prime", "-3/2"], ["--a-prime=-3/2"]),
        (["--a-param", "-1/2", "--a-prime", "-3/2"], ["--a-param=-1/2", "--a-prime=-3/2"]),
    ],
)
def test_negative_rational_is_a_flag_value(capsys, spaced, joined):
    # -p/q after a flag is its value, as -1 and -0.5 already were: the
    # report is made (its checks may fail at these a, a') and is the one
    # for the joined spelling
    argv = ["example-erdelyi", "--window", "4", "--cap", "6"]
    code, out = cli.main(argv + spaced), capsys.readouterr().out
    assert code in (0, 1)
    assert cli.main(argv + joined) == code
    assert capsys.readouterr().out == out


def test_one_parser_serves_every_run_of_a_process(capsys):
    argvs = [
        ["membership", "--gens", "[]"],
        ["facets", "--a", A_JSON],
        _demo_horn_membership_argv("planted"),
        ["example-erdelyi"],
    ]

    def report(argv):
        code = cli.main(argv)
        return code, capsys.readouterr().out

    cli._build_parser.cache_clear()
    shared = [report(argv) for argv in argvs]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(report(argv))
    assert [code for code, _ in shared] == [2, 0, 0, 0]
    assert shared == fresh


# The per-matrix memos behind the beta-independent answers the worked
# example reads: the mixedness of B, move-graph surveys and the toric
# generators of H_A(beta).
MATRIX_MEMOS = [memo for memo, _ in MEMO_FILLERS]


def _erdelyi_report(capsys, a, ap) -> str:
    assert cli.main(["example-erdelyi", "--a-param", a, "--a-prime", ap]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("a,ap", [("1/3", "2/5"), ("2/7", "-3/11"), ("-5/13", "7/9")])
def test_example_erdelyi_cold_report_equals_the_warm_one(capsys, a, ap):
    _erdelyi_report(capsys, a, ap)
    warm = _erdelyi_report(capsys, a, ap)
    for memo in MATRIX_MEMOS:
        memo.cache_clear()
    assert _erdelyi_report(capsys, a, ap) == warm


def test_example_erdelyi_at_new_parameters_recomputes_no_lattice_answer(capsys, monkeypatch):
    # neither the mixedness of B, nor the toric completion, nor a move-graph
    # search is made again (the facets of the small cone still are)
    b_rows = IntMatrix.from_rows(cli.EXAMPLE_B).entries
    calls = []
    for module, name, asks in (
        (exact, "_one_signed_lines", lambda vectors, dim: vectors == b_rows),
        (groebner, "_binomial_buchberger", lambda *args: True),
        (mgraph, "component", lambda *args: True),
    ):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name, asks=asks: (asks(*args) and calls.append(name)) or real(*args))
    _erdelyi_report(capsys, "1/3", "2/5")
    calls.clear()
    _erdelyi_report(capsys, "4/17", "6/19")
    assert calls == []
    # the counts reach all three: cold, the same call runs each of them
    for memo in MATRIX_MEMOS:
        memo.cache_clear()
    _erdelyi_report(capsys, "4/17", "6/19")
    assert set(calls) == {"_one_signed_lines", "_binomial_buchberger", "component"}


def test_example_erdelyi_decides_the_mixedness_of_b_once(capsys, monkeypatch):
    # horn_system and block_decompositions both ask span_mixedness(B)
    enumerated = []
    real = exact._one_signed_lines
    monkeypatch.setattr(exact, "_one_signed_lines", lambda vectors, dim: enumerated.append(tuple(vectors)) or real(vectors, dim))
    for memo in MATRIX_MEMOS:
        memo.cache_clear()
    _erdelyi_report(capsys, "1/3", "2/5")
    assert enumerated.count(IntMatrix.from_rows(cli.EXAMPLE_B).entries) == 1


@pytest.mark.parametrize("field,value", [("reliable", True), ("window", "3")])
def test_series_json_with_non_integers_exits_bad_input(capsys, field, value):
    series = {"v": ["1/2"], "lattice": [[1]], "terms": [{"u": [0], "coeff": "1"}], "window": 3, "reliable": 3}
    series[field] = value
    gens = [{"nvars": 1, "terms": [ONE_D]}]
    code = cli.main(["annihilate", "--gens", json.dumps(gens), "--series", json.dumps(series)])
    out = capsys.readouterr().out
    rep = json.loads(out)  # exactly one JSON object: trailing data would not parse
    assert code == rep["exit_code"] == 2
    assert "bad series json" in rep["error"]


def test_exhausted_series_with_reliable_radius_exits_bad_input(capsys):
    # an exhausted window certifies no radius: reliable 2 next to it is a
    # contradiction, not a NONZERO witness at window 2
    series = {
        "v": ["1/2"], "lattice": [[2]], "terms": [{"u": [0], "coeff": "1"}],
        "window": 2, "reliable": 2, "window_exhausted": True,
    }
    gens = [{"nvars": 1, "terms": [{"x": [1], "dx": [0], "coeff": "1"}]}]
    argv = ["annihilate", "--gens", json.dumps(gens), "--series", json.dumps(series)]
    code, rep = run_main(capsys, argv)
    assert code == rep["exit_code"] == 2
    assert "exhausted" in rep["error"]


# SHA-256 of the canonical gamma report for the demo matrix at window 8, and
# of the annihilate report of that series against the demo A-hypergeometric
# generators.  Like the example-erdelyi pin: performance work leaves these
# bytes alone.
GAMMA_REPORT_SHA256 = "3d78dfe5f7e77e28ba3eb9fbc18181ee74c8dd735a96f6f8a76080e67ce8cfc0"
ANNIHILATE_REPORT_SHA256 = "256b5323229071067b1c32bf11c6e555e153508e4bd0bf54b6ae0701a850f662"


def _demo_gamma_report(capsys):
    assert cli.main(["gamma", "--a", A_JSON, "--beta", BETA_JSON, "--window", "8"]) == 0
    return capsys.readouterr().out


def test_gamma_report_bytes_are_pinned(capsys):
    out = _demo_gamma_report(capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == GAMMA_REPORT_SHA256


def test_annihilate_report_bytes_are_pinned(capsys):
    series = json.loads(_demo_gamma_report(capsys))["results"]["series"]
    a = IntMatrix.from_rows(json.loads(A_JSON))
    beta = tuple(Fraction(q) for q in json.loads(BETA_JSON))
    gens = [p.to_json() for p in hypergeometric_system(a, beta).generators]
    argv = [
        "annihilate",
        "--gens", json.dumps(gens, sort_keys=True),
        "--series", json.dumps(series, sort_keys=True),
    ]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["results"]["annihilation"]["all_zero"]
    assert hashlib.sha256(out.encode()).hexdigest() == ANNIHILATE_REPORT_SHA256


# SHA-256 of the annihilate report for a five-point series with window 10^6
# on the demo lattice: the single-class action costs its support, not its
# window, and the report is the one the tuple-keyed walk gave.
SPARSE_ANNIHILATE_SHA256 = "6d861aaa38d44f1fe8b0d4543f1fe38e505a472a9bff9e5d0578fe5f9c1acd3d"


def test_annihilate_sparse_series_with_a_huge_window(capsys):
    lattice = json.loads(B_JSON)
    big = 10**6
    points = [(0, 0), (1, -2), (-big, 3), (big - 1, -big), (-5, big)]
    coeffs = ["1", "-3/7", "2/5", "11", "-1/9"]
    terms = [
        {"u": [row[0] * z0 + row[1] * z1 for row in lattice], "coeff": c}
        for (z0, z1), c in zip(points, coeffs)
    ]
    series = {
        "v": ["2/3", "-4/3", "-7/6", "2/3"], "lattice": lattice, "terms": terms,
        "window": big, "reliable": big,
    }
    a = IntMatrix.from_rows(json.loads(A_JSON))
    beta = tuple(Fraction(q) for q in json.loads(BETA_JSON))
    gens = [p.to_json() for p in hypergeometric_system(a, beta).generators]
    argv = ["annihilate", "--gens", json.dumps(gens), "--series", json.dumps(series)]
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert code == rep["exit_code"] == 1
    statuses = rep["verdicts"][0]["detail"]["statuses"]
    assert statuses == ["NONZERO"] * 3 + ["ZERO_ON_WINDOW"] * 2
    assert hashlib.sha256(out.encode()).hexdigest() == SPARSE_ANNIHILATE_SHA256
    assert elapsed < 1.0


# SHA-256 of two annihilate reports of the refined-lattice action, recorded
# while it still walked every ring out to the window: x1 + 1 on a one-term
# series on 2Z^2 at window 50; and, on 2Z at the integral base 6 with a
# reliable radius of 2 in a window of 10, x + 1 and d^13 + x d^13, whose
# factors vanish on the first two rings with a source beyond that radius,
# so its certified radius passes them.
REFINED_ANNIHILATE_SHA256 = {
    "x1+1": "d8130689eaea64cf5faafa66c33319718b11daa2e66906a3ce8f96963904eaa8",
    "vanishing": "81c2d7b592e3bb91b16172bdd9a52259b751818b46cd1f60943cce2215c57006",
}


def _refined_annihilate_argv(which):
    if which == "x1+1":
        gens = [{"nvars": 2, "terms": [
            {"coeff": "1", "x": [1, 0], "dx": [0, 0]}, {"coeff": "1", "x": [0, 0], "dx": [0, 0]},
        ]}]
        series = {
            "v": ["1/2", "1/2"], "lattice": [[2, 0], [0, 2]],
            "terms": [{"u": [0, 0], "coeff": "1"}], "window": 50, "reliable": 50,
        }
    else:
        gens = [
            {"nvars": 1, "terms": [
                {"coeff": "1", "x": [0], "dx": [13]}, {"coeff": "1", "x": [1], "dx": [13]},
            ]},
            {"nvars": 1, "terms": [
                {"coeff": "1", "x": [1], "dx": [0]}, {"coeff": "1", "x": [0], "dx": [0]},
            ]},
        ]
        points = [(0, "1"), (2, "-3/7"), (-4, "2/5"), (10, "11"), (-20, "1/9")]
        series = {
            "v": ["6"], "lattice": [[2]], "terms": [{"u": [u], "coeff": c} for u, c in points],
            "window": 10, "reliable": 2,
        }
    return ["annihilate", "--gens", json.dumps(gens), "--series", json.dumps(series)]


@pytest.mark.parametrize("which", sorted(REFINED_ANNIHILATE_SHA256))
def test_refined_annihilate_report_bytes_are_pinned(capsys, which):
    code = cli.main(_refined_annihilate_argv(which))
    out = capsys.readouterr().out
    assert code == json.loads(out)["exit_code"] == 1
    assert hashlib.sha256(out.encode()).hexdigest() == REFINED_ANNIHILATE_SHA256[which]


@pytest.mark.parametrize("a_json", [A_JSON, "[[1,1]]", "[[1,0],[0,1]]"])
def test_gamma_with_a_negative_window_exits_bad_input(capsys, a_json):
    beta = json.dumps(["1/2"] * len(json.loads(a_json)))
    code, rep = run_main(capsys, ["gamma", "--a", a_json, "--beta", beta, "--window", "-1"])
    assert code == rep["exit_code"] == 2
    assert rep["error"] == "bad window bounds"


# SHA-256 of the canonical toric reports for the rational normal quintic and
# for the weighted curve [[4, 6, 7, 9]], recorded before toric ideals were
# saturated one variable at a time, and for three matrices with no positive
# grading, recorded while those were still saturated through an elimination
# variable; and for two pointed matrices of deficient rank, recorded while
# the positive grading still came from Fourier-Motzkin elimination.  The
# reduced basis is unique, so a change of method leaves these bytes alone.
TORIC_REPORT_SHA256 = {
    "[[1,1,1,1,1,1],[0,1,2,3,4,5]]": "532a07eae0493f888144bb5607bcdb54c5c6317aa6a95ab34af18c8e415b820d",
    "[[4,6,7,9]]": "158f5ca411f25b919433a2f4e137f4479bbe1a6a05b4e22ca556627b9de0ee85",
    "[[1,-1]]": "5625e901fd2bc69930c5d98ecc0543cd95cdb57a24b3620fee6f8e1dd494cae9",
    "[[1,-2,3,-1]]": "925afc421cf31bead09bcdf1879b10887b020759f6396abc94e4a29c01267938",
    "[[1,1,-1,-1],[0,1,2,-3]]": "a6579cd866ca6befbe5f487a6224cfacf8e91614f5eda37ebe0cc79826768c1f",
    "[[1,2,3],[2,4,6]]": "8c57d1cc92f3d0179791a94dd0e708a3de893a2555fb2c50c7ea1fe7c2a9c727",
    "[[1,1,1,1],[0,1,3,4],[2,3,5,6]]": "6aa4c01d74f01a8eb7f9c4f087bfd7361a0ae4b2e59c56c261757584870c32d9",
}


@pytest.mark.parametrize("a_json", sorted(TORIC_REPORT_SHA256))
def test_toric_report_bytes_are_pinned(capsys, a_json):
    assert cli.main(["toric", "--a", a_json]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TORIC_REPORT_SHA256[a_json]


# SHA-256 of two canonical membership reports against the demo Horn
# generators at the default cap, recorded before the Groebner core worked
# in integers: the "not in Horn" certificate for d1 d4 - d2 d3, and the
# certificate of the planted member x1 . g_1 + d2 . g_3.  The cofactors in
# them are what any core must reproduce.
MEMBERSHIP_REPORT_SHA256 = {
    "missing": "70a698ec626d2d57ad6e4ef0462a619422aac9921789f607bfd84a20c881be74",
    "planted": "c8901ff2fe2451fc0a650258c16fb87922f19ee5f7d240ee2838909e8aae4f08",
}


def _demo_horn_membership_argv(which):
    a = IntMatrix.from_rows(json.loads(A_JSON))
    b = IntMatrix.from_rows(json.loads(B_JSON))
    beta = tuple(Fraction(q) for q in json.loads(BETA_JSON))
    gens = list(horn_system(b, beta, a=a).generators)
    if which == "missing":
        query = WeylOperator.make(4, {((0,) * 4, (1, 0, 0, 1)): 1, ((0,) * 4, (0, 1, 1, 0)): -1})
    else:
        query = normal_product(WeylOperator.x(0, 4), gens[0]) + normal_product(WeylOperator.d(1, 4), gens[2])
    return [
        "membership",
        "--gens", json.dumps([g.to_json() for g in gens], sort_keys=True),
        "--query", json.dumps(query.to_json(), sort_keys=True),
    ]


@pytest.mark.parametrize("which", sorted(MEMBERSHIP_REPORT_SHA256))
def test_membership_report_bytes_are_pinned(capsys, which):
    assert cli.main(_demo_horn_membership_argv(which)) == 0
    out = capsys.readouterr().out
    member = json.loads(out)["results"]["certificate"]["member"]
    assert member is (which == "planted")
    assert hashlib.sha256(out.encode()).hexdigest() == MEMBERSHIP_REPORT_SHA256[which]


# SHA-256 of the toric reports of d1^40000 - d2 and d1^70001 - d2^3, and of
# a membership certificate whose basis completion overflows the packed
# fields sized from its generators and cap (d2 + x1^2 and d1^3 + x2 at cap
# 3, query 1), all recorded before monomials were packed into ints.
WIDE_TORIC_REPORT_SHA256 = {
    "[[1,40000]]": "9930c90d70ee1e9242794fb0b3104757103f75c1f5146f23a387b76f6a48bf44",
    "[[3,70001]]": "ac2e454c40cdfa745613b9faecc79c5f51706ad3e355074865db008f2ed2e187",
}
WIDENED_MEMBERSHIP_REPORT_SHA256 = "66a7b26c0ab6106bd00e305dd3bc1da2acdb17bdd32b9dbd0d6fa15acfb911ca"


@pytest.mark.parametrize("a_json", sorted(WIDE_TORIC_REPORT_SHA256))
def test_wide_exponent_toric_reports_are_pinned(capsys, a_json):
    assert cli.main(["toric", "--a", a_json]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == WIDE_TORIC_REPORT_SHA256[a_json]


def test_overflowing_completion_widens_to_the_pinned_report(capsys, monkeypatch):
    widened = []
    wider = weyl.Packing.wider
    monkeypatch.setattr(weyl.Packing, "wider", lambda pk: widened.append(pk.width) or wider(pk))
    gens = [
        WeylOperator.make(2, {((0, 0), (0, 1)): 1, ((2, 0), (0, 0)): 1}),
        WeylOperator.make(2, {((0, 0), (3, 0)): 1, ((0, 1), (0, 0)): 1}),
    ]
    argv = [
        "membership",
        "--gens", json.dumps([g.to_json() for g in gens], sort_keys=True),
        "--query", json.dumps(WeylOperator.one(2).to_json(), sort_keys=True),
        "--cap", "3",
    ]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert widened  # the fields chosen from the inputs overflowed
    assert json.loads(out)["results"]["certificate"]["member"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == WIDENED_MEMBERSHIP_REPORT_SHA256


# SHA-256 of the report of an empty query against one zero generator on
# 2000 variables, recorded while every order was kept as dense rows
EMPTY_WIDE_MEMBERSHIP_SHA256 = "1e7a6628c7b87134a49f87bd7a26be3e8b6e55dbdffdb982305b8c07fd09d3c3"


def test_empty_query_on_many_variables_costs_only_its_order():
    # degrevlex on 4000 columns has 8000 nonzero entries of 16 million:
    # the order and its packing are built from those alone; each attempt
    # builds the packing afresh
    argv = ["membership", "--gens", '[{"nvars":2000,"terms":[]}]', "--query", '{"nvars":2000,"terms":[]}']
    times = []
    for _ in range(3):
        weyl._packing.cache_clear()
        out = io.StringIO()
        start = time.process_time()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        times.append(time.process_time() - start)
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == EMPTY_WIDE_MEMBERSHIP_SHA256
    assert min(times) < 0.1, times


# SHA-256 of membership reports recorded while the membership replay still
# ran over the certificate's Fraction data: an "inconclusive" answer from
# the capped basis of the rational normal quartic's A-hypergeometric system
# (query d1, cap 4), and both answers against generators d1^2 - d2, 0,
# x1 d1 + 2 x2 d2 - 1/3 (the non-member d1 d2, and x2 . g_1 + g_3).
QUARTIC_JSON = "[[1,1,1,1,1],[0,1,2,3,4]]"
ZERO_GEN_OPS = [
    WeylOperator.make(2, {((0, 0), (2, 0)): 1, ((0, 0), (0, 1)): -1}),
    WeylOperator.zero(2),
    WeylOperator.make(2, {((1, 0), (1, 0)): 1, ((0, 1), (0, 1)): 2, ((0, 0), (0, 0)): Fraction(-1, 3)}),
]
EDGE_MEMBERSHIP_REPORT_SHA256 = {
    "quartic-inconclusive": (1, "inconclusive", "006d2f7634b61e27c62a0b718c7b1dc8ea2736b9ea2df1f0d35ba43241d332a0"),
    "zero-gen-missing": (0, False, "2c250b0f8598141ffe5d222a762e67d019b8d2c418f1c3905b9969e21c9fe80f"),
    "zero-gen-planted": (0, True, "309c8807b9392ce6a19bf092837b263d6ec4023a86b0886a38c27840aa31459b"),
}


def _edge_membership_argv(which):
    if which == "quartic-inconclusive":
        a = IntMatrix.from_rows(json.loads(QUARTIC_JSON))
        gens = list(hypergeometric_system(a, (Fraction(1, 2), Fraction(1, 3))).generators)
        query, cap = WeylOperator.d(0, 5), ["--cap", "4"]
    else:
        gens = ZERO_GEN_OPS
        if which == "zero-gen-missing":
            query = WeylOperator.make(2, {((0, 0), (1, 1)): 1})
        else:
            query = normal_product(WeylOperator.x(1, 2), gens[0]) + gens[2]
        cap = []
    return [
        "membership",
        "--gens", json.dumps([g.to_json() for g in gens], sort_keys=True),
        "--query", json.dumps(query.to_json(), sort_keys=True),
        *cap,
    ]


@pytest.mark.parametrize("which", sorted(EDGE_MEMBERSHIP_REPORT_SHA256))
def test_edge_membership_reports_are_pinned(capsys, which):
    code, member, digest = EDGE_MEMBERSHIP_REPORT_SHA256[which]
    assert cli.main(_edge_membership_argv(which)) == code
    out = capsys.readouterr().out
    assert json.loads(out)["results"]["certificate"]["member"] == member
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of two mgraph reports, recorded while the move-graph fill still
# keyed its vertices by coordinate tuples: classes of up to four vertices
# with coefficients such as 1/2 and 1/12 for [[2], [-1]], and a three-row
# move matrix.  The polynomial solutions are unique, so a change of key
# representation leaves these bytes alone.
MGRAPH_REPORT_SHA256 = {
    ("[[2],[-1]]", "6"): "f845448503cdf74d7c69fbff217421996ea9c8b30740392aa9843a0c4ffb6ba0",
    ("[[3,1],[-1,-2],[-2,1]]", "4"): "e1eec0f7b492fdaf65d3372cd483c627e5f8d653e1322c5134724ac664c5fc45",
}


@pytest.mark.parametrize("m_json,cap", sorted(MGRAPH_REPORT_SHA256))
def test_mgraph_report_bytes_are_pinned(capsys, m_json, cap):
    assert cli.main(["mgraph", "--m", m_json, "--cap", cap]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == MGRAPH_REPORT_SHA256[(m_json, cap)]


# SHA-256 of four reports of the exact layer, recorded while rank, kernels
# and determinants still came from Gauss elimination over the rationals:
# the facets of a five-column cone; a resonant beta, so the violating facet
# is in the bytes; a toral block of determinant -3, so the sign of the
# determinant is too; and a Horn system with its complement matrix and
# mixedness.  Each value is unique, so a change of elimination leaves these
# bytes alone.
EXACT_REPORT_SHA256 = {
    ("facets", "--a", "[[1,1,1,1,1],[0,1,2,3,4]]"): (
        0, "264f5bac1695305f8bfc1cae32dbe6b64fba23ebd53d6dc261dba68f91d5d0a1",
    ),
    ("nonresonant", "--a", A_JSON, "--beta", '["1","-5/3"]'): (
        1, "c5d94381d099fe06d757dc54af23500c9823848a84d19ad917ceb2a20619ba3a",
    ),
    ("components", "--b", "[[0,1],[1,-2],[-2,1],[1,0]]"): (
        0, "bc4d136adc9bb05325304bfb2b2df005b971da808645ec256904dfefefa25654",
    ),
    ("horn", "--b", B_JSON, "--beta", '["1/2","1/3"]'): (
        0, "e451d9cc8f6dd220ca7841f45934bb1c8186b2ac9994a24d98b995c389dc5bff",
    ),
}


@pytest.mark.parametrize("argv", sorted(EXACT_REPORT_SHA256))
def test_exact_layer_report_bytes_are_pinned(capsys, argv):
    code, digest = EXACT_REPORT_SHA256[argv]
    assert cli.main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# A 4 x 12 matrix whose cone is not pointed: facets and nonresonant both
# exit 5.  Recorded while pointedness came from Fourier-Motzkin elimination,
# which took over 4 s here; the one cone-ray enumeration takes 220 subsets.
NOT_POINTED_4X12 = (
    "[[6,-2,0,-2,-3,-3,-3,4,2,3,6,1],[0,3,-1,-1,-3,-3,3,-1,5,-3,6,3],"
    "[1,-1,-2,4,1,-3,-3,5,-3,5,-1,-3],[1,-2,3,-2,0,-3,4,-1,1,0,4,3]]"
)
NOT_POINTED_SHA256 = "228d72229a5d37e3237f61ac920731f02bdf0863bf76b383e80c5704dde507fe"


@pytest.mark.parametrize(
    "argv",
    [
        ["facets", "--a", NOT_POINTED_4X12],
        ["nonresonant", "--a", NOT_POINTED_4X12, "--beta", '["1/2","1/3","1/5","1/7"]'],
    ],
    ids=["facets", "nonresonant"],
)
def test_a_cone_that_is_not_pointed_exits_5_in_under_a_second(capsys, argv):
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 5
    assert hashlib.sha256(out.encode()).hexdigest() == NOT_POINTED_SHA256
    assert elapsed < 1.0


# SHA-256 of two components reports with --beta, so each toral split carries
# its component ideal: lifted toric generators, the d_j of the block rows,
# the minimal unbounded monomials and the Euler operators.  Recorded while
# toral_component_ideal still placed block vectors with hand-written loops;
# the ideals are unique, so a change of embedding leaves these bytes alone.
COMPONENTS_REPORT_SHA256 = {
    ("--b", B_JSON, "--beta", '["-11/6","-5/3"]', "--a", A_JSON): (
        "545b2766aba04397815697337c29fb13f025fc8f3a3278fa49eee5ba2a76e952"
    ),
    (
        "--b", "[[1,0],[0,1],[1,3],[-1,-2]]", "--beta", '["1/5","1/7"]',
        "--a", "[[-1,-3,1,0],[1,2,0,1]]", "--monomial-cap", "4",
    ): "941f2904e997b006849ce746a6281325af735e4d3369987a27c3f2f7a906a37b",
}


@pytest.mark.parametrize("argv", sorted(COMPONENTS_REPORT_SHA256))
def test_components_report_with_beta_is_pinned(capsys, argv):
    assert cli.main(["components", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == COMPONENTS_REPORT_SHA256[argv]


def test_toric_without_positive_grading(capsys):
    # [[1, -1]] has no positive grading: toric_ideal goes through the
    # homogenized matrix [[1, -1, 0], [1, 1, 1]] instead
    code = cli.main(["toric", "--a", "[[1,-1]]"])
    out = capsys.readouterr().out
    rep = json.loads(out)  # exactly one JSON object: trailing data would not parse
    assert code == rep["exit_code"] == 0
    assert [g["poly"] for g in rep["results"]["groebner"]] == ["d1 d2 - 1"]


# ---------------------------------------------------------------------------
# Fuzzing the gamma and annihilate subcommands: for any JSON arguments the
# process exits with a documented code other than 6 (which would be a bug in
# dhyper) and prints exactly one JSON object.  Windows stay small so every
# example is bounded.

JUNK = st.one_of(
    st.booleans(), st.floats(width=16), st.text(max_size=3), st.just("1/0"), st.none(),
    st.just([]), st.just({}),
)
SMALL = st.integers(-3, 3)
RATIONAL = st.one_of(SMALL, st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 7)))


def mostly(valid, other):
    """valid in three draws of four, other in the fourth."""
    return st.integers(0, 3).flatmap(lambda k: other if k == 3 else valid)


def nodes(obj, path=()):
    """The path of every node of a JSON value, the value itself first."""
    yield path
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from nodes(value, path + (key,))


@st.composite
def flag(draw, valid):
    """JSON text of a drawn value, in one case of four with one node of it
    (possibly the whole value) replaced by junk."""
    obj = draw(valid)
    if draw(st.integers(0, 3)) == 3:
        path = draw(st.sampled_from(list(nodes(obj))))
        if not path:
            obj = draw(JUNK)
        else:
            target = obj
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = draw(JUNK)
    return json.dumps(obj)


def matrix(rows, cols):
    return st.lists(st.lists(SMALL, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def gamma_argv(draw):
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    beta = mostly(st.lists(RATIONAL, min_size=rows, max_size=rows), st.lists(RATIONAL, max_size=3))
    window = mostly(st.integers(-1, 3).map(str), JUNK.map(json.dumps))
    return [
        "gamma", "--a", draw(flag(matrix(rows, cols))), "--beta", draw(flag(beta)),
        "--window", draw(window),
    ]


@st.composite
def annihilate_argv(draw):
    n = draw(st.integers(1, 2))
    expo = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    term = st.fixed_dictionaries({"x": expo, "dx": expo, "coeff": RATIONAL})
    operator = st.fixed_dictionaries({"nvars": st.just(n), "terms": st.lists(term, max_size=3)})
    window = draw(st.integers(0, 3))
    series = st.fixed_dictionaries(
        {
            "v": st.lists(RATIONAL, min_size=n, max_size=n),
            "lattice": matrix(n, draw(st.integers(0, 2))),
            "terms": st.lists(
                st.fixed_dictionaries(
                    {"u": st.lists(SMALL, min_size=n, max_size=n), "coeff": RATIONAL}
                ),
                max_size=4,
            ),
            "window": st.just(window),
            "reliable": st.integers(-2, window + 1),
            # true next to reliable >= 0 is a contradictory frame
            "window_exhausted": st.booleans(),
        }
    )
    gens = st.lists(operator, min_size=1, max_size=3)
    return ["annihilate", "--gens", draw(flag(gens)), "--series", draw(flag(series))]


def assert_one_documented_exit(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # resonant parameters
        code = cli.main(argv)
    rep = json.loads(out.getvalue())  # exactly one JSON object: trailing data would not parse
    assert isinstance(rep, dict)
    assert code == rep["exit_code"]
    assert code in (0, 1, 2, 3, 4, 5), rep
    return code


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(gamma_argv(), annihilate_argv()))
def test_fuzzed_gamma_and_annihilate_exit_documented_codes(argv):
    assert_one_documented_exit(argv)


def operator_json(n):
    expo = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    term = st.fixed_dictionaries({"x": expo, "dx": expo, "coeff": RATIONAL})
    return st.fixed_dictionaries({"nvars": st.just(n), "terms": st.lists(term, max_size=3)})


@st.composite
def membership_argv(draw):
    # small operators, in one draw of four with one variable more than the
    # rest; the generator list may be empty; caps stay at most 4 so every
    # completion is bounded
    n = draw(st.integers(1, 2))
    operator = mostly(operator_json(n), operator_json(n + 1))
    return [
        "membership", "--gens", draw(flag(st.lists(operator, max_size=3))),
        "--query", draw(flag(operator)), "--cap", str(draw(st.integers(0, 4))),
    ]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(membership_argv())
def test_fuzzed_membership_exits_documented_codes(argv):
    assert_one_documented_exit(argv)


@st.composite
def toric_argv(draw):
    # negative entries reach matrices with no positive grading, and zero
    # columns come up too; in one draw of four the matrix may be ragged
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    ragged = st.lists(st.lists(SMALL, max_size=3), max_size=2)
    return ["toric", "--a", draw(flag(mostly(matrix(rows, cols), ragged)))]


def well_formed_without_zero_column(a):
    return (
        isinstance(a, list) and a and all(isinstance(r, list) and r and len(r) == len(a[0]) for r in a)
        and all(type(x) is int for r in a for x in r)
        and all(any(r[j] for r in a) for j in range(len(a[0])))
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(toric_argv())
def test_fuzzed_toric_exits_documented_codes(argv):
    code = assert_one_documented_exit(argv)
    if well_formed_without_zero_column(json.loads(argv[2])):
        assert code == 0


def zero_sum_columns(rows, cols):
    """Matrices whose columns sum to zero: every vector in their span has
    entries of both signs, so the span is mixed whenever it has full rank."""
    column = st.lists(SMALL, min_size=rows - 1, max_size=rows - 1).map(lambda c: c + [-sum(c)])
    return st.lists(column, min_size=cols, max_size=cols).map(lambda cs: [list(r) for r in zip(*cs)])


@st.composite
def horn_argv(draw):
    # B has one row per variable and is mostly mixed; beta mostly has one
    # entry per row of A, which spans the left kernel of B; --a is given in
    # one draw of two
    m = draw(st.integers(1, 2))
    n = draw(st.integers(m, 4))
    rank = n - m
    beta = mostly(st.lists(RATIONAL, min_size=rank, max_size=rank), st.lists(RATIONAL, max_size=3))
    b = mostly(zero_sum_columns(n, m), matrix(n, m))
    argv = ["horn", "--b", draw(flag(b)), "--beta", draw(flag(beta))]
    if draw(st.booleans()):
        argv += ["--a", draw(flag(mostly(matrix(rank or 1, n), matrix(1, draw(st.integers(1, 4))))))]
    return argv


@st.composite
def ahyp_argv(draw):
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    beta = mostly(st.lists(RATIONAL, min_size=rows, max_size=rows), st.lists(RATIONAL, max_size=3))
    return ["ahyp", "--a", draw(flag(matrix(rows, cols))), "--beta", draw(flag(beta))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(horn_argv())
def test_fuzzed_horn_exits_documented_codes(argv):
    assert_one_documented_exit(argv)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ahyp_argv())
def test_fuzzed_ahyp_exits_documented_codes(argv):
    # ahyp reaches toric_ideal, and so the packed commutative core
    assert_one_documented_exit(argv)


@st.composite
def facets_argv(draw):
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    ragged = st.lists(st.lists(SMALL, max_size=3), max_size=2)
    return ["facets", "--a", draw(flag(mostly(matrix(rows, cols), ragged)))]


@st.composite
def nonresonant_argv(draw):
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    beta = mostly(st.lists(RATIONAL, min_size=rows, max_size=rows), st.lists(RATIONAL, max_size=3))
    return ["nonresonant", "--a", draw(flag(matrix(rows, cols))), "--beta", draw(flag(beta))]


@st.composite
def components_argv(draw):
    # as for horn, and in one draw of two with --beta, which builds each
    # toral component's ideal; the monomial cap stays at most 3
    m = draw(st.integers(1, 2))
    n = draw(st.integers(m, 4))
    rank = n - m
    argv = ["components", "--b", draw(flag(mostly(zero_sum_columns(n, m), matrix(n, m))))]
    if draw(st.booleans()):
        beta = mostly(st.lists(RATIONAL, min_size=rank, max_size=rank), st.lists(RATIONAL, max_size=3))
        argv += ["--beta", draw(flag(beta))]
    if draw(st.booleans()):
        argv += ["--a", draw(flag(mostly(matrix(rank or 1, n), matrix(1, draw(st.integers(1, 4))))))]
    return argv + ["--monomial-cap", str(draw(st.integers(-1, 3)))]


@st.composite
def mgraph_argv(draw):
    # the search box has (cap + 1)^rows points: cap stays at most 5
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    m = mostly(zero_sum_columns(rows, cols) if rows > 1 else matrix(rows, cols), matrix(rows, cols))
    return ["mgraph", "--m", draw(flag(m)), "--cap", str(draw(st.integers(-1, 5)))]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(facets_argv(), nonresonant_argv(), components_argv(), mgraph_argv()))
def test_fuzzed_facets_nonresonant_components_mgraph_exit_documented_codes(argv):
    assert_one_documented_exit(argv)


@st.composite
def erdelyi_argv(draw):
    # parameters as --a-param=p/q, so a negative one is not read as a flag;
    # window and cap stay at most 4 so both completions stay small
    param = mostly(RATIONAL.map(str), st.sampled_from(["x", "1/0", "0.5", "", "true"]))
    return [
        "example-erdelyi", f"--a-param={draw(param)}", f"--a-prime={draw(param)}",
        "--window", str(draw(st.integers(0, 4))), "--cap", str(draw(st.integers(0, 4))),
    ]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(erdelyi_argv())
def test_fuzzed_example_erdelyi_exits_documented_codes(argv):
    assert_one_documented_exit(argv)
