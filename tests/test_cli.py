import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from curvecount import cli, evaluate, parse, render


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


_LEDGER_FILES = {
    "failing.json": json.dumps({"ledgers": [{"name": "off-by-one", "total": 2875, "components": [
        {"label": "hyperplane", "equivalence": 1275}, {"label": "quartic", "equivalence": 1601}]}]}),
    "unreadable.json": "{nope",
}

# every command, text and JSON, on success, bad input and usage errors;
# "{tmp}" stands for the directory that holds _LEDGER_FILES
_PINNED_INVOCATIONS = [
    *[[*command, *flag] for command in [
        ["grass", "integrate(sigma[1]^6) in G(2,5)"],
        ["grass", "sigma[1]*sigma[1] in G(2,4)"],
        ["grass", "sigma[1"],
        ["grass", "c(1, sym(13, Q)) in G(2,6)"],
        ["grass", "c(1, quotient(sym(2, Sdual), Sdual)) in G(2,5)"],
        ["count", "lines", "--ambient", "4", "--degrees", "5"],
        ["count", "lines", "--ambient", "4", "--degrees", "3"],
        ["count", "lines", "--ambient", "4", "--degrees", "6"],
        ["count", "lines", "--ambient", "4"],
        ["count", "lines", "--ambient", "4", "--degrees", "0"],
        ["count", "conics", "--ambient", "4", "--degrees", "5"],
        ["count", "conics", "--ambient", "4", "--degrees", "4"],
        ["count", "conics", "--ambient", "4", "--degrees", "7"],
        ["count", "conics", "--degrees", "5"],
        ["count", "conics", "--ambient", "2", "--degrees", "5"],
        ["equivalence", "--family-dim", "1", "--chern-integrals", "0,20"],
        ["equivalence", "--cover", "3"],
        ["equivalence", "--cover", "2", "--chern-integrals", "1"],
        ["equivalence", "--family-dim", "2", "--chern-integrals", "0,1"],
        ["ledger", "check"],
        ["ledger", "check", "{tmp}/failing.json"],
        ["ledger", "check", "{tmp}/unreadable.json"],
        ["ledger", "check", "{tmp}/missing.json"],
        ["verify", "--suite", "classical"],
        ["count", "lines", "--ambient", "4", "--degrees", "five"],
        ["equivalence", "--cover", "2", "--family-dim", "1"],
    ] for flag in ([], ["--json"])],
    [],
    ["ledger"],
    ["--help"],
    ["count", "--help"],
]


# one invocation of each command, for the tests of the output contract
_ONE_PER_COMMAND = [
    ["grass", "integrate(sigma[1]^6) in G(2,5)"],
    ["count", "lines", "--ambient", "4", "--degrees", "5"],
    ["equivalence", "--cover", "3"],
    ["ledger", "check"],
    ["verify", "--suite", "classical"],
]


def test_every_cli_output_is_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to the terminal width
    for name, text in _LEDGER_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    digest = hashlib.sha256()
    for argv in _PINNED_INVOCATIONS:
        code, out, err = run_cli(capsys, *(arg.replace("{tmp}", str(tmp_path)) for arg in argv))
        if "--json" in argv and out:
            payload = json.loads(out)
            payload.pop("timings_ms", None)
            out = json.dumps(payload, indent=2)
        out, err = (text.replace(str(tmp_path), "<tmp>") for text in (out, err))
        if "--help" in argv:
            # the words only: Python 3.13 aligns help columns differently, and
            # 3.10 heads the option list "optional arguments:"
            out = " ".join(out.replace("optional arguments:", "options:").split())
        digest.update(repr((code, out, err)).encode())
    assert digest.hexdigest() == "f08e7e497fdf7b3c6d370420116b0e5e5c67bdc6385072ce842f94c24dde279e"


@pytest.mark.parametrize(
    "argv",
    [*_ONE_PER_COMMAND, ["count", "conics", "--ambient", "4", "--degrees", "5"],
     ["equivalence", "--family-dim", "0"], ["ledger", "check", "{tmp}/failing.json"]],
    ids=["grass", "count-lines", "equivalence-cover", "ledger-builtin", "verify",
         "count-conics", "equivalence-family", "ledger-failing"],
)
def test_every_json_payload_ends_with_its_timing(tmp_path, capsys, argv):
    (tmp_path / "failing.json").write_text(_LEDGER_FILES["failing.json"], encoding="utf-8")
    code, payload = run_json(capsys, *(arg.replace("{tmp}", str(tmp_path)) for arg in argv), "--json")
    assert code == (1 if "failing" in argv[-1] else 0)
    assert list(payload)[-1] == "timings_ms"
    assert isinstance(payload["timings_ms"], float) and payload["timings_ms"] >= 0


# the library call each command of _ONE_PER_COMMAND makes
_LIBRARY_CALLS = [
    "curvecount.dsl.evaluate",
    "curvecount.recipes._count",
    "curvecount.cli.multiple_cover_weight",
    "curvecount.cli.builtin_ledgers",
    "curvecount.suites.run_suite",
]


@pytest.mark.parametrize(
    "exc, code, err",
    [(ValueError("bad numbers"), 1, "error: bad numbers\n"),
     (RuntimeError("wires crossed"), 2, "internal error: wires crossed\n")],
    ids=["ValueError", "RuntimeError"],
)
@pytest.mark.parametrize("argv, call", zip(_ONE_PER_COMMAND, _LIBRARY_CALLS),
                         ids=[argv[0] for argv in _ONE_PER_COMMAND])
def test_library_errors_map_to_exit_codes(monkeypatch, capsys, argv, call, exc, code, err):
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(call, boom)
    for flags in ([], ["--json"]):
        assert run_cli(capsys, *argv, *flags) == (code, "", err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that refuses writes")
def test_unwritable_output_exits_one():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "curvecount", *_ONE_PER_COMMAND[0]],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
        )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: [Errno 28]")


def test_grass_integer_text(capsys):
    code, out, err = run_cli(capsys, "grass", "integrate(sigma[1]^6) in G(2,5)")
    assert code == 0
    assert out == "5\n"
    assert err == ""


def test_grass_cycle_text(capsys):
    code, out, _ = run_cli(capsys, "grass", "sigma[1]*sigma[1] in G(2,4)")
    assert code == 0
    assert out == "sigma[2] + sigma[1,1]\n"


def test_grass_json_schema(capsys):
    code, payload = run_json(capsys, "grass", "--json", "integrate(c(6, sym(5, Sdual))) in G(2,5)")
    assert code == 0
    assert payload["query"] == "integrate(c(6, sym(5, Sdual))) in G(2,5)"
    assert payload["context"] == "G(2,5)"
    assert payload["result"] == {"kind": "integer", "value": 2875}
    assert isinstance(payload["timings_ms"], float)


def test_grass_json_cycle(capsys):
    code, payload = run_json(capsys, "grass", "--json", "sigma[1]*sigma[1] in G(2,4)")
    assert code == 0
    assert payload["result"] == {"kind": "cycle", "value": "sigma[2] + sigma[1,1]"}


def test_grass_results_are_stable(capsys):
    runs = []
    for _ in range(2):
        _, payload = run_json(capsys, "grass", "--json", "sigma[2]*sigma[1,1] in G(3,6)")
        payload.pop("timings_ms")
        runs.append(payload)
    assert runs[0] == runs[1]


def test_grass_syntax_error_exits_one(capsys):
    code, out, err = run_cli(capsys, "grass", "sigma[1")
    assert code == 1
    assert out == ""
    assert "syntax error" in err
    assert "column 8" in err


def test_grass_non_ascii_digit_is_a_syntax_error(capsys):
    code, out, err = run_cli(capsys, "grass", "sigma[²] in G(2,4)")
    assert code == 1
    assert out == ""
    assert err.strip() == "syntax error at line 1, column 7: unexpected character '²'"


def test_grass_overlong_integer_is_a_syntax_error(capsys):
    # int() refuses more than 4300 digits; that is the query's fault, not ours
    code, out, err = run_cli(capsys, "grass", "sigma[" + "1" * 5000 + "] in G(2,4)")
    assert code == 1
    assert out == ""
    assert err.strip() == "syntax error at line 1, column 7: integer literal too long"


@pytest.mark.parametrize("query", ["{} in G(1,2)", "({})*sigma[1] in G(1,2)"], ids=["integer", "cycle"])
def test_grass_result_past_the_integer_digit_limit_exits_one(capsys, query):
    # nine factors within the size caps; the product has about 10800 digits
    code, out, err = run_cli(capsys, "grass", query.format("*".join(["99999999999999999999^60"] * 9)))
    assert code == 1
    assert out == ""
    assert err == (f"evaluation error: the result holds an integer of more than {sys.get_int_max_str_digits()} "
                   "digits, the interpreter's limit for converting an integer to text\n")


def test_equivalence_cover_past_the_integer_digit_limit_exits_one(capsys):
    # 1/m^3 for a 1501-digit m has a 4501-digit denominator
    for json_flag in ([], ["--json"]):
        code, out, err = run_cli(capsys, "equivalence", *json_flag, "--cover", "1" + "0" * 1500)
        assert code == 1
        assert out == ""
        assert err == (f"error: the weight's denominator has more than {sys.get_int_max_str_digits()} digits, "
                       "the interpreter's limit for converting an integer to text\n")


def test_grass_semantic_error_exits_one(capsys):
    code, _, err = run_cli(capsys, "grass", "zeta in G(2,4)")
    assert code == 1
    assert "evaluation error" in err


@pytest.mark.parametrize(
    "query",
    ["c(1, sym(13, Q)) in G(2,6)", "sigma[1] in G(5,11)", "c(1, sym(2, sym(12, Q))) in G(2,6)", "sigma[1]^65 in G(2,5)"],
)
def test_grass_size_cap_exits_one(capsys, query):
    code, out, err = run_cli(capsys, "grass", query)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "above the cap" in err


@pytest.mark.parametrize(
    "query, diagnostic",
    [
        ("(" * 5000 + "sigma[1]" + ")" * 5000 + " in G(2,4)", "syntax error"),
        ("c(1, " + "dual(" * 3000 + "S" + ")" * 3000 + ") in G(2,4)", "syntax error"),
        ("-" * 5000 + "1 in G(2,4)", "syntax error"),
        ("integrate(" * 3000 + "1" + ")" * 3000 + " in G(2,4)", "syntax error"),
    ],
    ids=["parentheses", "duals", "unary-minuses", "integrates"],
)
def test_grass_deep_nesting_exits_one(capsys, query, diagnostic):
    code, out, err = run_cli(capsys, "grass", query)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(diagnostic) and err.rstrip().endswith("expression nests too deeply")


def test_grass_long_chains_are_not_nesting(capsys):
    # a product or sum is one node however long it is
    product = "integrate(" + "*".join(["sigma[1]"] * 3001) + ") in G(2,4)"
    assert run_cli(capsys, "grass", product) == (0, "0\n", "")
    assert render(parse(product)) == product
    assert parse(product) == parse(product) and hash(parse(product)) == hash(parse(product))
    total = " + ".join(["sigma[1]"] * 3000) + " - sigma[2] in G(2,4)"
    assert render(parse(total)) == total
    assert evaluate(total).rendered == "3000*sigma[1] - sigma[2]"


def test_count_lines_text(capsys):
    code, out, _ = run_cli(capsys, "count", "lines", "--ambient", "4", "--degrees", "5")
    assert code == 0
    assert "count:         2875" in out
    assert "calabi-yau:    yes" in out


def test_count_lines_json(capsys):
    code, payload = run_json(capsys, "count", "lines", "--json", "--ambient", "7", "--degrees", "2,2,2,2")
    assert code == 0
    assert payload["outcome"] == {"count": 512}
    assert payload["degrees"] == [2, 2, 2, 2]
    assert payload["moduli_dim"] == 12


def test_count_json_carries_the_query(capsys):
    code, payload = run_json(capsys, "count", "lines", "--json", "--ambient", "4", "--degrees", "5")
    assert code == 0
    assert payload["query"] == "integrate(c(6, sym(5, Sdual))) in G(2,5)"
    _, grass = run_json(capsys, "grass", "--json", payload["query"])
    assert grass["result"]["value"] == payload["outcome"]["count"] == 2875
    code, sextic = run_json(capsys, "count", "lines", "--json", "--ambient", "4", "--degrees", "6")
    assert code == 0
    assert "query" in sextic and sextic["query"] is None


def test_count_text_shows_the_query(capsys):
    code, out, _ = run_cli(capsys, "count", "conics", "--ambient", "5", "--degrees", "3,3")
    assert code == 0
    assert "query:         integrate(c(14, sum(quotient(sym(3, Sdual), twist(sym(1, Sdual), -1))," in out


def test_grass_quotient_that_is_no_bundle_exits_one(capsys):
    code, out, err = run_cli(capsys, "grass", "c(1, quotient(sym(2, Sdual), Sdual)) in G(2,5)")
    assert code == 1
    assert out == ""
    assert "evaluation error" in err and "not a bundle of rank 1" in err


def test_count_lines_family_json(capsys):
    code, payload = run_json(capsys, "count", "lines", "--json", "--ambient", "4", "--degrees", "3")
    assert code == 0
    assert payload["outcome"] == {"family_dimension": 2}
    assert payload["calabi_yau"] is False
    assert payload["expected_empty"] is False


def test_count_expected_empty_json(capsys):
    code, payload = run_json(capsys, "count", "lines", "--json", "--ambient", "4", "--degrees", "6")
    assert code == 0
    assert payload["outcome"] == {"family_dimension": -1}
    assert payload["expected_empty"] is True
    _, quintic = run_json(capsys, "count", "conics", "--json", "--ambient", "4", "--degrees", "5")
    assert quintic["expected_empty"] is False


def test_count_conics_json(capsys):
    code, payload = run_json(capsys, "count", "conics", "--json", "--ambient", "4", "--degrees", "5")
    assert code == 0
    assert payload["outcome"] == {"count": 609250}
    assert payload["recipe"] == "conics"


def test_count_conics_ci_json(capsys):
    code, payload = run_json(capsys, "count", "conics", "--json", "--ambient", "5", "--degrees", "3,3")
    assert code == 0
    assert payload["outcome"] == {"count": 52812}
    assert (payload["moduli_dim"], payload["bundle_rank"]) == (14, 14)
    assert payload["calabi_yau"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["conics"],
        ["lines", "--degrees", "5"],
        ["lines", "--ambient", "4"],
    ],
)
def test_count_flag_combinations_exit_one(capsys, argv):
    code, out, err = run_cli(capsys, "count", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_count_bad_input_exits_one(capsys):
    code, _, err = run_cli(capsys, "count", "lines", "--ambient", "2", "--degrees", "5")
    assert code == 1
    assert "error" in err
    code, _, err = run_cli(capsys, "count", "conics", "--ambient", "2", "--degrees", "5")
    assert code == 1


def test_count_malformed_degrees_exits_one(capsys):
    code, _, err = run_cli(capsys, "count", "lines", "--ambient", "4", "--degrees", "five")
    assert code == 1
    assert "comma-separated" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "lines", "--ambient", "٤", "--degrees", "5"],
        ["count", "lines", "--ambient", "4", "--degrees", "٥"],
        ["count", "lines", "--ambient", "4", "--degrees", "5_0"],
        ["count", "lines", "--ambient", "+4", "--degrees", "5"],
        ["count", "lines", "--ambient", " 4", "--degrees", "5"],
        ["count", "lines", "--ambient", "4", "--degrees", "5,"],
        ["count", "lines", "--ambient", "4", "--degrees", "2,-"],
        ["equivalence", "--cover", "٣"],
        ["equivalence", "--family-dim", "１"],
        ["equivalence", "--family-dim", "1", "--chern-integrals", "0,٢"],
        ["verify", "--suite", "classical", "--seed", "٧"],
        # more digits than int() converts: the error names the problem, not the digits
        ["count", "lines", "--ambient", "1" * 5000, "--degrees", "5"],
        ["count", "lines", "--ambient", "4", "--degrees", "5," + "1" * 5000],
    ],
)
def test_integer_options_take_only_ascii_digits(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "error: argument" in err
    assert "_int" not in err
    assert len(err) < 500


def test_negative_chern_integrals_are_integers(capsys):
    code, out, _ = run_cli(capsys, "equivalence", "--family-dim", "1", "--chern-integrals=0,-3")
    assert code == 0
    assert "piece: -3" in out


def test_equivalence_family(capsys):
    code, out, _ = run_cli(capsys, "equivalence", "--family-dim", "1", "--chern-integrals", "0,20")
    assert code == 0
    assert "20" in out
    assert "connected" in out


def test_equivalence_family_json(capsys):
    code, payload = run_json(capsys, "equivalence", "--json", "--family-dim", "0")
    assert code == 0
    assert payload["equivalence"] == 1


def test_equivalence_cover(capsys):
    code, payload = run_json(capsys, "equivalence", "--json", "--cover", "3")
    assert code == 0
    assert payload["weight"] == "1/27"
    code, out, _ = run_cli(capsys, "equivalence", "--cover", "2")
    assert code == 0
    assert "1/8" in out


def test_equivalence_missing_data_exits_one(capsys):
    code, _, err = run_cli(capsys, "equivalence", "--family-dim", "2", "--chern-integrals", "0,1")
    assert code == 1
    assert "c_2" in err


def test_equivalence_flag_conflicts(capsys):
    code, _, err = run_cli(capsys, "equivalence", "--cover", "2", "--chern-integrals", "1")
    assert code == 1
    code, _, err = run_cli(capsys, "equivalence", "--cover", "2", "--family-dim", "1")
    assert code == 1


def test_ledger_check_builtin(capsys):
    code, out, _ = run_cli(capsys, "ledger", "check")
    assert code == 0
    assert out.count("PASS") == 5
    assert "5 ledgers, 0 failed" in out


def test_ledger_check_builtin_json(capsys):
    code, payload = run_json(capsys, "ledger", "check", "--json")
    assert code == 0
    assert payload["ok"] is True
    assert len(payload["ledgers"]) == 5
    assert all(entry["residual"] == 0 for entry in payload["ledgers"])


def test_ledger_check_failing_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({
        "ledgers": [{
            "name": "off-by-six-hundred",
            "total": 609250,
            "components": [
                {"label": "a", "equivalence": 187250},
                {"label": "b", "equivalence": 258200},
                {"label": "c", "equivalence": 163200},
            ],
        }]
    }))
    code, out, _ = run_cli(capsys, "ledger", "check", str(path))
    assert code == 1
    assert "FAIL off-by-six-hundred" in out
    assert "residual 600" in out


def test_ledger_check_rejects_booleans(tmp_path, capsys):
    path = tmp_path / "booleans.json"
    path.write_text(json.dumps({
        "ledgers": [{"name": "truthy", "total": True,
                     "components": [{"label": "a", "equivalence": True, "count": True}]}]
    }))
    code, out, err = run_cli(capsys, "ledger", "check", str(path))
    assert code == 1
    assert "PASS" not in out
    assert "integer" in err


def test_ledger_check_bad_file_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, _, err = run_cli(capsys, "ledger", "check", str(path))
    assert code == 1
    assert "error" in err
    code, _, err = run_cli(capsys, "ledger", "check", str(tmp_path / "missing.json"))
    assert code == 1


def test_ledger_check_file_not_utf8_names_the_file(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff{}")
    code, out, err = run_cli(capsys, "ledger", "check", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: ")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit on integer digits")
def test_ledger_check_overlong_integer_names_the_file(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"ledgers": [{"name": "x", "total": ' + "9" * 5001 + ', "components": []}]}')
    code, out, err = run_cli(capsys, "ledger", "check", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: ")


def test_ledger_check_deeply_nested_file_exits_one(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run_cli(capsys, "ledger", "check", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: not valid JSON (nested too deeply)\n"


def test_verify_classical(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "classical")
    assert code == 0
    assert "FAIL" not in out
    assert "0 failed" in out
    assert "2875" in out
    assert "609250" in out


def test_verify_json(capsys):
    code, payload = run_json(capsys, "verify", "--json", "--suite", "classical")
    assert code == 0
    assert payload["passed"] is True
    names = [check["name"] for check in payload["checks"]]
    assert "lines-5-in-P4" in names
    assert "conics-5-in-P4" in names
    assert sum(1 for n in names if n.startswith("ledger-")) == 5


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nonsense")
    assert code == 1
    assert "invalid choice" in err


def test_verify_suite_choices_match_the_suites():
    from curvecount import suites

    assert cli.SUITE_NAMES == suites.SUITE_NAMES


def test_verify_failure_exits_one(monkeypatch, capsys):
    from curvecount import suites

    monkeypatch.setattr(suites, "run_suite", lambda name, seed=0: [suites.CheckResult("x", "1", "2", False)])
    code, out, _ = run_cli(capsys, "verify", "--suite", "classical")
    assert code == 1
    assert "FAIL x" in out


def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "usage" in err
    code, _, err = run_cli(capsys, "ledger")
    assert code == 1


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "grass" in out


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "curvecount", "grass", "integrate(sigma[1]^4) in G(2,4)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"


@pytest.mark.parametrize("argv", _ONE_PER_COMMAND, ids=[argv[0] for argv in _ONE_PER_COMMAND])
def test_closed_output_pipe_exits_one_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "curvecount", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def _run_bare(*args):
    """Run python -S (no site packages) on the source tree; return the process."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-S", *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _imported(*args):
    """Names of the modules a python -S process imports, read from -X importtime."""
    proc = _run_bare("-X", "importtime", *args)
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}


def test_import_loads_no_dataclasses_inspect_or_resources():
    assert not _imported("-c", "import curvecount") & {"dataclasses", "inspect", "importlib.resources"}


def test_import_and_count_load_no_suites_or_fractions():
    lazy = {"curvecount.suites", "fractions", "decimal"}
    loaded = _imported("-c", "import curvecount")
    assert "curvecount.recipes" in loaded and not loaded & lazy
    loaded = _imported("-m", "curvecount", "count", "lines", "--ambient", "4", "--degrees", "5", "--json")
    assert "curvecount.cli" in loaded and not loaded & lazy
    assert "curvecount.suites" in _imported("-m", "curvecount", "verify", "--suite", "classical")


_SUITE_NAMES_ON_FIRST_ACCESS = """
import sys, curvecount
listed = [n for n in curvecount.__all__ if n not in dir(curvecount)]
print("curvecount.suites" in sys.modules, listed)
print(curvecount.run_suite is sys.modules["curvecount.suites"].run_suite,
      curvecount.CheckResult is sys.modules["curvecount.suites"].CheckResult, curvecount.SUITE_NAMES)
names = {}
exec("from curvecount import *", names)
print([n for n in curvecount.__all__ if n not in names])
try:
    curvecount.no_such_name
except AttributeError as exc:
    print(exc)
"""


def test_suite_names_resolve_on_first_access():
    assert _run_bare("-c", _SUITE_NAMES_ON_FIRST_ACCESS).stdout.splitlines() == [
        "False []",
        "True True ('classical', 'properties', 'all')",
        "[]",
        "module 'curvecount' has no attribute 'no_such_name'",
    ]


def test_console_script_subprocess():
    proc = subprocess.run(
        ["curvecount", "count", "lines", "--ambient", "3", "--degrees", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "count:         27" in proc.stdout
