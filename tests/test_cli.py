import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mqtorsion import hyperjac, mwtors
from mqtorsion.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")

# derandomized, so that every run draws the same examples
PROPERTY = settings(
    derandomize=True, database=None, deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_bad_input(capsys, *argv):
    """(exit code, stdout, stderr) of a call that argparse may end by exit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def assert_one_line_error(code, out, err):
    assert code == 2 and out == "", (code, out, err)
    assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err, err


class TestJacStructure:
    def test_x18_f49(self, capsys):
        code, out, _ = run(capsys, "jac-structure", "--model", "X1(18)", "--prime", "7", "--deg", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["structure"] == [3, 651]
        assert payload["zeta_check"]["order"] == 1953

    def test_x13_f25(self, capsys):
        code, out, _ = run(capsys, "jac-structure", "--model", "X1(13)", "--prime", "5", "--deg", "2")
        assert code == 0
        assert json.loads(out)["order"] == 361

    def test_deg1_counts_the_zeta_function_once(self, capsys, monkeypatch):
        """The census and the zeta cross-check of a deg-1 call read one
        count of the same curve."""
        counted = []
        zeta_order = hyperjac.zeta_order
        monkeypatch.setattr(hyperjac, "zeta_order", lambda C: counted.append(C) or zeta_order(C))
        for memo in (mwtors.zeta, mwtors.census, mwtors.jac_structure):
            memo.cache_clear()
        code, out, _ = run(capsys, "jac-structure", "--model", "X1(13)", "--prime", "31", "--deg", "1")
        assert code == 0 and json.loads(out)["zeta_check"]["order"] == 912
        assert len(counted) == 1

    def test_even_prime_exit_2(self, capsys):
        code, _, err = run(capsys, "jac-structure", "--model", "X1(13)", "--prime", "2")
        assert code == 2 and "error" in err

    def test_unknown_model_exit_2(self, capsys):
        code, _, _ = run(capsys, "jac-structure", "--model", "X1(99)", "--prime", "3")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("jac-structure", "--model", "X1(13)", "--prime", "10000019", "--deg", "2"),
            ("torsion", "--model", "X1(11)", "--field=Q", "--primes", "1031"),
        ],
    )
    def test_field_too_large_for_tables_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "too large" in err and "Traceback" not in err


class TestTorsion:
    def test_x15_closed(self, capsys):
        code, out, _ = run(capsys, "torsion", "--model", "X1(15)", "--field=-3,5")
        assert code == 0
        payload = json.loads(out)
        assert payload["closed"] and payload["lower"] == [2, 8]

    def test_x11_over_q23(self, capsys):
        code, out, _ = run(capsys, "torsion", "--model", "X1(11)", "--field", "2,3")
        assert code == 0 and json.loads(out)["lower"] == [5]

    def test_precondition_exit_2(self, capsys):
        code, _, err = run(capsys, "torsion", "--model", "X1(4,8)", "--field", "Q")
        assert code == 2 and "sqrt(-1)" in err

    def test_table_mode(self, capsys):
        code, out, _ = run(capsys, "torsion", "--model", "X1(16)", "--field=-2", "--mode", "table")
        assert code == 0 and json.loads(out)["lower"] == [2, 10]

    def test_external_model_file(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "label": "ext-11", "level": [1, 11], "genus": 1,
            "base_field": "Q", "coeffs": [0, -1, -1, 0, 0],
            "source": "external test model",
        }))
        code, out, _ = run(capsys, "torsion", "--model", str(path), "--field", "Q", "--primes", "3,5")
        assert code == 0 and json.loads(out)["lower"] == [5]
        code, _, err = run(capsys, "torsion", "--model", str(path), "--field", "Q", "--mode", "table")
        assert code == 2

    def test_model_file_with_a_builtin_label(self, capsys, tmp_path):
        # the X1(13) curve under the label of X1(16): answered from the file
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "label": "X1(16)", "level": [1, 13], "genus": 2, "base_field": "Q",
            "f_coeffs": [1, -4, 6, -2, 1, -2, 1], "primes": [3, 5],
        }))
        code, out, _ = run(capsys, "torsion", "--model", str(path), "--field", "Q")
        assert code == 0 and json.loads(out)["lower"] == [19]

    def test_non_monic_model_file(self, capsys, tmp_path):
        # leading coefficient 49: the monic associate must stay integral
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "label": "m", "level": [1, 16], "genus": 2, "base_field": "Q",
            "f_coeffs": [0, -1, 2, 0, 2, 49], "primes": [3, 5],
        }))
        code, out, err = run(capsys, "torsion", "--model", str(path), "--field=-1")
        assert code == 3 and err == ""
        assert json.loads(out)["lower"] == [2]

    @pytest.mark.parametrize("content", [
        {"label": "m", "level": [1, 16], "genus": 2, "base_field": "Q", "primes": [3, 5]},
        {"label": "m", "level": [1, 11], "genus": 1, "base_field": "Q",
         "coeffs": [0, -1, -1, 1.5, 0], "primes": [3, 5]},
        [{"label": "m", "level": [1, 11], "genus": 1, "base_field": "Q", "coeffs": [0, -1, -1, 0, 0]}],
        {"level": [1, 11], "genus": 1, "base_field": "Q", "coeffs": [0, -1, -1, 0, 0]},
        {"label": "m", "level": [1, 11], "genus": 1, "base_field": "Q",
         "coeffs": [0, -1, -1, 0, 0], "torsion_table": 5},
    ], ids=["no-f_coeffs", "float-coefficient", "json-array", "no-label", "bad-torsion_table"])
    def test_malformed_model_file_exit_2(self, capsys, tmp_path, content):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(content))
        code, out, err = run(capsys, "torsion", "--model", str(path), "--field", "Q")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err

    def test_model_path_is_a_directory_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "torsion", "--model", str(tmp_path), "--field", "Q")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "Is a directory" in err

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run(capsys, "torsion", "--model", "X1(14)", "--field=-7")
        _, out2, _ = run(capsys, "torsion", "--model", "X1(14)", "--field=-7")
        assert out1 == out2

    @pytest.mark.parametrize("model,prime", [("X1(13)", "19"), ("X1(18)", "7"), ("X1(11)", "5")])
    def test_lone_prime_at_torsion_order_exit_2(self, capsys, model, prime):
        code, out, err = run(capsys, "torsion", "--model", model, "--field=Q", "--primes", prime)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and f"{prime}-part" in err and "Traceback" not in err

    @pytest.mark.parametrize("field", ["99999999999999999999999", "3,-1000001"])
    def test_huge_generator_exit_2(self, capsys, field):
        code, out, err = run(capsys, "torsion", "--model", "X1(11)", f"--field={field}")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "exceeds 1000000" in err

    def test_more_than_20_independent_generators_exit_2(self, capsys):
        primes = "2,3,5,7,11,13,17,19,23,29,31,37,41,43,47,53,59,61,67,71,73"
        code, out, err = run(capsys, "torsion", "--model", "X1(11)", f"--field=-1,{primes}", "--mode", "derive")
        assert code == 2 and out == ""
        assert err == "error: field of 22 independent generators exceeds 20\n"

    def test_generator_at_the_bound_accepted(self, capsys):
        code, out, _ = run(capsys, "torsion", "--model", "X1(11)", "--field=-999979")
        assert code == 0 and json.loads(out)["lower"] == [5]

    def test_formats_carry_same_data(self, capsys):
        _, outj, _ = run(capsys, "torsion", "--model", "X1(11)", "--field", "Q")
        _, outt, _ = run(capsys, "torsion", "--model", "X1(11)", "--field", "Q", "--format", "tsv")
        payload = json.loads(outj)
        lines = dict(line.split("\t", 1) for line in outt.strip().splitlines())
        assert json.loads(lines["lower"]) == payload["lower"]
        assert lines["closed"] == str(payload["closed"])


class TestClassify:
    def test_14_exactly_two(self, capsys):
        code, out, _ = run(capsys, "classify", "--torsion", "14", "--field=-7", "--ranks", "defaults")
        assert code == 0
        payload = json.loads(out)
        assert payload["existence"] == "exactly" and payload["count"] == 2
        assert len(payload["exceptional_curves"]) == 2

    def test_13_conditional_exit_0(self, capsys):
        code, out, _ = run(capsys, "classify", "--torsion", "13", "--field=-3,5")
        assert code == 0
        assert json.loads(out)["existence"] == "no_conclusion"

    def test_6x6_precondition_exit_2(self, capsys):
        code, _, _ = run(capsys, "classify", "--torsion", "6x6", "--field", "2")
        assert code == 2

    def test_custom_rank_file(self, capsys, tmp_path):
        path = tmp_path / "ranks.json"
        path.write_text(json.dumps({"ranks": [
            {"jacobian": "X1(11)", "twist": 1, "rank": 1, "source": "test fixture"}
        ]}))
        code, out, _ = run(capsys, "classify", "--torsion", "11", "--field", "Q", "--ranks", str(path))
        assert code == 0 and json.loads(out)["existence"] == "infinitely_many"


class TestVerify:
    def test_only_model(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "X1(11)")
        assert code == 0
        assert "pass  model-integrity X1(11)" in out
        assert "pass  torsion-matrix X1(11)" in out

    def test_only_scan(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "scan")
        assert code == 0 and "no order-16" in out

    def test_only_exceptional(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "exceptional")
        assert code == 0 and out.count("pass") >= 4

    def test_json_format_matches_text(self, capsys):
        code_t, out_t, _ = run(capsys, "verify", "--only", "scan")
        code_j, out_j, _ = run(capsys, "verify", "--only", "scan", "--format", "json")
        payload = json.loads(out_j)
        assert code_j == code_t == 0
        assert payload["ok"] is True and payload["total"] == len(payload["checks"]) == 1
        text_status = [line.split()[0] == "pass" for line in out_t.splitlines()[:-1]]
        assert [c["passed"] for c in payload["checks"]] == text_status
        assert payload["checks"][0]["name"] == "scan F9 no order-16"

    def test_unknown_group_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--only", "bogus")
        assert code == 2

    def test_table_mismatch_is_reported(self, capsys, monkeypatch):
        """A closed derive that disagrees with the table is a FAIL line of
        the report and exit 1, not an aborted run."""
        lookup = mwtors.table_lookup
        wrong = lambda label, K: (4,) if K.signature() == (1, -1) else lookup(label, K)
        monkeypatch.setattr(mwtors, "table_lookup", wrong)
        code, out, err = run(capsys, "verify", "--only", "X1(2,12)")
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "pass  model-integrity X1(2,12)",
            "FAIL  torsion-matrix X1(2,12)  ([((1, -1), '[8] != [4]')])",
            "FAIL  total: 2 checks",
        ]


class TestBadInput:
    """Malformed arguments and files exit 2 with one line on stderr."""

    @pytest.mark.parametrize("argv", [
        (),
        ("bogus",),
        ("torsion",),
        ("torsion", "--model", "X1(11)"),
        ("torsion", "--model", "X1(11)", "--field=Q", "--mode", "bogus"),
        ("torsion", "--model", "X1(11)", "--field=Q", "--format", "xml"),
        ("torsion", "--model", "X1(11)", "--field=Q", "--bogus"),
        ("torsion", "--model", "X1(11)", "--field=3_0"),
        ("torsion", "--model", "X1(11)", "--field=\u0663"),
        ("torsion", "--model", "X1(11)", "--field=Q", "--primes", ","),
        ("jac-structure", "--model", "X1(13)", "--prime", "abc"),
        ("jac-structure", "--model", "X1(13)", "--prime", "3", "--deg", "x"),
        ("jac-structure", "--model", "X1(13)"),
        ("classify", "--torsion", "14"),
        ("classify", "--torsion", "14", "--field=Q", "--ranks", "/nonexistent/ranks.json"),
        ("verify", "--only"),
    ])
    def test_malformed_arguments(self, capsys, argv):
        assert_one_line_error(*run_bad_input(capsys, *argv))

    @pytest.mark.parametrize("primes", ["1_3", "\u0661\u0663", "13,", ",", " "])
    def test_bad_prime_list(self, capsys, primes):
        """Primes take the ASCII grammar of the field generators: int() alone
        would read "1_3" and Arabic-Indic digits as 13."""
        code, out, err = run_bad_input(capsys, "torsion", "--model", "X1(11)", "--field=Q", "--primes", primes)
        assert_one_line_error(code, out, err)
        assert err == f"error: bad prime list {primes!r}\n"

    @pytest.mark.parametrize("primes, message", [
        ("3,9", "bad reduction at 3"), ("9,3", "9 is not an odd prime"), ("3,-5", "bad reduction at 3"),
    ])
    def test_reduction_primes_are_checked_in_order(self, capsys, primes, message):
        """The first prime that fails is reported: X1(18) is bad at 3."""
        code, out, err = run_bad_input(capsys, "torsion", "--model", "X1(18)", "--field=Q", "--primes", primes)
        assert_one_line_error(code, out, err)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("content", [
        "", "[]", '{"ranks": 5}', '{"ranks": [5]}',
        '{"ranks": [{"jacobian": "X1(11)", "twist": 1, "source": "s"}]}',
        '{"ranks": [{"jacobian": "X1(11)", "twist": 1, "rank": "0", "source": "s"}]}',
        '{"ranks": [{"jacobian": ["X1(11)"], "twist": 1, "rank": 0, "source": "s"}]}',
        '{"ranks": [{"jacobian": "X1(11)", "twist": "1", "rank": 0, "source": "s"}]}',
    ])
    def test_malformed_rank_file(self, capsys, tmp_path, content):
        path = tmp_path / "ranks.json"
        path.write_text(content)
        assert_one_line_error(*run_bad_input(capsys, "classify", "--torsion", "11", "--field=Q", "--ranks", str(path)))

    def test_rank_file_is_a_directory(self, capsys, tmp_path):
        assert_one_line_error(*run_bad_input(capsys, "classify", "--torsion", "11", "--field=Q", "--ranks", str(tmp_path)))

    @PROPERTY
    @given(st.text(alphabet="0123456789,+- Qq_x.\u0663", min_size=1, max_size=12))
    def test_fuzzed_field(self, capsys, literal):
        code, out, err = run_bad_input(capsys, "torsion", "--model", "X1(11)", f"--field={literal}", "--mode", "table")
        if code != 0:
            assert_one_line_error(code, out, err)

    @PROPERTY
    @given(
        st.sampled_from(["--primes", "--mode", "--format", "--model"]),
        st.text(alphabet="0123456789,-xX1() ", max_size=2),
    )
    def test_fuzzed_torsion_option(self, capsys, option, value):
        argv = {"--model": "X1(11)", "--field": "-1", "--primes": "3,5", "--mode": "derive", "--format": "json"}
        argv[option] = value
        code, out, err = run_bad_input(capsys, "torsion", *(f"{k}={v}" for k, v in argv.items()))
        if code not in (0, 3):
            assert_one_line_error(code, out, err)

    @PROPERTY
    @given(st.sampled_from(["--torsion", "--field", "--ranks"]), st.text(alphabet="0123456789x,-Q ", max_size=4))
    def test_fuzzed_classify_option(self, capsys, option, value):
        argv = {"--torsion": "11", "--field": "-1", "--ranks": "defaults"}
        argv[option] = value
        code, out, err = run_bad_input(capsys, "classify", *(f"{k}={v}" for k, v in argv.items()))
        if code != 0:
            assert_one_line_error(code, out, err)


def test_cli_import_loads_no_dataclasses_typing_or_random():
    """A CLI call imports only what it runs.  Run under -S, since site
    packages may load these modules themselves.  `classify` stays: the
    benchmark tracer reads every package module once the CLI is imported."""
    code = "import sys, mqtorsion.cli; print(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert "mqtorsion.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing", "random"}


def test_closed_stdout_exits_quietly():
    """A reader that goes away before the output is written: no traceback,
    and the exit code 141 (128 + SIGPIPE), outside the codes 0-4."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    argv = [sys.executable, "-m", "mqtorsion.cli", "torsion", "--model", "X1(16)", "--field=Q",
            "--primes", "7", "--mode", "derive", "--format", "json"]
    run = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    assert (run.returncode, run.stderr) == (141, b"")
