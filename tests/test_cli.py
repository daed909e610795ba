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


def child_env(**extra):
    """The environment of a fresh interpreter: `src` on the path, and no
    PYTHONUNBUFFERED, so that stdout is block-buffered as under a plain shell
    and output that `cli.run` failed to flush would be lost."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""), **extra)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_child(*argv, env=None, **kwargs):
    """A fresh ``python -m mqtorsion.cli`` call, in `child_env` by default."""
    return subprocess.run([sys.executable, "-m", "mqtorsion.cli", *argv], env=env or child_env(), **kwargs)


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
        for memo in (mwtors._reduction_or_none, mwtors.jac_structure):
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

    def test_large_prime_squared_in_the_discriminant_ends(self, tmp_path):
        """y^2 = x(x - 1)(x + P), P = 999999999989: the discriminant
        16 P^2 (P + 1)^2 holds P^2, which trial division alone reaches only
        after about P/2 steps.  A fresh process ends well within the
        timeout, with an answer or a one-line error."""
        P = 999999999989
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "label": "x(x-1)(x+P)", "level": [1, 2], "genus": 1, "base_field": "Q",
            "coeffs": [0, P - 1, 0, -P, 0], "primes": [7, 11],
        }))
        argv = ["torsion", "--model", str(path), "--mode", "derive", "--field=Q"]
        run = run_child(*argv, capture_output=True, text=True, timeout=60)
        assert run.returncode in (0, 2, 3), run.stderr
        assert run.returncode == 2 or run.stderr == ""

    def test_many_bad_primes_and_odd_torsion_derive_quickly_over_q(self, tmp_path):
        """y^2 + xy + a3*y = x^3, a3 = 7 * 13 * 19 * 31 * 37 * 43, has a point
        of order 3, and every prime p = 1 mod 3 below 50 is bad, so no
        screen prime rules out odd torsion on a twist.  A derive over Q
        tries the trivial twist alone, not each of the 2^10 twists by the
        primes that could carry it, and a fresh process ends in seconds."""
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "label": "m", "level": [1, 3], "genus": 1, "base_field": "Q",
            "coeffs": [1, 0, 7 * 13 * 19 * 31 * 37 * 43, 0, 0], "primes": [5, 11],
        }))
        argv = ["torsion", "--model", str(path), "--mode", "derive", "--field=Q"]
        run = run_child(*argv, capture_output=True, text=True, timeout=20)
        assert run.returncode == 0 and json.loads(run.stdout)["lower"] == [3], run.stderr

    def test_unfactorable_discriminant_exit_2(self, capsys, tmp_path):
        """y^2 = x^3 + B with B the product of two primes of 19 and 27
        digits: no factor of B is found within the work bound of rho, so the
        call ends with a one-line error."""
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "label": "m", "level": [1, 2], "genus": 1, "base_field": "Q",
            "coeffs": [0, 0, 0, 0, (2**61 - 1) * (2**89 - 1)], "primes": [5, 7],
        }))
        code, out, err = run(capsys, "torsion", "--model", str(path), "--mode", "derive", "--field=Q")
        assert_one_line_error(code, out, err)
        assert "rho steps" in err

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

    def test_symmetric_square_checks_survive_python_O(self):
        """Under python -O, which strips asserts, a zeta function that gives
        N2 + 2 breaks the count of the symmetric square of every curve with
        good reduction: a FAIL line with the counts, exit 1, no traceback.
        X1(18) is bad at 3, so that check is skipped and passes."""
        code = (
            "import sys\n"
            "from mqtorsion import cli, hyperjac\n"
            "zeta = hyperjac.zeta_order\n"
            "hyperjac.zeta_order = lambda C: (lambda N1, N2, *rest: (N1, N2 + 2, *rest))(*zeta(C))\n"
            "sys.exit(cli.main(['verify', '--only', 'symmetric-square']))\n"
        )
        run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=child_env())
        assert (run.returncode, run.stderr) == (1, "")
        lines = run.stdout.splitlines()
        assert [line.split("  (")[0] for line in lines] == [
            *(f"FAIL  symmetric-square {label} p={p}" for label in ("X1(13)", "X1(16)") for p in (3, 5)),
            "pass  symmetric-square X1(18) p=3",
            "FAIL  symmetric-square X1(18) p=5",
            "FAIL  total: 6 checks",
        ]
        assert lines[0].endswith("(X1(13) over F_9: 66 points of the symmetric square, but N1 = 8, N2 = 70)")

    def test_one_cross_check_error_for_every_module(self):
        """`verify` and the exit code 4 catch the one class that groups,
        ellcurve, hyperjac and mwtors raise."""
        from mqtorsion import ellcurve, groups

        assert mwtors.CrossCheckError is groups.CrossCheckError is ellcurve.CrossCheckError is hyperjac.CrossCheckError


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


class TestDataFiles:
    """An `MQTORSION_DATA` directory with one shipped file edited.  Each
    call runs in a fresh interpreter, since the registries are process-wide
    caches."""

    @staticmethod
    def call(tmp_path, name, edit, *argv):
        for path in (Path(SRC) / "mqtorsion" / "data").glob("*.json"):
            raw = json.loads(path.read_text())
            if path.name == name:
                edit(raw)
            (tmp_path / path.name).write_text(json.dumps(raw))
        run = run_child(*argv, capture_output=True, text=True, env=child_env(MQTORSION_DATA=str(tmp_path)))
        return run.returncode, run.stdout, run.stderr

    @staticmethod
    def set_point(name, point):
        def edit(raw):
            next(c for c in raw["curves"] if c["name"] == name)["point"] = point
        return edit

    @pytest.mark.parametrize("name, edit, argv", [
        ("exceptional.json", lambda raw: raw["curves"][0].pop("name"), ["classify", "--torsion", "14", "--field=-7"]),
        ("exceptional.json", lambda raw: raw["curves"][2].pop("point"), ["verify", "--only", "exceptional"]),
        ("exceptional.json", lambda raw: raw["curves"][2]["point"].pop(), ["verify", "--only", "exceptional"]),
        ("exceptional.json", lambda raw: raw["curves"][1]["ainvs"][0].append("1"), ["classify", "--torsion", "14", "--field=-7"]),
        ("exceptional.json", lambda raw: raw.pop("curves"), ["classify", "--torsion", "14", "--field=-7"]),
        ("ranks.json", lambda raw: raw.pop("ranks"), ["classify", "--torsion", "14", "--field=-7"]),
        ("models.json", lambda raw: raw.pop("models"), ["torsion", "--model", "X1(11)", "--field=Q"]),
        ("models.json", lambda raw: raw["models"][0].pop("label"), ["torsion", "--model", "X1(11)", "--field=Q"]),
    ])
    def test_malformed_data_file_exit_2(self, tmp_path, name, edit, argv):
        assert_one_line_error(*self.call(tmp_path, name, edit, *argv))

    def test_point_off_its_curve_fails(self, tmp_path):
        edit = self.set_point("15-I", [["315", "-132"], ["-5399", "2376"]])
        code, out, err = self.call(tmp_path, "exceptional.json", edit, "verify", "--only", "exceptional")
        assert (code, err) == (1, "")
        assert "FAIL  exceptional 15-I  (15-I: the shipped point is not on the curve)" in out.splitlines()
        assert out.count("pass  exceptional") == 3

    def test_point_of_the_wrong_order_fails(self, tmp_path):
        """3P for the point P of 15-I has order 5, not 15."""
        from mqtorsion.classify import exceptional_registry
        from reference import curve_mul

        curve = next(c for c in exceptional_registry() if c.name == "15-I")
        triple = curve_mul(curve.curve(), 3, curve.certificate())
        edit = self.set_point("15-I", [[str(c) for c in v.coords] for v in triple])
        code, out, err = self.call(tmp_path, "exceptional.json", edit, "verify", "--only", "exceptional")
        assert (code, err) == (1, "")
        assert "FAIL  exceptional 15-I  (15-I: the shipped point does not have order 15)" in out.splitlines()
        assert out.count("pass  exceptional") == 3


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
    argv = ["torsion", "--model", "X1(16)", "--field=Q", "--primes", "7", "--mode", "derive", "--format", "json"]
    run = run_child(*argv, stdout=write_end, stderr=subprocess.PIPE)
    os.close(write_end)
    assert (run.returncode, run.stderr) == (141, b"")


class TestFastExit:
    """``python -m mqtorsion.cli`` ends by `cli.run`: `main`, a flush of
    stdout and stderr, then `os._exit` with `main`'s code.  Each child runs
    block-buffered (`child_env`) and must give the exit code, stdout bytes
    and stderr of the same argv through in-process `main`."""

    # the first 14 generators of the CI degree-scaling list: 233,779 bytes of
    # JSON, more than a pipe holds (64 KiB), so the child writes it in parts
    # and waits for the reader before it can exit
    LARGE = ["torsion", "--model", "X1(11)", "--field=-1,2,3,5,7,11,13,17,19,23,29,31,37,41", "--format", "json"]

    @staticmethod
    def child(tmp_path, stdout, *argv):
        """(exit code, stdout bytes, stderr text) of a child whose stdout is
        a pipe or a file."""
        if stdout == "pipe":
            run = run_child(*argv, capture_output=True)
            return run.returncode, run.stdout, run.stderr.decode()
        path = tmp_path / "stdout"
        with open(path, "wb") as fh:
            run = run_child(*argv, stdout=fh, stderr=subprocess.PIPE)
        return run.returncode, path.read_bytes(), run.stderr.decode()

    @pytest.mark.parametrize("stdout", ["pipe", "file"])
    @pytest.mark.parametrize("argv, expect", [
        (LARGE, 0),
        (["torsion", "--model", "X1(11)", "--field=2,5", "--mode", "table"], 0),
        (["torsion", "--model", "X1(99)", "--field=Q"], 2),
        (["torsion", "--model", "X1(13)", "--field=Q", "--primes", "7"], 3),
    ])
    def test_child_matches_in_process_main(self, capsys, tmp_path, stdout, argv, expect):
        code, out, err = run(capsys, *argv)
        assert code == expect and (len(out) > 1 << 16) == (argv == self.LARGE)
        got = self.child(tmp_path, stdout, *argv)
        assert got[0] == code and got[2] == err
        assert got[1] == out.encode(), (len(got[1]), len(out))

    def test_argparse_errors_exit_as_before(self, tmp_path):
        """argparse ends `main` by SystemExit, which takes the usual exit."""
        code, out, err = self.child(tmp_path, "pipe", "torsion", "--model")
        assert_one_line_error(code, out.decode(), err)
        code, out, err = self.child(tmp_path, "pipe", "--help")
        assert (code, err) == (0, "") and out.startswith(b"usage: mqtorsion")

    def test_run_flushes_what_main_left_buffered(self):
        """Output that `main` wrote but did not flush reaches the reader:
        stdout to a pipe is block-buffered, and stderr holds a line with no
        newline.  The child exits with `main`'s code."""
        code = (
            "import sys\n"
            "from mqtorsion import cli\n"
            "def main():\n"
            "    print('out', end='')\n"
            "    print('err', end='', file=sys.stderr)\n"
            "    return 5\n"
            "cli.main = main\n"
            "cli.run()\n"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, env=child_env())
        assert (run.returncode, run.stdout, run.stderr) == (5, b"out", b"err")

    def test_console_script_ends_by_run(self):
        pyproject = (Path(SRC).parent / "pyproject.toml").read_text()
        assert 'mqtorsion = "mqtorsion.cli:run"' in pyproject.splitlines()
