"""Command-line interface: golden outputs, text rendering, priors and
moderation flags, exit codes, and the verify command."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import qlr.quantum
from qlr import PosteriorDistribution, QlrError, new_table, bayes_posterior
from qlr.cli import main, render_json

REPO_ROOT = Path(__file__).resolve().parents[1]
STREETS_CSV = "docs/streets.csv"
STREETS_JSON = "docs/streets.json"


@pytest.fixture
def repo_cwd(monkeypatch):
    """Golden reports echo the input path as given on the command line, so
    the golden commands must run from the repository root."""
    monkeypatch.chdir(REPO_ROOT)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name: str) -> str:
    return (REPO_ROOT / "docs" / "golden" / name).read_text(encoding="utf-8")


class TestGoldenOutputs:
    def test_analyze_streets(self, capsys, repo_cwd):
        code, out, err = run_cli(
            capsys, "analyze", STREETS_CSV, "--method", "all", "--format", "json"
        )
        assert code == 0
        assert err == ""
        assert out == golden("analyze_streets.json")

    def test_ranges_streets(self, capsys, repo_cwd):
        code, out, err = run_cli(capsys, "ranges", STREETS_CSV, "--format", "json")
        assert code == 0
        assert out == golden("ranges_streets.json")

    def test_verify_small(self, capsys, repo_cwd):
        code, out, err = run_cli(
            capsys, "verify", "--samples", "50", "--seed", "42", "--format", "json"
        )
        assert code == 0
        assert out == golden("verify_50_42.json")

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("analyze", STREETS_CSV, "--method", "all"), "analyze_streets.txt"),
            (("ranges", STREETS_CSV), "ranges_streets.txt"),
            (("verify", "--samples", "50", "--seed", "42"), "verify_50_42.txt"),
        ],
        ids=["analyze", "ranges", "verify"],
    )
    def test_text_output(self, capsys, repo_cwd, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert err == ""
        assert out == golden(name)

    def test_analyze_is_deterministic(self, capsys, repo_cwd):
        argv = ("analyze", STREETS_CSV, "--format", "json")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_json_output_round_trips(self, capsys, repo_cwd):
        for argv in (
            ("analyze", STREETS_CSV, "--format", "json"),
            ("ranges", STREETS_CSV, "--format", "json"),
            ("verify", "--samples", "10", "--format", "json"),
        ):
            _, out, _ = run_cli(capsys, *argv)
            assert render_json(json.loads(out)) == out


class TestAnalyze:
    def test_text_report_carries_the_headline_numbers(self, capsys, repo_cwd):
        code, out, _ = run_cli(capsys, "analyze", STREETS_CSV)
        assert code == 0
        assert "0.5333333333" in out
        assert "0.578313253" in out
        assert "0.5882352941" in out
        assert "0.5972222222" in out
        assert "0.5895909839" in out
        assert "argmax=A" in out
        assert "c1=0.9897433186" in out

    def test_json_and_csv_inputs_agree(self, capsys, repo_cwd):
        _, from_csv, _ = run_cli(
            capsys, "analyze", STREETS_CSV, "--format", "json"
        )
        _, from_json, _ = run_cli(
            capsys, "analyze", STREETS_JSON, "--format", "json"
        )
        a = json.loads(from_csv)
        b = json.loads(from_json)
        assert a["methods"] == b["methods"]
        assert a["ranges"] == b["ranges"]
        assert a["diagnostics"] == b["diagnostics"]

    def test_moderation_flag_reports_moderated_coefficients(self, capsys, repo_cwd):
        code, out, _ = run_cli(
            capsys, "analyze", STREETS_CSV, "--hbar", "0", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert "overlap disabled at hbar=0" in report["warnings"]
        assert report["diagnostics"]["hbar"] == 0
        assert report["diagnostics"]["c1_moderated"] == 0
        assert report["diagnostics"]["c2_moderated"] == 0
        quantum = report["methods"]["quantum"]["probabilities"]
        assert quantum[0] == pytest.approx(7 / 13, abs=1e-9)
        wavefunction = report["methods"]["wavefunction"]["probabilities"]
        assert wavefunction[0] == pytest.approx(7 / 13, abs=1e-9)

    def test_priors_flag_matches_library(self, capsys, repo_cwd):
        code, out, _ = run_cli(
            capsys,
            "analyze",
            STREETS_CSV,
            "--method",
            "bayes:1",
            "--priors",
            "0.75,0.25",
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        table = new_table([[0.8, 0.7], [0.6, 0.5]], [0.75, 0.25])
        expected = bayes_posterior(table, 0).probabilities[0]
        got = report["methods"]["bayes:1"]["probabilities"][0]
        assert got == float(f"{expected:.10g}")
        assert report["input"]["priors"] == [0.75, 0.25]

    def test_all_on_probability_file_skips_count_methods(
        self, capsys, repo_cwd, tmp_path
    ):
        path = tmp_path / "probs.csv"
        path.write_text(
            "feature,A,B\nblue_door,0.8,0.7\nwhite_car,0.6,0.5\n", encoding="utf-8"
        )
        code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert "mean-freq" not in report["methods"]
        assert "mean-range" not in report["methods"]
        assert {"bayes:1", "bayes:2", "naive", "quantum", "wavefunction"} <= set(
            report["methods"]
        )
        assert any(w.startswith("skipped mean-freq:") for w in report["warnings"])
        assert any(w.startswith("skipped mean-range:") for w in report["warnings"])
        assert "ranges" not in report

    def test_zero_count_input_keeps_count_methods_only(
        self, capsys, repo_cwd, tmp_path
    ):
        path = tmp_path / "zero.csv"
        path.write_text(
            "feature,A,B\nblue_door,0,7\nwhite_car,6,5\n__population__,10,10\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys, "analyze", str(path), "--method", "mean-freq", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert "mean-freq" in report["methods"]

        code, _, err = run_cli(capsys, "analyze", str(path), "--method", "naive")
        assert code == 3
        assert "nonzero counts" in err

        code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert set(report["methods"]) == {"mean-freq", "mean-range"}
        assert len(report["warnings"]) == 5

    def test_probability_json_with_priors_field(self, capsys, repo_cwd, tmp_path):
        path = tmp_path / "probs.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "probabilities",
                    "values": [[0.8, 0.7], [0.6, 0.5]],
                    "priors": [0.75, 0.25],
                }
            ),
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys, "analyze", str(path), "--method", "bayes:1", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["input"]["priors"] == [0.75, 0.25]
        table = new_table([[0.8, 0.7], [0.6, 0.5]], [0.75, 0.25])
        expected = bayes_posterior(table, 0).probabilities[0]
        assert report["methods"]["bayes:1"]["probabilities"][0] == float(
            f"{expected:.10g}"
        )


# Exit status per error class: 2 invalid input, 3 valid input that cannot
# support the request.
EXIT_CODES = {
    "QlrError": 2,
    "BadShape": 2,
    "InvalidCell": 2,
    "InvalidPriors": 2,
    "ShapeMismatch": 2,
    "InvalidOverlap": 2,
    "OverlapUnderflow": 3,
    "InvalidHbar": 2,
    "InvalidBasis": 2,
    "ParseError": 2,
    "BadIndex": 3,
    "Unsupported": 3,
    "DegenerateRange": 3,
    "NonPositiveTotal": 3,
    "NotPositiveDefinite": 3,
    "NotCounts": 3,
}


def _error_classes():
    found = [QlrError]
    for cls in found:
        found.extend(sub for sub in cls.__subclasses__() if sub not in found)
    return sorted(found, key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_error_class_exit_code(cls):
    assert cls.exit_code == EXIT_CODES[cls.__name__]


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "no_such_file.csv")
        assert code == 2
        assert "qlr: error:" in err

    def test_ragged_row(self, capsys, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("feature,A,B\nblue_door,0.8\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert "columns" in err

    def test_population_row_not_last(self, capsys, tmp_path):
        path = tmp_path / "misplaced.csv"
        path.write_text(
            "feature,A,B\n__population__,10,10\nblue_door,8,7\n", encoding="utf-8"
        )
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert "__population__" in err

    def test_non_integer_count(self, capsys, tmp_path):
        path = tmp_path / "float_count.csv"
        path.write_text(
            "feature,A,B\nblue_door,8.5,7\n__population__,10,10\n", encoding="utf-8"
        )
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert "line 2, column 2" in err

    def test_non_numeric_probability_reports_position(self, capsys, tmp_path):
        path = tmp_path / "bad_cell.csv"
        path.write_text(
            "feature,A,B\nblue_door,0.8,x\nwhite_car,0.6,0.5\n", encoding="utf-8"
        )
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert "line 2, column 3" in err

    def test_probability_above_one(self, capsys, tmp_path):
        path = tmp_path / "above_one.csv"
        path.write_text(
            "feature,A,B\nblue_door,1.7,0.7\nwhite_car,0.6,0.5\n", encoding="utf-8"
        )
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert "outside (0, 1]" in err

    def test_bad_priors_flag(self, capsys, repo_cwd):
        code, _, err = run_cli(
            capsys, "analyze", STREETS_CSV, "--priors", "0.5,0.3,0.2"
        )
        assert code == 2
        assert "--priors" in err

        code, _, err = run_cli(capsys, "analyze", STREETS_CSV, "--priors", "a,b")
        assert code == 2

        code, _, err = run_cli(capsys, "analyze", STREETS_CSV, "--priors", "0.9,0.2")
        assert code == 2
        assert "sum to 1" in err

    def test_negative_hbar(self, capsys, repo_cwd):
        code, _, err = run_cli(capsys, "analyze", STREETS_CSV, "--hbar=-1")
        assert code == 2
        assert "finite and nonnegative" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--method", "naive", "--hbar=-1"],
            ["--method", "naive", "--hbar", "nan"],
            ["--method", "bayes:1", "--hbar", "inf"],
            ["--method", "naive", "--hbar=-inf"],
        ],
        ids=["negative", "nan", "inf", "minus_inf"],
    )
    def test_bad_hbar_rejected_without_an_overlap_method(self, capsys, repo_cwd, argv):
        code, out, err = run_cli(capsys, "analyze", STREETS_CSV, *argv)
        assert code == 2
        assert out == ""
        assert "finite and nonnegative" in err

    def test_bad_hbar_rejected_on_a_table_without_closed_form(self, capsys, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text(
            "feature,A,B\nd1,0.8,0.7\nd2,0.6,0.5\nd3,0.4,0.9\n", encoding="utf-8"
        )
        code, _, err = run_cli(capsys, "analyze", str(path), "--hbar=-5")
        assert code == 2
        assert "finite and nonnegative" in err

    def test_unknown_method(self, capsys, repo_cwd):
        code, _, err = run_cli(capsys, "analyze", STREETS_CSV, "--method", "magic")
        assert code == 2
        assert "unknown method" in err

    def test_bare_bayes_selector(self, capsys, repo_cwd):
        code, _, err = run_cli(capsys, "analyze", STREETS_CSV, "--method", "bayes")
        assert code == 2
        assert "feature index" in err

    def test_bayes_feature_out_of_range(self, capsys, repo_cwd):
        code, _, err = run_cli(capsys, "analyze", STREETS_CSV, "--method", "bayes:7")
        assert code == 3
        assert "out of range" in err

    def test_ranges_on_probability_file(self, capsys, repo_cwd, tmp_path):
        path = tmp_path / "probs.csv"
        path.write_text(
            "feature,A,B\nblue_door,0.8,0.7\nwhite_car,0.6,0.5\n", encoding="utf-8"
        )
        code, _, err = run_cli(capsys, "ranges", str(path))
        assert code == 3
        assert "probabilities" in err

    def test_explicit_count_method_on_probability_file(
        self, capsys, repo_cwd, tmp_path
    ):
        path = tmp_path / "probs.csv"
        path.write_text(
            "feature,A,B\nblue_door,0.8,0.7\nwhite_car,0.6,0.5\n", encoding="utf-8"
        )
        code, _, err = run_cli(capsys, "analyze", str(path), "--method", "mean-range")
        assert code == 3
        assert "integer counts" in err

    def test_explicit_quantum_on_three_feature_input(self, capsys, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text(
            "feature,A,B\nd1,0.8,0.7\nd2,0.6,0.5\nd3,0.4,0.9\n", encoding="utf-8"
        )
        code, _, err = run_cli(capsys, "analyze", str(path), "--method", "quantum")
        assert code == 3
        assert "2x2" in err


# Inputs inside the documented domain that once ended in a traceback: cell
# products that underflow to zero, bytes that are not UTF-8, and JSON counts
# beyond int64.
EDGE_INPUTS = {
    "underflow.csv": b"feature,A,B\nd1,0.5,1e-200\nd2,0.5,1e-200\n",
    "underflow.json": b'{"kind": "probabilities", "values": [[1e-200, 0.5], [1e-200, 0.5]]}',
    "bytes.csv": b"feature,A,B\n\x80\xff,0.5,0.5\n",
    "bigint.json": b'{"kind": "counts", "counts": [[99999999999999999999999, 1], [1, 1]], '
    b'"populations": [99999999999999999999999, 2]}',
}


@pytest.mark.parametrize("name", sorted(EDGE_INPUTS))
def test_edge_input_gives_a_typed_error(capsys, tmp_path, name):
    path = tmp_path / name
    path.write_bytes(EDGE_INPUTS[name])
    # Under --method all an underflowing overlap is skipped, so ask for it.
    method = ["--method", "quantum"] if name.startswith("underflow") else []
    code, _, err = run_cli(capsys, "analyze", str(path), *method, "--format", "json")
    assert code in (2, 3)
    assert err.startswith("qlr: error:")


# A JSON integer beyond the float range, in a cell and in a prior.
BEYOND_FLOAT = "1" + "0" * 400
BEYOND_FLOAT_INPUTS = {
    "values": f'{{"kind": "probabilities", "values": [[{BEYOND_FLOAT}, 0.5], [0.5, 0.5]]}}',
    "priors": f'{{"kind": "probabilities", "values": [[0.5, 0.5], [0.5, 0.5]], '
    f'"priors": [{BEYOND_FLOAT}, 0.5]}}',
}


@pytest.mark.parametrize(
    "field, rule", [("values", "probability matrix"), ("priors", "priors")]
)
def test_json_integer_beyond_float_range_exits_2(capsys, tmp_path, field, rule):
    path = tmp_path / "beyond_float.json"
    path.write_text(BEYOND_FLOAT_INPUTS[field], encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(path), "--format", "json")
    assert (code, out) == (2, "")
    assert err.startswith(f"qlr: error: {rule} must")
    assert "Traceback" not in err


# Files past one of the interpreter's own limits: nesting deeper than the
# recursion limit, and an integer with more digits than int() converts.
LONG_INTEGER = "1" * 5000
OVER_LIMIT_INPUTS = {
    "deep_array.json": "[" * 100_000 + "]" * 100_000,
    "deep_object.json": '{"a": ' * 3000 + "1" + "}" * 3000,
    "long_count.csv": f"feature,A,B\nd1,{LONG_INTEGER},1\nd2,1,1\n__population__,2,2\n",
    "long_count.json": f'{{"kind": "counts", "counts": [[{LONG_INTEGER}, 1], [1, 1]], '
    '"populations": [2, 2]}',
}


@pytest.mark.parametrize("name", sorted(OVER_LIMIT_INPUTS))
def test_input_past_an_interpreter_limit_exits_2(capsys, tmp_path, name):
    path = tmp_path / name
    path.write_text(OVER_LIMIT_INPUTS[name], encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("qlr: error:")
    assert "Traceback" not in err


def test_selector_past_the_integer_digit_limit_exits_2(capsys, repo_cwd):
    code, out, err = run_cli(capsys, "analyze", STREETS_CSV, "--method", f"bayes:{LONG_INTEGER}")
    assert (code, out) == (2, "")
    assert err.startswith("qlr: error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["underflow.csv", "underflow.json"])
def test_underflowing_overlap_is_skipped_under_all(capsys, tmp_path, name):
    path = tmp_path / name
    path.write_bytes(EDGE_INPUTS[name])
    code, out, err = run_cli(capsys, "analyze", str(path), "--format", "json")
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert sorted(report["methods"]) == ["bayes:1", "bayes:2", "naive"]
    overlap_skips = [w for w in report["warnings"] if "underflow" in w]
    assert [w.split(":")[0] for w in overlap_skips] == [
        "skipped quantum",
        "skipped wavefunction",
    ]
    assert "diagnostics" not in report


def test_ill_conditioned_overlap_skips_only_the_state_vector_method(capsys, tmp_path):
    # A valid table whose solved overlap is positive definite (c1 = 1 - 1e-8)
    # but too ill-conditioned for an orthonormal basis within 1e-10.
    path = tmp_path / "ill_conditioned.csv"
    path.write_text(
        "feature,A,B\nd1,0.7199999927999999,0.6\nd2,0.7199999927999999,0.6\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "analyze", str(path), "--format", "json")
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert sorted(report["methods"]) == ["bayes:1", "bayes:2", "naive", "quantum"]
    skipped = [w for w in report["warnings"] if w.startswith("skipped wavefunction:")]
    assert len(skipped) == 1 and "residual" in skipped[0]
    code, _, err = run_cli(capsys, "analyze", str(path), "--method", "wavefunction")
    assert code == 3
    assert err.startswith("qlr: error:")


@pytest.mark.parametrize(
    "hbar_flags, flags, clause",
    [(["--hbar", "0.1"], [True, True], False), ([], [False, True], True)],
    ids=["moderated", "unmoderated"],
)
def test_gram_flags_describe_the_overlap_the_state_vector_method_used(
    capsys, tmp_path, hbar_flags, flags, clause
):
    # c1 = 1.8 fails the gate; --hbar 0.1 moderates the pair to
    # (0.171, 0.029), which passes it, and the state-vector method runs.
    path = tmp_path / "lopsided.csv"
    path.write_text("feature,A,B\nd1,0.9,0.5\nd2,0.9,0.5\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(path), *hbar_flags, "--format", "json")
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["diagnostics"]["gram_positive_definite"] == flags
    assert report["diagnostics"]["within_unit_interval"] is False
    outside = [w for w in report["warnings"] if w.startswith("overlap coefficient magnitude")]
    assert len(outside) == 1
    assert outside[0].endswith("state-vector cross-check may be unavailable") is clause
    assert ("wavefunction" in report["methods"]) is not clause


def test_overflowing_weighted_block_is_skipped_under_all(capsys, tmp_path):
    # Finite 2x2 blocks whose prior-weighted sum overflows: a typed error,
    # not a NaN posterior and a traceback.
    path = tmp_path / "overflow.json"
    path.write_text(
        '{"kind": "probabilities", "values": [[0.75, 0.25], [0.5, 1.11253693e-308]], '
        '"priors": [0.7, 0.3]}',
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "analyze", str(path), "--format", "json")
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert "quantum" not in report["methods"]
    skipped = "skipped quantum: prior-weighted block total inf"
    assert any(w.startswith(skipped) for w in report["warnings"])
    code, _, err = run_cli(capsys, "analyze", str(path), "--method", "quantum")
    assert code == 3
    assert err.startswith("qlr: error:")


class TestVerifyCommand:
    def test_text_output_lists_every_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--samples", "20")
        assert code == 0
        assert "PASS constraints/known_top_ones" in out
        assert "PASS constraints/column_swap" in out
        assert "PASS cross-path/paths_agree" in out
        assert out.strip().endswith("all checks passed")

    def test_single_sample_runs(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--samples", "1")
        assert code == 0

    def test_zero_samples_is_an_input_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--samples", "0")
        assert code == 2
        assert "samples must be" in err

    def test_negative_seed_is_an_input_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--samples", "3", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("qlr: error:")
        assert "seed must be" in err

    def test_verify_loads_no_numpy_random(self):
        # The test process has imported numpy.random already, so the check
        # runs in a fresh interpreter.
        script = (
            "import sys\n"
            "import qlr.cli\n"
            "code = qlr.cli.main(['verify', '--samples', '3'])\n"
            "print(sorted({'numpy.random', 'secrets', '_hashlib'} & set(sys.modules)))\n"
            "sys.exit(code)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"

    def test_corrupted_estimator_fails_the_suite(self, capsys, monkeypatch):
        def corrupted(table, hbar=None):
            return PosteriorDistribution((0.25, 0.75), "quantum", 1)

        monkeypatch.setattr(qlr.quantum, "posterior_2x2", corrupted)
        code, out, _ = run_cli(capsys, "verify", "--samples", "5")
        assert code == 1
        assert "FAIL" in out
        assert "FAILURES detected" in out


def test_module_entry_point_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "qlr.cli", "analyze", STREETS_CSV, "--format", "json"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["methods"]["quantum"]["probabilities"][0] == pytest.approx(
        0.5895909839, abs=1e-9
    )
