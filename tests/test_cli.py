"""Command-line interface: golden outputs, text rendering, priors and
moderation flags, exit codes, and the verify command."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import qlr.quantum
from qlr import (
    CountTable,
    PosteriorDistribution,
    QlrError,
    Unsupported,
    bayes_posterior,
    mean_frequency_posterior,
    new_table,
    posterior_2x2,
)
from qlr.checks import (
    CONSTRAINT_CHECKS,
    CROSS_PATH_CHECKS,
    SUITES,
    ConstraintReport,
    check_constraint_sample,
    check_cross_path_sample,
    draw_constraint_samples,
    draw_cross_path_samples,
)
from qlr.cli import main, render_json
from qlr.wavefunction import RESIDUAL_TOL

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

    def test_counts_json_with_priors_field(self, capsys, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "counts",
                    "counts": [[8, 7], [6, 5]],
                    "populations": [10, 10],
                    "priors": [0.9, 0.1],
                }
            ),
            encoding="utf-8",
        )
        methods = ["--method", "bayes:1", "--method", "mean-freq", "--format", "json"]
        code, out, _ = run_cli(capsys, "analyze", str(path), *methods)
        assert code == 0
        report = json.loads(out)
        assert report["input"]["priors"] == [0.9, 0.1]
        table = new_table([[0.8, 0.7], [0.6, 0.5]], [0.9, 0.1])
        counts = CountTable([[8, 7], [6, 5]], [10, 10], [0.9, 0.1])
        for selector, pd in (
            ("bayes:1", bayes_posterior(table, 0)),
            ("mean-freq", mean_frequency_posterior(counts)),
        ):
            expected = [float(f"{p:.10g}") for p in pd.probabilities]
            assert report["methods"][selector]["probabilities"] == expected

        # --priors overrides the file's priors.
        code, out, _ = run_cli(capsys, "analyze", str(path), *methods, "--priors", "0.5,0.5")
        assert code == 0
        assert json.loads(out)["input"]["priors"] == [0.5, 0.5]

    @pytest.mark.parametrize("kind", ["counts", "probabilities"])
    def test_json_priors_field_must_be_numbers(self, capsys, tmp_path, kind):
        spec = {"kind": kind, "priors": "junk"}
        if kind == "counts":
            spec.update(counts=[[8, 7], [6, 5]], populations=[10, 10])
        else:
            spec.update(values=[[0.8, 0.7], [0.6, 0.5]])
        path = tmp_path / "junk.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        assert "priors must hold only numbers" in err

    def test_one_hypothesis_counts_support_no_probability_method(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("feature,A\nd1,3\nd2,4\n__population__,10\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", str(path), "--method", "naive")
        assert (code, out) == (3, "")
        assert "at least 2 hypotheses" in err

        code, out, err = run_cli(capsys, "analyze", str(path), "--format", "json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["methods"] == {}
        assert len(report["warnings"]) == 7
        assert all(w.startswith("skipped ") for w in report["warnings"])
        assert report["ranges"] == [
            {"features": ["d1", "d2"], "hi": 3, "hypothesis": "A", "lo": 0}
        ]


# Exit status per error class: 2 invalid input, 3 valid input that cannot
# support the request.
EXIT_CODES = {
    "QlrError": 2,
    "BadShape": 2,
    "InvalidCell": 2,
    "InvalidPriors": 2,
    "InvalidOverlap": 2,
    "OverlapUnderflow": 3,
    "InvalidHbar": 2,
    "ParseError": 2,
    "BadIndex": 3,
    "Unsupported": 3,
    "DegenerateRange": 3,
    "NotPositiveDefinite": 3,
}


def _error_classes():
    found = [QlrError]
    for cls in found:
        found.extend(sub for sub in cls.__subclasses__() if sub not in found)
    return sorted(found, key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_error_class_exit_code(cls):
    assert cls.exit_code == EXIT_CODES[cls.__name__]


def test_exit_code_follows_from_two_base_classes():
    # One error-to-exit-code table: only the two bases set a code, and a
    # class exits 3 exactly when it is an Unsupported.
    classes = _error_classes()
    assert [cls for cls in classes if "exit_code" in cls.__dict__] == [QlrError, Unsupported]
    for cls in classes:
        assert (cls.exit_code == 3) == issubclass(cls, Unsupported), cls.__name__


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
        assert err == "qlr: error: --priors: priors must have length 2, got shape (3,)\n"

        code, _, err = run_cli(capsys, "analyze", STREETS_CSV, "--priors", "a,b")
        assert code == 2

        code, _, err = run_cli(capsys, "analyze", STREETS_CSV, "--priors", "0.9,0.2")
        assert code == 2
        assert err.startswith("qlr: error: --priors: priors must sum to 1")

    def test_a_files_own_bad_priors_do_not_name_the_flag(self, capsys, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({**COUNTS, "priors": [0.25, 0.25]}), encoding="utf-8")
        code, _, err = run_cli(capsys, "analyze", str(path), "--priors", "0.5,0.5")
        assert code == 2
        assert err.startswith("qlr: error: priors must sum to 1")

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


def assert_refused(code, out, err):
    """Exit 2, nothing on stdout, and one ``qlr: error:`` line on stderr."""
    assert (code, out) == (2, "")
    assert err.startswith("qlr: error:") and err.count("\n") == 1, err


PROBABILITIES = {"kind": "probabilities", "values": [[0.8, 0.7], [0.6, 0.5]]}
COUNTS = {"kind": "counts", "counts": [[8, 7], [6, 5]], "populations": [10, 10]}

# Files that break a table rule, each in every format that can carry the
# fault.  A file is validated whole at load, so each one exits 2 under every
# command, before any command decides that it cannot support the request.
BROKEN_FILES = {
    "cell_above_one.csv": "feature,A,B\nd1,1.5,0.7\nd2,0.6,0.5\n",
    "cell_above_one.json": json.dumps({**PROBABILITIES, "values": [[1.5, 0.7], [0.6, 0.5]]}),
    "string_cell.json": json.dumps({**PROBABILITIES, "values": [["0.8", 0.7], [0.6, 0.5]]}),
    "ragged_row.csv": "feature,A,B\nd1,0.8,0.7\nd2,0.6\n",
    "ragged_row.json": json.dumps({**PROBABILITIES, "values": [[0.8, 0.7], [0.6]]}),
    "three_priors.json": json.dumps({**PROBABILITIES, "priors": [0.2, 0.3, 0.5]}),
    "three_priors_counts.json": json.dumps({**COUNTS, "priors": [0.2, 0.3, 0.5]}),
    "priors_sum_half.json": json.dumps({**PROBABILITIES, "priors": [0.25, 0.25]}),
    "priors_sum_half_counts.json": json.dumps({**COUNTS, "priors": [0.25, 0.25]}),
}
GRID_COMMANDS = {
    "ranges": ["ranges"],
    "mean-freq": ["analyze", "--method", "mean-freq"],
    "mean-range": ["analyze", "--method", "mean-range"],
    "all": ["analyze", "--method", "all"],
}


@pytest.mark.parametrize("command", sorted(GRID_COMMANDS))
@pytest.mark.parametrize("name", sorted(BROKEN_FILES))
def test_file_breaking_a_table_rule_exits_2_under_every_command(capsys, tmp_path, name, command):
    path = tmp_path / name
    path.write_text(BROKEN_FILES[name], encoding="utf-8")
    verb, *flags = GRID_COMMANDS[command]
    assert_refused(*run_cli(capsys, verb, str(path), *flags))


# One JSON file for each way the JSON reader, or the table rules behind it,
# refuse a file.
REFUSED_JSON = {
    "not_an_object": [PROBABILITIES],
    "unknown_kind": {**PROBABILITIES, "kind": "odds"},
    "missing_kind": {"values": PROBABILITIES["values"]},
    "missing_values": {"kind": "probabilities"},
    "values_not_a_list": {**PROBABILITIES, "values": 0.5},
    "values_rows_not_lists": {**PROBABILITIES, "values": [0.8, 0.7]},
    "empty_values": {**PROBABILITIES, "values": []},
    "missing_counts": {"kind": "counts", "populations": [10, 10]},
    "counts_not_a_list": {**COUNTS, "counts": "8,7"},
    "ragged_counts": {**COUNTS, "counts": [[8, 7], [6]]},
    "string_value": {**PROBABILITIES, "values": [["a", 0.7], [0.6, 0.5]]},
    "null_value": {**PROBABILITIES, "values": [[None, 0.7], [0.6, 0.5]]},
    "bool_value": {**PROBABILITIES, "values": [[True, 0.7], [0.6, 0.5]]},
    "float_count": {**COUNTS, "counts": [[8.5, 7], [6, 5]]},
    "string_count": {**COUNTS, "counts": [["8", 7], [6, 5]]},
    "bool_count": {**COUNTS, "counts": [[True, 7], [6, 5]]},
    "missing_populations": {"kind": "counts", "counts": COUNTS["counts"]},
    "populations_not_a_list": {**COUNTS, "populations": 10},
    "float_population": {**COUNTS, "populations": [10.0, 10]},
    "bool_population": {**COUNTS, "populations": [True, 10]},
    "priors_not_a_list": {**PROBABILITIES, "priors": "junk"},
    "counts_priors_not_a_list": {**COUNTS, "priors": {"A": 0.5}},
    "string_prior": {**PROBABILITIES, "priors": ["0.5", 0.5]},
    "null_prior": {**COUNTS, "priors": [None, 0.5]},
    "bool_prior": {**COUNTS, "priors": [True, False]},
    "labels_not_strings": {**PROBABILITIES, "features": [1, 2]},
    "labels_not_a_list": {**COUNTS, "hypotheses": "AB"},
    "too_few_labels": {**PROBABILITIES, "hypotheses": ["A"]},
    "too_many_count_labels": {**COUNTS, "features": ["a", "b", "c"]},
}


@pytest.mark.parametrize("name", sorted(REFUSED_JSON))
def test_refused_json_file_exits_2(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(REFUSED_JSON[name]), encoding="utf-8")
    assert_refused(*run_cli(capsys, "analyze", str(path)))


def test_wrong_label_count_is_refused_alike_for_both_kinds(capsys, tmp_path):
    errors = []
    for doc in (PROBABILITIES, COUNTS):
        path = tmp_path / f"{doc['kind']}.json"
        path.write_text(json.dumps({**doc, "features": ["a", "b", "c"]}), encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert_refused(code, out, err)
        errors.append(err)
    assert errors == [
        "qlr: error: labels (3 features, 2 hypotheses) do not match a 2x2 matrix\n"
    ] * 2


def test_ragged_matrix_is_refused_in_qlrs_words(capsys, tmp_path):
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps({**PROBABILITIES, "values": [[0.8, 0.7], [0.6]]}), encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err == "qlr: error: probability matrix must be a rectangular array\n"


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


def test_ill_conditioned_overlap_gets_the_state_vector_method(capsys, tmp_path):
    # A valid table whose solved overlap is positive definite (c1 = 1 - 1e-8)
    # but ill-conditioned: it clears the gate, so the state-vector method
    # runs and matches the block sums.
    path = tmp_path / "ill_conditioned.csv"
    path.write_text(
        "feature,A,B\nd1,0.7199999927999999,0.6\nd2,0.7199999927999999,0.6\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "analyze", str(path), "--format", "json")
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert sorted(report["methods"]) == ["bayes:1", "bayes:2", "naive", "quantum", "wavefunction"]
    assert report["diagnostics"]["gram_positive_definite"] == [True, True]
    assert not [w for w in report["warnings"] if w.startswith("skipped wavefunction")]
    methods = report["methods"]
    gap = max(
        abs(p - q)
        for p, q in zip(
            methods["wavefunction"]["probabilities"], methods["quantum"]["probabilities"]
        )
    )
    assert gap <= RESIDUAL_TOL
    code, _, err = run_cli(capsys, "analyze", str(path), "--method", "wavefunction")
    assert (code, err) == (0, "")


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
    skipped = "skipped quantum: cannot normalize weights with total inf"
    assert any(w.startswith(skipped) for w in report["warnings"])
    code, _, err = run_cli(capsys, "analyze", str(path), "--method", "quantum")
    assert code == 3
    assert err.startswith("qlr: error:")


@pytest.mark.parametrize("cell", ["1e-158", "1e-200"])
def test_hbar_zero_gives_quantum_when_the_coefficients_do_not_fit(capsys, tmp_path, cell):
    # 1e-158 leaves c2 = inf; 1e-200 underflows the cell product to zero.
    # hbar = 0 drops the overlaps, so quantum needs neither.
    path = tmp_path / "tiny.json"
    path.write_text(
        f'{{"kind": "probabilities", "values": [[{cell}, 0.5], [{cell}, 0.5]]}}',
        encoding="utf-8",
    )
    argv = ["analyze", str(path), "--hbar", "0", "--format", "json"]
    code, out, err = run_cli(capsys, *argv, "--method", "quantum")
    assert (code, err) == (0, "")
    report = json.loads(out)
    expected = posterior_2x2(new_table([[float(cell), 0.5], [float(cell), 0.5]]), 0.0)
    assert report["methods"]["quantum"]["probabilities"] == [
        float(f"{p:.10g}") for p in expected.probabilities
    ]
    assert "diagnostics" not in report

    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert "quantum" in report["methods"]
    assert "wavefunction" not in report["methods"]
    assert any(w.startswith("skipped wavefunction:") for w in report["warnings"])


class TestVerifyCommand:
    def test_text_output_lists_every_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--samples", "20")
        assert code == 0
        assert "PASS constraints/known_top_ones" in out
        assert "PASS constraints/column_swap" in out
        assert "PASS cross-path/paths_agree" in out
        assert out.strip().endswith("all checks passed")

    def test_json_holds_one_block_per_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--samples", "5", "--seed", "3", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"command", "version", "samples", "seed", "passed", *SUITES}
        for key, suite in SUITES.items():
            expected = suite(5, 3)
            assert [check["name"] for check in report[key]["checks"]] == [
                check.name for check in expected.checks
            ]
            assert report[key]["passed"] is expected.passed
        assert report["passed"] is all(report[key]["passed"] for key in SUITES)

    def test_text_has_one_line_per_check_in_suite_order(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--samples", "5", "--seed", "3")
        assert code == 0
        verdicts = [line for line in out.splitlines() if line.startswith(("PASS ", "FAIL "))]
        assert [line.split(":")[0] for line in verdicts] == [
            f"{'PASS' if check.passed else 'FAIL'} {key.replace('_', '-')}/{check.name}"
            for key, suite in SUITES.items()
            for check in suite(5, 3).checks
        ]

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


# Each suite's public parts: its check table, seeded draw and per-sample
# check.  A report is the check mapped over the draw, so one sample of any
# run can be rechecked alone by its index.
SUITE_PARTS = {
    "constraints": (CONSTRAINT_CHECKS, draw_constraint_samples, check_constraint_sample),
    "cross_path": (CROSS_PATH_CHECKS, draw_cross_path_samples, check_cross_path_sample),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_each_suite_is_its_check_mapped_over_its_draw(seed):
    assert SUITE_PARTS.keys() == SUITES.keys()
    for key, (checks, draw, check) in SUITE_PARTS.items():
        per_sample = [check(sample) for sample in draw(12, seed)]
        expected = ConstraintReport.from_deviations(checks, per_sample, 12, seed)
        assert SUITES[key](12, seed) == expected


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
