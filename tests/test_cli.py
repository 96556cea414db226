import csv
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

import icctab.table as table_module
from icctab import SynthSpec, degrade_random, generate, save_csv, zscore
from icctab.cli import EXIT_CODES, _exit_code, main
from icctab.errors import (
    IccTabError,
    NumericError,
    PreconditionError,
    StructuralError,
    TableFormatError,
    UnreachableTargetError,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN = Path(__file__).parent / "golden"


def report_value(out: str, key: str) -> float:
    match = re.search(rf"^{re.escape(key)}: ([-\d.einf]+)", out, re.MULTILINE)
    assert match, f"{key!r} not found in report:\n{out}"
    return float(match.group(1))


@pytest.fixture
def complete_csv(tmp_path):
    path = tmp_path / "complete.csv"
    path.write_text("1,5,2\n4,2,8\n7,8,3\n2,6,5\n")
    return path


@pytest.fixture
def degraded_csv(tmp_path):
    raw, _ = generate(SynthSpec(rows=120, cols=16, seed=91))
    degraded = degrade_random(zscore(raw), 0.15, rng=92)
    path = tmp_path / "degraded.csv"
    save_csv(degraded, path)
    return path


class TestIccCommand:
    def test_complete_table_has_equal_corrected_icc(self, capsys, complete_csv):
        code, out, err = run(capsys, "icc", "--input", str(complete_csv))
        assert code == 0
        assert report_value(out, "pmiss") == 0.0
        assert report_value(out, "icc") == report_value(out, "iccCor")
        assert f"icctab" in out and "seed=" in out

    def test_reports_are_reproducible(self, capsys, degraded_csv):
        _, first, _ = run(capsys, "icc", "--input", str(degraded_csv), "--seed", "5")
        _, second, _ = run(capsys, "icc", "--input", str(degraded_csv), "--seed", "5")
        assert first == second

    def test_transform_flags_accepted(self, capsys, degraded_csv):
        code, out, _ = run(capsys, "icc", "--input", str(degraded_csv),
                           "--mix", "--seed", "3")
        assert code == 0
        assert "mix=True" in out


class TestImputeCommand:
    def test_corrected_pipeline_composes(self, capsys, degraded_csv, tmp_path):
        out_csv = tmp_path / "imputed.csv"
        code, impute_out, _ = run(
            capsys, "impute", "--input", str(degraded_csv),
            "--output", str(out_csv), "--target", "corrected", "--seed", "7",
        )
        assert code == 0
        target_cor = report_value(impute_out, "iccCor")
        code, icc_out, _ = run(capsys, "icc", "--input", str(out_csv))
        assert code == 0
        assert report_value(icc_out, "pmiss") == 0.0
        assert abs(report_value(icc_out, "icc") - target_cor) <= 2e-3

    def test_same_seed_same_bytes(self, capsys, degraded_csv, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _, out_a, _ = run(capsys, "impute", "--input", str(degraded_csv),
                          "--output", str(a), "--seed", "13")
        _, out_b, _ = run(capsys, "impute", "--input", str(degraded_csv),
                          "--output", str(b), "--seed", "13")
        assert a.read_bytes() == b.read_bytes()
        assert out_a.replace(str(a), "X") == out_b.replace(str(b), "X")

    def test_unreachable_target_exit_code(self, capsys, degraded_csv, tmp_path):
        code, _, err = run(capsys, "impute", "--input", str(degraded_csv),
                           "--output", str(tmp_path / "x.csv"), "--target", "0.9999")
        assert code == 5
        assert "UnreachableTargetError" in err


    def test_one_missing_cell_per_row_exit_code(self, capsys, tmp_path):
        table_csv = tmp_path / "one_per_row.csv"
        table_csv.write_text("1,2,,3\n4,,5,6\n7,8,9,1\n2,6,4,5\n")
        code, out, err = run(capsys, "impute", "--input", str(table_csv),
                             "--output", str(tmp_path / "x.csv"), "--seed", "1")
        assert code == 5 and out == ""
        assert err.startswith("error[5] UnreachableTargetError: ")
        assert "no row has more than one missing cell" in err
        assert not (tmp_path / "x.csv").exists()


class TestEcvtCommand:
    def test_report_and_curve(self, capsys, tmp_path):
        table_csv = tmp_path / "table.csv"
        raw, _ = generate(SynthSpec(rows=200, cols=16, seed=93))
        save_csv(raw, table_csv)
        curve = tmp_path / "curve.csv"
        code, out, _ = run(capsys, "ecvt", "--input", str(table_csv),
                           "--resamples", "50", "--seed", "2",
                           "--curve", str(curve))
        assert code == 0
        assert "verdict:" in out and "chi2:" in out
        header = curve.read_text().splitlines()[0]
        assert header == "g,predicted_r,observed_mean_r,observed_sd_r"

    def test_report_matches_golden_bytes(self, capsys, tmp_path, monkeypatch):
        golden = Path(__file__).parent / "golden"
        shutil.copy(golden / "ecvt_table.csv", tmp_path)
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "ecvt", "--input", "ecvt_table.csv", "--zscore",
                           "--resamples", "60", "--seed", "7")
        assert code == 0
        assert out.encode() == (golden / "ecvt_report.txt").read_bytes()

    def test_missing_cells_precondition_exit(self, capsys, degraded_csv):
        code, _, err = run(capsys, "ecvt", "--input", str(degraded_csv))
        assert code == 6
        assert "PreconditionError" in err

    @pytest.mark.parametrize("groups", ["1.5", "x,1", "2,,y"])
    def test_non_integer_groups_usage_error(self, capsys, complete_csv, groups):
        with pytest.raises(SystemExit) as exit_info:
            main(["ecvt", "--input", str(complete_csv), "--groups", groups])
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert "argument --groups: expected comma-separated integers" in err
        assert "Traceback" not in err


class TestFitCommand:
    def test_transcript_fields_present(self, capsys, tmp_path, degraded_csv):
        predictors = tmp_path / "predictors.csv"
        gen = np.random.default_rng(94)
        cols = np.column_stack([gen.normal(size=120), gen.normal(size=120)])
        np.savetxt(predictors, cols, delimiter=",")
        code, out, _ = run(capsys, "fit", "--input", str(degraded_csv),
                           "--predictors", str(predictors))
        assert code == 0
        for field in ("q:", "icc:", "conf", "pmiss:", "iccCor:",
                      "r2:", "r2onICC:", "r2Cor:"):
            assert field in out, f"missing {field} in fit report"


class TestSynthCommand:
    def test_writes_table_and_ground_truth(self, capsys, tmp_path):
        table_csv = tmp_path / "synth.csv"
        truth_csv = tmp_path / "truth.csv"
        code, out, _ = run(capsys, "synth", "--rows", "30", "--cols", "8",
                           "--seed", "4", "--output", str(table_csv),
                           "--ground-truth", str(truth_csv))
        assert code == 0
        assert len(table_csv.read_text().splitlines()) == 30
        truth_lines = truth_csv.read_text().splitlines()
        assert truth_lines[0] == "item_effect,participant_exponent"
        assert len(truth_lines) == 31

    def test_degrade_flag(self, capsys, tmp_path):
        table_csv = tmp_path / "synth.csv"
        code, _, _ = run(capsys, "synth", "--rows", "40", "--cols", "10",
                         "--seed", "4", "--degrade", "0.2",
                         "--output", str(table_csv))
        assert code == 0
        text = table_csv.read_text()
        assert text.count(",,") + text.count(",\n") > 0


class TestExperimentCommand:
    @pytest.mark.parametrize("name", ["ari-bias", "crari-recovery",
                                      "degradation-curve", "r2cor-bias"])
    def test_each_study_writes_curve(self, capsys, tmp_path, name):
        curve = tmp_path / f"{name}.csv"
        code, out, _ = run(capsys, "experiment", "--name", name,
                           "--rows", "60", "--cols", "12",
                           "--p-grid", "0.1,0.2", "--replications", "2",
                           "--seed", "6", "--output", str(curve))
        assert code == 0
        lines = curve.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("p,")

    @pytest.mark.parametrize("name", ["ari-bias", "crari-recovery",
                                      "degradation-curve", "r2cor-bias"])
    @pytest.mark.parametrize("replications", ["0", "-1"])
    def test_no_replication_precondition_exit(self, capsys, tmp_path, name, replications):
        curve = tmp_path / f"{name}.csv"
        code, out, err = run(capsys, "experiment", "--name", name, "--rows", "20",
                             "--cols", "6", "--replications", replications,
                             "--output", str(curve))
        assert code == 6 and out == ""
        assert err.startswith("error[6] PreconditionError: at least 1 replication")
        assert not curve.exists()

    def test_undefined_corrected_r2_is_named(self, capsys, tmp_path):
        # this small table has an ICC of 0 at four of the five default levels
        curve = tmp_path / "r2cor.csv"
        code, out, err = run(capsys, "experiment", "--name", "r2cor-bias", "--rows", "20",
                             "--cols", "6", "--replications", "1", "--seed", "0",
                             "--output", str(curve))
        assert code == 0 and err == ""
        warnings = [line for line in out.splitlines() if line.startswith("warning:")]
        assert warnings == ["warning: mean r2_cor undefined (ICC 0 in a replication) "
                            "at p = 0, 0.15, 0.3, 0.6"]
        rows = list(csv.DictReader(curve.open()))
        assert [row["r2_cor"] == "nan" for row in rows] == [True, True, True, False, True]


EXPERIMENT_ARGS = ("--rows", "60", "--cols", "12", "--p-grid", "0.1,0.3",
                   "--replications", "2", "--seed", "6")


class TestGoldenReports:
    """Reports and files byte for byte against golden copies.

    All but ``impute_report.txt`` were made before the CRARI coefficient
    became a closed-form root, so they pin every output that change must
    not move.  Commands run in a temporary directory with relative paths,
    because reports embed their paths.
    """

    @pytest.mark.parametrize("name, argv, inputs, outputs", [
        ("synth", ["synth", "--rows", "40", "--cols", "10", "--seed", "4",
                   "--degrade", "0.2", "--output", "synth_table.csv"],
         [], ["synth_table.csv"]),
        ("icc", ["icc", "--input", "synth_table.csv", "--zscore", "--seed", "3"],
         ["synth_table.csv"], []),
        ("fit", ["fit", "--input", "synth_table.csv", "--predictors", "fit_predictors.csv",
                 "--zscore", "--mix", "--seed", "5"],
         ["synth_table.csv", "fit_predictors.csv"], []),
        ("impute", ["impute", "--input", "synth_table.csv", "--zscore", "--seed", "7",
                    "--output", "imputed.csv"],
         ["synth_table.csv"], []),
        ("ari-bias", ["experiment", "--name", "ari-bias", *EXPERIMENT_ARGS,
                      "--output", "ari-bias.csv"],
         [], ["ari-bias.csv"]),
        ("r2cor-bias", ["experiment", "--name", "r2cor-bias", *EXPERIMENT_ARGS,
                        "--output", "r2cor-bias.csv"],
         [], ["r2cor-bias.csv"]),
    ])
    def test_same_bytes(self, capsys, tmp_path, monkeypatch, name, argv, inputs, outputs):
        for path in inputs:
            shutil.copy(GOLDEN / path, tmp_path)
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.encode() == (GOLDEN / f"{name}_report.txt").read_bytes()
        for path in outputs:
            assert (tmp_path / path).read_bytes() == (GOLDEN / path).read_bytes()

    @pytest.mark.parametrize("name", ["crari-recovery", "degradation-curve"])
    def test_recovery_curves_move_only_in_the_imputed_icc(self, capsys, tmp_path,
                                                          monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "experiment", "--name", name, *EXPERIMENT_ARGS,
                           "--output", f"{name}.csv")
        assert code == 0
        assert out.encode() == (GOLDEN / f"{name}_report.txt").read_bytes()
        with open(f"{name}.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        with open(GOLDEN / f"{name}.csv", newline="") as handle:
            golden = list(csv.DictReader(handle))
        assert [row.keys() for row in rows] == [row.keys() for row in golden]
        for row, old in zip(rows, golden):
            imputed, old_imputed = float(row.pop("icc_imputed")), float(old.pop("icc_imputed"))
            assert row == old
            # the search stopped within 1e-4 of c; the root attains the target
            assert imputed == pytest.approx(old_imputed, abs=1e-4)
            assert imputed == pytest.approx(float(row["icc_cor"]), abs=1e-9)


class TestFitPredictorFile:
    def write(self, tmp_path, text):
        path = tmp_path / "predictors.csv"
        path.write_text(text)
        return str(path)

    @pytest.fixture
    def table_csv(self, tmp_path):
        path = tmp_path / "table.csv"
        shutil.copy(GOLDEN / "synth_table.csv", path)
        return str(path)

    def test_single_column_with_header(self, capsys, tmp_path, table_csv):
        rows = "\n".join(str(0.1 * i) for i in range(40))
        code, out, _ = run(capsys, "fit", "--input", table_csv,
                           "--predictors", self.write(tmp_path, "freq\n" + rows + "\n"))
        assert code == 0
        assert re.search(r"^r2: \S+$", out, re.MULTILINE)

    def test_empty_cell_is_a_format_error(self, capsys, tmp_path, table_csv):
        path = self.write(tmp_path, "a,b\n1,2\n3,\n")
        code, _, err = run(capsys, "fit", "--input", table_csv, "--predictors", path)
        assert code == 2
        assert f"TableFormatError: {path}: row 2, column 2: cannot parse ''" in err


class TestErrorExitCodes:
    def test_format_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\nx,4\n")
        code, _, err = run(capsys, "icc", "--input", str(bad))
        assert code == 2 and "TableFormatError" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "icc", "--input", str(tmp_path / "nope.csv"))
        assert code == 2

    @pytest.mark.parametrize("half", ["head", "tail"])
    def test_undecodable_byte_in_a_split_size_file(self, capsys, tmp_path, half):
        row = b",".join(b"%d" % j for j in range(100, 200))
        rows = [row] * (table_module._SPLIT_BYTES // len(row) + 1)
        rows[1 if half == "head" else -1] += b"\xff"
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(rows) + b"\n")
        assert bad.stat().st_size > table_module._SPLIT_BYTES
        code, out, err = run(capsys, "icc", "--input", str(bad))
        assert code == 2 and out == ""
        line = 2 if half == "head" else len(rows)
        assert err.startswith(f"error[2] TableFormatError: {bad}: line {line}: not UTF-8 (")

    def test_undecodable_head_as_printf_writes_it(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"1,2\n3,\xff\n")
        code, _, err = run(capsys, "icc", "--input", str(bad))
        assert code == 2
        assert err == (f"error[2] TableFormatError: {bad}: line 2: not UTF-8 "
                       "(invalid start byte at byte 3)\n")

    @pytest.mark.parametrize("split", [None, 0], ids=["one-process", "split"])
    def test_undecodable_predictor_file_is_named(self, capsys, tmp_path, monkeypatch,
                                                 degraded_csv, split):
        if split is not None:
            monkeypatch.setattr(table_module, "_SPLIT_BYTES", split)
        bad = tmp_path / "predictors.csv"
        rows = [b"freq"] + [b"%d" % i for i in range(120)]
        rows[100] += b"\xc3"
        bad.write_bytes(b"\n".join(rows) + b"\n")
        code, out, err = run(capsys, "fit", "--input", str(degraded_csv),
                             "--predictors", str(bad))
        assert code == 2 and out == ""
        assert err.startswith(f"error[2] TableFormatError: {bad}: line 101: not UTF-8 (")

    def test_structural_error(self, capsys, tmp_path):
        bad = tmp_path / "empty_col.csv"
        bad.write_text("1,0\n3,0\n")
        code, _, err = run(capsys, "icc", "--input", str(bad), "--missing-code", "0")
        assert code == 3 and "StructuralError" in err

    def test_numeric_error(self, capsys, tmp_path):
        bad = tmp_path / "flat.csv"
        bad.write_text("3,1\n3,5\n")
        code, _, err = run(capsys, "icc", "--input", str(bad), "--zscore")
        assert code == 4 and "NumericError" in err

    def test_equal_item_means_with_bounds_is_a_numeric_error(self, capsys, tmp_path):
        latin = tmp_path / "latin.csv"
        latin.write_text("1,2,3\n3,1,2\n2,3,1\n")
        code, out, err = run(capsys, "icc", "--input", str(latin))
        assert code == 4 and out == ""
        assert err.startswith("error[4] NumericError: undefined confidence bounds")
        assert "all item means are equal" in err
        code, out, _ = run(capsys, "icc", "--input", str(latin), "--conf", "")
        assert code == 0
        assert report_value(out, "icc") == 0.0 and "conf " not in out

    # the failing input and the command that raises each error class
    ERROR_CASES = {
        TableFormatError: ("1,2\nx,4\n", ["icc"]),
        StructuralError: ("1,\n3,\n", ["icc"]),
        NumericError: ("3,1\n3,5\n", ["icc", "--zscore"]),
        UnreachableTargetError: (None, ["impute", "--output", "x.csv", "--target", "0.9999"]),
        PreconditionError: ("1,\n3,4\n5,6\n", ["ecvt"]),
    }

    @pytest.mark.parametrize("klass", list(EXIT_CODES), ids=lambda klass: klass.__name__)
    def test_each_error_class_reaches_its_exit_code(self, capsys, tmp_path, monkeypatch,
                                                     degraded_csv, klass):
        text, (command, *flags) = self.ERROR_CASES[klass]
        path = degraded_csv
        if text is not None:
            path = tmp_path / "bad.csv"
            path.write_text(text)
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, command, "--input", str(path), *flags)
        assert code == EXIT_CODES[klass]
        assert err.startswith(f"error[{code}] {klass.__name__}: ")

    def test_every_subclass_has_a_code_and_the_base_class_maps_to_one(self):
        assert set(IccTabError.__subclasses__()) == set(EXIT_CODES)
        assert _exit_code(IccTabError("unclassified")) == 1
