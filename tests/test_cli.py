import argparse
import csv
import gc
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import icctab
import icctab.table as table_module
from icctab import (DataTable, SynthSpec, degrade_random, ecvt, generate, load_csv, mix_rows,
                    save_csv, virtualize, zscore)
from icctab.cli import EXIT_CODES, _build_parser, _exit_code, entrypoint, main
from icctab.errors import (
    IccTabError,
    NumericError,
    PreconditionError,
    StructuralError,
    TableFormatError,
    UnreachableTargetError,
)
from icctab.rand import as_generator


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

    def test_zero_interaction_prints_inf(self, capsys, tmp_path):
        table_csv = tmp_path / "identical.csv"
        table_csv.write_text("1,1,1\n5,5,5\n2,2,2\n")
        code, out, _ = run(capsys, "icc", "--input", str(table_csv))
        assert code == 0
        assert "\nq: inf\nicc: 1.000000\nFobs: inf\n" in out
        assert "\nconf 0.95: [1.000000, 1.000000]\n" in out

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


    def test_complete_table_off_target_exit_code(self, capsys, tmp_path):
        # a complete table has nothing to fill: its own ICC is the whole range
        table_csv = tmp_path / "complete.csv"
        save_csv(generate(SynthSpec(rows=40, cols=8, seed=3))[0], table_csv)
        code, out, _ = run(capsys, "icc", "--input", str(table_csv), "--zscore")
        icc = report_value(out, "icc")
        assert code == 0 and 0.3 < icc < 0.8
        code, out, err = run(capsys, "impute", "--input", str(table_csv), "--zscore",
                             "--output", str(tmp_path / "x.csv"), "--target", "0.2")
        assert code == 5 and out == ""
        assert err == ("error[5] UnreachableTargetError: target ICC 0.2000 outside the "
                       f"reachable range [{icc:.4f}, {icc:.4f}]\n")
        assert not (tmp_path / "x.csv").exists()

    def test_one_missing_cell_per_row_exit_code(self, capsys, tmp_path):
        table_csv = tmp_path / "one_per_row.csv"
        table_csv.write_text("1,2,,3\n4,,5,6\n7,8,9,1\n2,6,4,5\n")
        code, out, err = run(capsys, "impute", "--input", str(table_csv),
                             "--output", str(tmp_path / "x.csv"), "--seed", "1")
        assert code == 5 and out == ""
        assert err.startswith("error[5] UnreachableTargetError: ")
        # the row-centered fills are 0, so the reachable range is one point
        assert re.search(r"outside the reachable range \[(\d\.\d{4}), \1\]", err)
        assert not (tmp_path / "x.csv").exists()

    def test_target_on_the_rising_branch_attained(self, capsys, tmp_path):
        # a raw table with column offsets: the ICC rises from 0.7296 at c = 0
        # to 0.7813 and then falls, so 0.74 is met past the peak
        raw, _ = generate(SynthSpec(rows=30, cols=6, seed=8))
        offsets = np.random.default_rng(8).normal(0, 3.0, size=6)
        table_csv = tmp_path / "offsets.csv"
        save_csv(degrade_random(icctab.DataTable(raw.values + offsets), 0.3, rng=9), table_csv)
        code, out, _ = run(capsys, "impute", "--input", str(table_csv), "--output",
                           str(tmp_path / "x.csv"), "--target", "0.74", "--seed", "8")
        assert code == 0
        assert "\niccImputed: 0.740000\n" in out

    def test_small_zscored_table_reaches_its_default_target(self, capsys, tmp_path):
        # the corrected target is met at c = 41.4: the centred donor draws are
        # small, yet the largest fill is 4.03 z-units
        table_csv, out_csv = tmp_path / "table.csv", tmp_path / "imputed.csv"
        code, _, _ = run(capsys, "synth", "--rows", "40", "--cols", "8", "--degrade", "0.05",
                         "--seed", "2", "--output", str(table_csv))
        assert code == 0
        code, out, err = run(capsys, "impute", "--input", str(table_csv), "--zscore",
                             "--seed", "2", "--output", str(out_csv))
        assert code == 0 and err == ""
        assert "\ntarget: 0.592215\n" in out and "\niccImputed: 0.592215\n" in out


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

    @pytest.mark.parametrize("flag, transform", [("--mix", mix_rows),
                                                 ("--virtualize", virtualize)])
    def test_transform_and_kernel_continue_one_stream(self, capsys, tmp_path, flag, transform):
        raw, _ = generate(SynthSpec(rows=60, cols=12, seed=94))
        table_csv = tmp_path / "table.csv"
        save_csv(raw, table_csv)
        code, out, _ = run(capsys, "ecvt", "--input", str(table_csv), flag,
                           "--resamples", "20", "--seed", "5")
        assert code == 0
        gen = as_generator(5)
        report = ecvt(transform(load_csv(table_csv), gen), resamples=20, rng=gen)
        body = out.split("\n")[3:]
        assert body[:2] == [f"chi2: {report.chi2:.4f} (df={report.df})",
                            f"p-value: {report.p_value:.6g}"]
        assert body[3:-1] == [
            f"g={g}: predicted={p:.6f} observed={o:.6f} sd={sd:.6f}"
            for g, p, o, sd in zip(report.group_sizes, report.predicted_r,
                                   report.observed_mean_r, report.observed_sd_r)]

    def test_constant_item_means_exit_4_naming_the_cause(self, capsys, tmp_path):
        # participants 1 and 4 (as 2 and 3) average to 2.5 on every item
        table_csv = tmp_path / "table.csv"
        table_csv.write_text("1,2,3,4\n4,3,2,1\n2,2,3,3\n3,3,2,2\n")
        code, out, err = run(capsys, "ecvt", "--input", str(table_csv),
                             "--groups", "1,2", "--resamples", "5")
        assert code == 4 and out == ""
        assert err.startswith("error[4] NumericError: group size ")
        assert "item means of a drawn group are constant" in err

    def test_an_added_constant_keeps_the_report(self, capsys, tmp_path):
        table = zscore(generate(SynthSpec(200, 20, item_sd=0.7, seed=1))[0])
        bodies = []
        for shift in (0.0, 1e7, 1e8):
            table_csv = tmp_path / f"table_{shift:g}.csv"
            save_csv(DataTable(table.values + shift), table_csv)
            code, out, err = run(capsys, "ecvt", "--input", str(table_csv), "--seed", "3")
            assert code == 0 and err == ""
            bodies.append(out.split("\nconfig: ", 1)[1].split("\n", 1)[1])
        assert "verdict: compatible" in bodies[0]
        assert bodies[1] == bodies[0] and bodies[2] == bodies[0]

    def test_missing_cells_precondition_exit(self, capsys, degraded_csv):
        code, _, err = run(capsys, "ecvt", "--input", str(degraded_csv))
        assert code == 6
        assert "PreconditionError" in err

    @pytest.mark.parametrize("alpha", ["7", "-0.1", "nan"])
    def test_alpha_outside_unit_interval_precondition_exit(self, capsys, complete_csv, alpha):
        code, out, err = run(capsys, "ecvt", "--input", str(complete_csv), "--alpha", alpha)
        assert code == 6 and out == ""
        assert err.startswith("error[6] PreconditionError: alpha must lie in (0, 1)")

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


class TestConstantToRounding:
    """Spreads that are rounding alone reach the documented outcome."""

    def test_zscore_of_a_constant_column_exits_4(self, capsys, tmp_path):
        # 0.1 * 3 / 3 != 0.1, so the centred column is not exactly 0
        table_csv = tmp_path / "table.csv"
        table_csv.write_text("1,0.1\n2,0.1\n3,0.1\n")
        code, out, err = run(capsys, "icc", "--input", str(table_csv), "--zscore")
        assert code == 4 and out == ""
        assert err == "error[4] NumericError: column(s) [2] have zero variance\n"

    def test_fit_with_a_one_ulp_predictor_exits_4(self, capsys, tmp_path):
        table_csv, predictors = tmp_path / "table.csv", tmp_path / "predictors.csv"
        save_csv(generate(SynthSpec(rows=40, cols=6, seed=95))[0], table_csv)
        predictors.write_text("".join(f"{v!r}\n" for v in
                                      np.resize([0.1, np.nextafter(0.1, 1.0)], 40).tolist()))
        code, out, err = run(capsys, "fit", "--input", str(table_csv),
                             "--predictors", str(predictors))
        assert code == 4 and out == ""
        assert err == "error[4] NumericError: constant predictor column(s): [1]\n"

    def test_ecvt_of_a_noise_free_table_is_compatible(self, capsys, tmp_path):
        # every split-group correlation is 1 up to rounding, so each group
        # size is dropped as constant instead of giving chi2 = 50019 and p = 0
        gen = np.random.default_rng(1)
        items = gen.normal(size=60)
        table_csv = tmp_path / "table.csv"
        save_csv(DataTable(items[:, None] + 3 * gen.normal(size=12)), table_csv)
        code, out, _ = run(capsys, "ecvt", "--input", str(table_csv),
                           "--resamples", "50", "--seed", "3")
        assert code == 0
        assert "verdict: compatible (alpha=0.01)" in out
        assert "chi2: 0.0000 (df=0)" in out
        for g in (1, 2, 4, 6):
            assert f"warning: group size {g}: constant correlations, dropped" in out


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


class TestMissingToken:
    """A text token written by ``synth --missing-code`` reads back in every
    command that takes ``--missing-code``."""

    @pytest.mark.parametrize("split", [None, 0], ids=["one-process", "split"])
    def test_synth_output_reads_back(self, capsys, tmp_path, monkeypatch, split):
        if split is not None:
            monkeypatch.setattr(table_module, "_SPLIT_BYTES", split)
        table_csv, imputed = tmp_path / "na.csv", tmp_path / "imputed.csv"
        code, _, _ = run(capsys, "synth", "--rows", "40", "--cols", "8", "--degrade", "0.2",
                         "--missing-code", "NA", "--output", str(table_csv))
        assert code == 0 and ",NA," in table_csv.read_text()
        predictors = tmp_path / "predictors.csv"
        predictors.write_text("freq\n" + "".join(f"{0.1 * i}\n" for i in range(40)))
        token = ("--input", str(table_csv), "--missing-code", "NA", "--zscore")
        code, out, err = run(capsys, "icc", *token)
        assert code == 0, err
        assert "\ntable: 40 rows x 8 cols, 64 missing\n" in out
        code, _, err = run(capsys, "impute", *token, "--output", str(imputed))
        assert code == 0, err
        code, _, err = run(capsys, "fit", *token, "--predictors", str(predictors))
        assert code == 0, err
        code, _, err = run(capsys, "ecvt", "--input", str(imputed), "--resamples", "20")
        assert code == 0, err

    def test_token_in_the_first_row_keeps_it_data(self, capsys, tmp_path):
        table_csv = tmp_path / "first.csv"
        table_csv.write_text("1,NA\n3,4\n5,6\n")
        code, out, _ = run(capsys, "icc", "--input", str(table_csv), "--missing-code", "NA",
                           "--zscore")
        assert code == 0
        assert "\ntable: 3 rows x 2 cols, 1 missing\n" in out
        # without the token the first row is a header
        code, out, _ = run(capsys, "icc", "--input", str(table_csv))
        assert code == 0
        assert "\ntable: 2 rows x 2 cols, 0 missing\n" in out

    def test_numeric_token_equal_to_a_valid_value_exits_6(self, capsys, tmp_path):
        table_csv, coded = tmp_path / "t.csv", tmp_path / "coded.csv"
        argv = ("synth", "--rows", "40", "--cols", "10", "--seed", "4")
        code, _, _ = run(capsys, *argv, "--output", str(table_csv))
        assert code == 0
        cell = table_csv.read_text().split(",")[0]
        code, out, err = run(capsys, *argv, "--missing-code", cell, "--output", str(coded))
        assert code == 6 and out == ""
        assert err.startswith(f"error[6] PreconditionError: {coded}: row 1, column 1: ")
        assert not coded.exists()


class TestExperimentCommand:
    @pytest.mark.parametrize("name", ["ari-bias", "degradation-curve", "r2cor-bias"])
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

    @pytest.mark.parametrize("name", ["ari-bias", "degradation-curve", "r2cor-bias"])
    @pytest.mark.parametrize("replications", ["0", "-1"])
    def test_no_replication_precondition_exit(self, capsys, tmp_path, name, replications):
        curve = tmp_path / f"{name}.csv"
        code, out, err = run(capsys, "experiment", "--name", name, "--rows", "20",
                             "--cols", "6", "--replications", replications,
                             "--output", str(curve))
        assert code == 6 and out == ""
        assert err.startswith("error[6] PreconditionError: at least 1 replication")
        assert not curve.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_undefined_corrected_r2_is_named(self, capsys, tmp_path):
        # this small table has an ICC of 0 at four of the five default levels,
        # so with one replication those levels have no r2_cor to average
        curve = tmp_path / "r2cor.csv"
        code, out, err = run(capsys, "experiment", "--name", "r2cor-bias", "--rows", "20",
                             "--cols", "6", "--replications", "1", "--seed", "0",
                             "--output", str(curve))
        assert code == 0 and err == ""
        warnings = [line for line in out.splitlines() if line.startswith("warning:")]
        assert warnings == ["warning: r2_cor averages the replications with ICC > 0 (nan if "
                            "none); ICC 0 in 1 of 1 at p = 0, 1 of 1 at p = 0.15, "
                            "1 of 1 at p = 0.3, 1 of 1 at p = 0.6"]
        rows = list(csv.DictReader(curve.read_text().splitlines()))
        assert [row["r2_cor"] == "nan" for row in rows] == [True, True, True, False, True]
        assert [row["dropped"] for row in rows] == ["1", "1", "1", "0", "1"]

    def test_corrected_r2_averages_the_defined_replications(self, capsys, tmp_path):
        # 6, 9, 10 and 11 of the 20 replications have ICC 0 at the last four levels
        curve = tmp_path / "r2cor.csv"
        code, out, err = run(capsys, "experiment", "--name", "r2cor-bias", "--rows", "20",
                             "--cols", "4", "--replications", "20", "--seed", "1",
                             "--output", str(curve))
        assert code == 0 and err == ""
        assert ("warning: r2_cor averages the replications with ICC > 0 (nan if none); "
                "ICC 0 in 6 of 20 at p = 0.15, 9 of 20 at p = 0.3, 10 of 20 at p = 0.45, "
                "11 of 20 at p = 0.6\n") in out
        rows = list(csv.DictReader(curve.read_text().splitlines()))
        assert [row["dropped"] for row in rows] == ["0", "6", "9", "10", "11"]
        assert all(np.isfinite(float(row["r2_cor"])) for row in rows)


EXPERIMENT_ARGS = ("--rows", "60", "--cols", "12", "--p-grid", "0.1,0.3",
                   "--replications", "2", "--seed", "6")


class TestGoldenReports:
    """Reports and files byte for byte against golden copies.

    Of the first six cases, all but ``impute_report.txt`` were made
    before the CRARI coefficient became a closed-form root, so they pin
    every output that change must not move.  Commands run in a temporary directory with relative paths,
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
        # the warning, curve and ground-truth lines, recorded before the
        # handlers stopped printing their own reports
        ("ecvt-identical", ["ecvt", "--input", "ecvt_identical.csv", "--groups", "1,2,4",
                            "--resamples", "5", "--seed", "3",
                            "--curve", "ecvt_identical_curve.csv"],
         ["ecvt_identical.csv"], ["ecvt_identical_curve.csv"]),
        ("synth-truth", ["synth", "--rows", "12", "--cols", "5", "--severity", "0.5",
                         "--seed", "8", "--degrade", "0.1", "--output", "synth_truth_table.csv",
                         "--ground-truth", "synth_truth.csv"],
         [], ["synth_truth_table.csv", "synth_truth.csv"]),
        ("fit-coleffect", ["fit", "--input", "coleffect_table.csv",
                           "--predictors", "coleffect_predictors.csv", "--seed", "2"],
         ["coleffect_table.csv", "coleffect_predictors.csv"], []),
        ("impute-coleffect", ["impute", "--input", "coleffect_table.csv",
                              "--output", "coleffect_imputed.csv", "--seed", "7"],
         ["coleffect_table.csv"], []),
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

    @pytest.mark.parametrize("name", ["degradation-curve"])
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


def config_pairs(out: str) -> list[tuple[str, str]]:
    line, = (line for line in out.splitlines() if line.startswith("config: "))
    return [tuple(pair.split("=", 1)) for pair in line[len("config: "):].split(" ")]


class TestReportHeader:
    """The ``config:`` line holds every option of the command, in parser order."""

    def test_keys_are_the_subcommand_options_with_seed_last(self, capsys, tmp_path,
                                                             complete_csv, degraded_csv):
        predictors = tmp_path / "p.csv"
        predictors.write_text("".join(f"{0.1 * i}\n" for i in range(120)))
        argvs = {
            "icc": ["--input", str(complete_csv)],
            "impute": ["--input", str(degraded_csv), "--output", str(tmp_path / "i.csv")],
            "ecvt": ["--input", str(complete_csv), "--resamples", "5"],
            "fit": ["--input", str(degraded_csv), "--predictors", str(predictors)],
            "synth": ["--rows", "10", "--cols", "4", "--output", str(tmp_path / "s.csv")],
            "experiment": ["--name", "ari-bias", "--rows", "20", "--cols", "6",
                           "--replications", "1", "--output", str(tmp_path / "e.csv")],
        }
        subparsers, = (action for action in _build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
        assert set(subparsers.choices) == set(argvs)
        for command, parser in subparsers.choices.items():
            options = [action.option_strings[-1][2:] for action in parser._actions
                       if action.option_strings and action.dest != "help"]
            options.append(options.pop(options.index("seed")))
            code, out, err = run(capsys, command, *argvs[command])
            assert code == 0, err
            assert [key for key, _ in config_pairs(out)] == options, command

    def test_synth_replays_from_its_header(self, capsys, tmp_path, monkeypatch):
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        monkeypatch.chdir(first)
        code, out, _ = run(capsys, "synth", "--rows", "30", "--cols", "6", "--seed", "5",
                           "--missing-code", "NA", "--ground-truth", "t.csv",
                           "--degrade", "0.2", "--output", "table.csv")
        assert code == 0
        argv = [arg for key, value in config_pairs(out) if value != "<empty>"
                for arg in (f"--{key}", value)]
        monkeypatch.chdir(second)
        code, replayed, _ = run(capsys, "synth", *argv)
        assert code == 0 and replayed == out
        assert ",NA," in (first / "table.csv").read_text()
        for name in ("table.csv", "t.csv"):
            assert (second / name).read_bytes() == (first / name).read_bytes()

    def test_conf_prints_normalized(self, capsys, complete_csv):
        code, out, _ = run(capsys, "icc", "--input", str(complete_csv), "--conf", "0.95, 0.99")
        assert code == 0
        assert ("conf", "0.95,0.99") in config_pairs(out)

    def test_experiment_prints_the_resolved_p_grid(self, capsys, tmp_path):
        code, out, _ = run(capsys, "experiment", "--name", "ari-bias", "--rows", "20",
                           "--cols", "6", "--replications", "1",
                           "--output", str(tmp_path / "e.csv"))
        assert code == 0
        assert ("p-grid", "0.0,0.1,0.2,0.3") in config_pairs(out)


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

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_cell_is_a_structural_error(self, capsys, tmp_path, table_csv, token):
        rows = [f"{0.1 * i!r},{0.2 * i!r}" for i in range(40)]
        rows[3] = f"0.3,{token}"
        path = self.write(tmp_path, "\n".join(rows) + "\n")
        code, out, err = run(capsys, "fit", "--input", table_csv, "--predictors", path)
        assert code == 3 and out == ""
        assert err == ("error[3] StructuralError: non-finite predictor value(s) "
                       "in column(s): [2]\n")

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

    def test_overlong_predictor_cell_is_a_format_error(self, capsys, tmp_path, degraded_csv):
        limit = csv.field_size_limit()
        bad = tmp_path / "predictors.csv"
        bad.write_text("freq\n0.1\n" + "0" * (limit + 1) + "\n")
        code, out, err = run(capsys, "fit", "--input", str(degraded_csv),
                             "--predictors", str(bad))
        assert code == 2 and out == ""
        assert err == (f"error[2] TableFormatError: {bad}: row 2: "
                       f"field larger than field limit ({limit})\n")

    # a malformed value of each option that is checked when it is parsed;
    # the files named are never opened
    USAGE_CASES = {
        "icc-conf": (["icc", "--input", "t.csv", "--conf", "0.95,x"],
                     "argument --conf: expected comma-separated numbers, got '0.95,x'"),
        "fit-conf": (["fit", "--input", "t.csv", "--predictors", "p.csv", "--conf", "abc"],
                     "argument --conf: expected comma-separated numbers, got 'abc'"),
        "experiment-p-grid": (["experiment", "--name", "ari-bias", "--output", "c.csv",
                               "--p-grid", "a"],
                              "argument --p-grid: expected comma-separated numbers, got 'a'"),
        "impute-target": (["impute", "--input", "t.csv", "--output", "o.csv",
                           "--target", "abc"],
                          "argument --target: expected 'low', 'corrected' or a number, "
                          "got 'abc'"),
    }

    @pytest.mark.parametrize("name", USAGE_CASES)
    def test_malformed_option_value_is_a_usage_error(self, capsys, tmp_path, monkeypatch,
                                                     name):
        argv, message = self.USAGE_CASES[name]
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        out, err = capsys.readouterr()
        assert exit_info.value.code == 2 and out == ""
        assert err.startswith("usage: icctab ")
        assert err.endswith(f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_broken_pipe_exits_2(self, capsys, monkeypatch, complete_csv):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        code = main(["icc", "--input", str(complete_csv)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error[2] BrokenPipeError: ")

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


def icctab_process(*argv: str) -> subprocess.CompletedProcess:
    """``python -m icctab`` on the package these tests import."""
    src = str(Path(icctab.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, "-m", "icctab", *argv], capture_output=True,
                          env=env, timeout=60)


class TestProcessEntry:
    """``python -m icctab`` and the freeze that ends the process."""

    def test_report_bytes_match_in_process_main(self, capsys, complete_csv):
        code, out, err = run(capsys, "icc", "--input", str(complete_csv), "--seed", "3")
        proc = icctab_process("icc", "--input", str(complete_csv), "--seed", "3")
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), b"")
        assert code == 0 and err == ""

    def test_version_usage_and_structural_exits(self, tmp_path):
        version = icctab_process("--version")
        assert version.returncode == 0
        assert version.stdout == f"icctab {icctab.__version__}\n".encode()
        usage = icctab_process("icc", "--input", "t.csv", "--conf", "abc")
        assert usage.returncode == 2 and usage.stdout == b""
        assert usage.stderr.startswith(b"usage: icctab icc ")
        bad = tmp_path / "empty_row.csv"
        bad.write_text("1,\n3,\n")
        structural = icctab_process("icc", "--input", str(bad))
        assert structural.returncode == 3 and structural.stdout == b""
        assert structural.stderr.startswith(b"error[3] StructuralError: ")

    def test_main_never_freezes(self, capsys, complete_csv):
        before = gc.get_freeze_count()
        code, _, _ = run(capsys, "icc", "--input", str(complete_csv))
        assert code == 0 and gc.get_freeze_count() == before

    def test_entrypoint_freezes_on_its_way_out(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["icctab", "--version"])
        before = gc.get_freeze_count()
        try:
            with pytest.raises(SystemExit) as exit_info:
                entrypoint()
            assert exit_info.value.code == 0
            assert gc.get_freeze_count() > before
        finally:
            gc.unfreeze()
        assert capsys.readouterr().out == f"icctab {icctab.__version__}\n"
