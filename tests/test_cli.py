"""CLI subcommands: CSV ingestion, report emission, exit codes."""

import csv
import json
import math

import numpy as np
import pytest

from cpjoint import baselines, detect
from cpjoint.cli import main, read_matrix_csv


def write_matrix_csv(path, matrix):
    """Dump a matrix as CSV with shortest round-trip float formatting."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        for row in np.asarray(matrix, dtype=np.float64):
            writer.writerow([repr(float(v)) for v in row])


def _write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)


def _sample_matrix(n=40, p=3, seed=0, shift_at=None):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    if shift_at is not None:
        x[shift_at:] = 2.0 * x[shift_at:] + 3.0 / math.sqrt(p)
    return x


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "data.csv"
    write_matrix_csv(str(path), _sample_matrix())
    return str(path)


class TestCsvIo:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        matrix = rng.standard_normal((12, 4)) * 10.0 ** rng.integers(-30, 30, (12, 4))
        matrix[0, 0] = 0.1  # classic shortest-repr case
        path = str(tmp_path / "dump.csv")
        write_matrix_csv(path, matrix)
        assert np.array_equal(read_matrix_csv(path), matrix)

    def test_header_skipped(self, tmp_path):
        path = str(tmp_path / "with_header.csv")
        _write_rows(path, [["a", "b"], [1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(read_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_rows_named(self, tmp_path):
        path = str(tmp_path / "ragged.csv")
        _write_rows(path, [[1.0, 2.0], [3.0, 4.0, 5.0]])
        with pytest.raises(Exception, match="row 2"):
            read_matrix_csv(path)

    def test_non_numeric_interior_row_named(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        _write_rows(path, [[1.0, 2.0], ["x", 4.0]])
        with pytest.raises(Exception, match="row 2"):
            read_matrix_csv(path)


class TestDetectCommand:
    def test_reports_all_fields(self, csv_path, capsys):
        assert main(["detect", csv_path, "--alpha", "0.05"]) == 0
        report = json.loads(capsys.readouterr().out)
        for key in (
            "spec_version", "command", "config", "n", "p", "m_n", "v_n",
            "trace_hat", "sigma1_sq", "sigma2_sq", "z_mean", "z_cov",
            "p_mean", "p_cov", "log_p_mean", "log_p_cov", "t_n",
            "p_combined", "alpha", "reject",
        ):
            assert key in report
        assert report["n"] == 40 and report["p"] == 3
        assert isinstance(report["reject"], bool)

    def test_exit_zero_even_when_rejecting(self, tmp_path, capsys):
        path = str(tmp_path / "shift.csv")
        write_matrix_csv(path, _sample_matrix(n=80, p=5, shift_at=40))
        assert main(["detect", path]) == 0
        assert json.loads(capsys.readouterr().out)["reject"] is True

    def test_json_report_when_combined_p_underflows(self, tmp_path, capsys):
        x = np.random.default_rng(1).standard_normal((200, 20))
        x[100:] += 3.0
        outcome = detect(x)
        assert outcome.p_combined == math.ulp(0.0)
        assert type(outcome.reject) is bool
        assert all(type(d.reject) is bool for d in baselines(x))
        path = str(tmp_path / "underflow.csv")
        write_matrix_csv(path, x)
        assert main(["detect", path]) == 0
        assert json.loads(capsys.readouterr().out)["reject"] is True

    def test_ragged_csv_exits_one(self, tmp_path, capsys):
        path = str(tmp_path / "ragged.csv")
        _write_rows(path, [[1, 2], [3, 4], [5, 6, 7]])
        assert main(["detect", path]) == 1
        assert "row 3" in capsys.readouterr().err

    def test_too_few_rows_exits_one(self, tmp_path, capsys):
        path = str(tmp_path / "short.csv")
        write_matrix_csv(path, np.zeros((7, 2)))
        assert main(["detect", path]) == 1
        assert "8" in capsys.readouterr().err

    def test_degenerate_data_exits_one(self, tmp_path, capsys):
        path = str(tmp_path / "flat.csv")
        write_matrix_csv(path, np.ones((20, 2)))
        assert main(["detect", path]) == 1
        capsys.readouterr()

    def test_missing_file_exits_one(self, capsys):
        assert main(["detect", "/nonexistent/file.csv"]) == 1
        capsys.readouterr()

    def test_byte_identical_reports(self, csv_path, capsys):
        main(["detect", csv_path])
        first = capsys.readouterr().out
        main(["detect", csv_path])
        assert capsys.readouterr().out == first

    def test_csv_output(self, csv_path, capsys):
        assert main(["detect", csv_path, "--output-format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        values = lines[1].split(",")
        assert len(lines) == 2
        assert len(header) == len(values)
        assert "t_n" in header


class TestLocalizeCommand:
    def test_basic_report(self, tmp_path, capsys):
        path = str(tmp_path / "shift.csv")
        write_matrix_csv(path, _sample_matrix(n=80, p=5, shift_at=40))
        assert main(["localize", path, "--lambda", "0.2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["grid_lo"] == 16 and report["grid_hi"] == 64
        assert 16 <= report["tau_hat"] <= 64
        assert "profile" not in report

    def test_profile_emission_length(self, tmp_path, capsys):
        path = str(tmp_path / "shift.csv")
        write_matrix_csv(path, _sample_matrix(n=60, p=4, shift_at=30))
        assert main(["localize", path, "--emit-profile"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["profile"]) == report["grid_hi"] - report["grid_lo"] + 1

    def test_lambda_out_of_range_exits_one(self, csv_path, capsys):
        assert main(["localize", csv_path, "--lambda", "0.6"]) == 1
        capsys.readouterr()


class TestSimulateCommand:
    def test_small_run(self, capsys):
        code = main([
            "simulate", "--scenario", "ar1", "--n", "30", "--p", "4",
            "--tau-frac", "0.5", "--delta1", "0", "--delta2", "2",
            "--dist", "normal", "--reps", "4", "--alpha", "0.05", "--seed", "7",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["tau_star"] == 15
        rows = report["results"]
        assert len(rows) == 4
        assert {row["method"] for row in rows} == {
            "fisher", "bonferroni", "mean_only", "cov_only",
        }
        for row in rows:
            assert 0.0 <= row["rejection_rate"] <= 1.0
            assert row["mean_abs_error"] is not None

    def test_null_run_has_no_localization_error(self, capsys):
        main(["simulate", "--n", "30", "--p", "4", "--reps", "2", "--seed", "1"])
        report = json.loads(capsys.readouterr().out)
        assert all(row["mean_abs_error"] is None for row in report["results"])

    def test_sweep_produces_row_per_setting(self, capsys):
        main([
            "simulate", "--n", "30", "--p", "4", "--tau-frac", "0.5",
            "--delta2", "1.0,2.0", "--reps", "2", "--seed", "3",
        ])
        report = json.loads(capsys.readouterr().out)
        assert len(report["results"]) == 8
        deltas = {row["delta2"] for row in report["results"]}
        assert deltas == {1.0, 2.0}

    def test_double_sweep_rejected(self, capsys):
        code = main([
            "simulate", "--n", "30", "--p", "4",
            "--delta1", "0,1", "--delta2", "1,2", "--reps", "2",
        ])
        assert code == 1
        capsys.readouterr()

    def test_zero_reps_rejected(self, capsys):
        assert main(["simulate", "--n", "30", "--p", "4", "--reps", "0"]) == 1
        capsys.readouterr()

    def test_csv_rows(self, capsys):
        main([
            "simulate", "--n", "30", "--p", "4", "--reps", "2", "--seed", "5",
            "--output-format", "csv",
        ])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5  # header + 4 methods
        assert lines[0].startswith("delta1,delta2,method")

    def test_threads_env_overrides_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("CPJOINT_THREADS", "2")
        main(["simulate", "--n", "30", "--p", "4", "--reps", "2",
              "--parallelism", "1", "--seed", "9"])
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["parallelism"] == 2

    def test_reports_reproducible(self, capsys):
        argv = ["simulate", "--n", "30", "--p", "4", "--reps", "3", "--seed", "11"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first
