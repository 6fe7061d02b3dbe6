"""CLI subcommands: CSV ingestion, report emission, exit codes."""

import csv
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpjoint import BadParamError, baselines, detect
from cpjoint.cli import CsvFormatError, build_parser, main, read_matrix_csv

from naive import naive_read_matrix_csv


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


def _named_row(exc):
    found = re.search(r"row (\d+)", str(exc))
    return found and int(found[1])


_CELL_VALUES = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300, 0.1]
)
# Cells neither reader takes as a number; "1_000" and non-ASCII digits are
# left out (only float takes them, see test_float_only_spelling_named).
_BAD_CELLS = st.sampled_from(["x", "#1", "# 2", "", "1.5.2", "--1", "a b"])


@st.composite
def _csv_files(draw):
    """CSV bytes: a header, a BOM, CRLF, blank lines, quoted cells and no
    final newline each drawn or not, and at times one bad or ragged row."""
    width = draw(st.integers(1, 4))
    row_values = st.lists(_CELL_VALUES, min_size=width, max_size=width)
    rows = [
        [_format_cell(draw, repr(v)) for v in draw(row_values)]
        for _ in range(draw(st.integers(0, 5)))
    ]
    fault = draw(st.sampled_from(["cell", "wider", "narrower", None])) if rows else None
    if fault:
        row = draw(st.integers(0, len(rows) - 1))
        if fault == "cell":
            column = draw(st.integers(0, width - 1))
            rows[row][column] = _format_cell(draw, draw(_BAD_CELLS))
        elif fault == "wider":
            rows[row].append(_format_cell(draw, repr(draw(_CELL_VALUES))))
        else:
            rows[row].pop()
    if draw(st.booleans()):
        rows.insert(0, [f"x{j}" for j in range(width)])
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    text = newline.join(lines)
    if lines and draw(st.booleans()):
        text += newline
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + text).encode("utf-8")


def _format_cell(draw, text):
    return f'"{text}"' if draw(st.booleans()) else text


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

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1.5,2.5\n3,4\n5,6\n")
        assert np.array_equal(read_matrix_csv(str(path)), [[1.5, 2.5], [3, 4], [5, 6]])

    def test_hash_is_data_not_a_comment(self, tmp_path):
        path = tmp_path / "hash.csv"
        path.write_text("1,2\n#3,4\n")
        with pytest.raises(CsvFormatError, match=r"^row 2: .*#3"):
            read_matrix_csv(str(path))

    @pytest.mark.parametrize("cell", ["1_000", "\uff11.5"], ids=["underscore", "fullwidth"])
    def test_float_only_spelling_named(self, tmp_path, cell):
        # float() reads both (1000.0, 1.5); the reader takes ASCII decimals only.
        path = tmp_path / "spelling.csv"
        path.write_text(f"1,2\n\n{cell},4\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match=f"^row 3: .*{cell}"):
            read_matrix_csv(str(path))

    @settings(max_examples=100)
    @given(_csv_files())
    def test_matches_cell_by_cell_reader(self, tmp_path_factory, content):
        path = tmp_path_factory.mktemp("csv") / "drawn.csv"
        path.write_bytes(content)
        try:
            expected = naive_read_matrix_csv(str(path))
        except CsvFormatError as exc:
            with pytest.raises(CsvFormatError) as got:
                read_matrix_csv(str(path))
            assert _named_row(got.value) == _named_row(exc)
        else:
            got = read_matrix_csv(str(path))
            assert got.shape == expected.shape
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))


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

    # None stands for a directory in place of the file.
    @pytest.mark.parametrize(
        "content",
        [b"", b"1,2\n3,nan\n" * 5, b"\xff\xfe1,2\n", None],
        ids=["empty", "nan-cell", "not-utf8", "directory"],
    )
    def test_bad_input_exits_one_without_traceback(self, tmp_path, capsys, content):
        path = tmp_path / "bad.csv"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert main(["detect", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("option", ["--delta1", "--delta2"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_bad_simulate_parameter_exits_one_without_traceback(self, capsys, option, value):
        argv = ["simulate", "--n", "20", "--p", "5", "--tau-frac", "0.5", option, value]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert option.lstrip("-") in err
        assert "Traceback" not in err

    def test_non_utf8_names_file_and_offset(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"1.5,2.5\n" * 2000 + b"3.5,\xe94\n")
        with pytest.raises(CsvFormatError, match=r"latin1\.csv.*0xe9 at offset 16004"):
            read_matrix_csv(str(path))

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

    @pytest.mark.parametrize("n, p", [("-5", "3"), ("0", "3"), ("20", "0")])
    def test_nonpositive_shape_exits_one_without_traceback(self, capsys, n, p):
        assert main(["simulate", "--n", n, "--p", p, "--reps", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert ("n=" if int(n) < 1 else "p=") in err
        assert "Traceback" not in err

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

    @staticmethod
    def fails_naming(argv, message, capsys):
        """simulate raises BadParamError with ``message``, and main exits 1 printing it."""
        args = build_parser().parse_args(argv)
        with pytest.raises(BadParamError, match=re.escape(message)):
            args.handler(args)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_nonpositive_parallelism_named(self, capsys, value):
        argv = ["simulate", "--n", "30", "--p", "4", "--reps", "2", "--parallelism", value]
        self.fails_naming(argv, f"--parallelism {value} must be at least 1", capsys)

    def test_nonpositive_threads_env_named(self, capsys, monkeypatch):
        monkeypatch.setenv("CPJOINT_THREADS", "0")
        argv = ["simulate", "--n", "30", "--p", "4", "--reps", "2"]
        self.fails_naming(argv, "CPJOINT_THREADS='0' must be at least 1", capsys)

    def test_tau_frac_that_rounds_out_of_range_named(self, capsys):
        argv = ["simulate", "--n", "30", "--p", "4", "--reps", "2", "--tau-frac", "0.01"]
        message = "--tau-frac 0.01 at --n 30 puts the change after row 0, outside [1, 29]"
        self.fails_naming(argv, message, capsys)

    def test_reports_reproducible(self, capsys):
        argv = ["simulate", "--n", "30", "--p", "4", "--reps", "3", "--seed", "11"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first
