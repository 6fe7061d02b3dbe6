"""Traced peak memory of the O(np) stages, detect, the CSV reader and data generation."""

import tracemalloc

import numpy as np
import pytest

from cpjoint import (
    CovScenario,
    ErrorDist,
    SimulationModel,
    cli,
    cov_shift,
    detect,
    gen_dataset,
    mean_stat_curve,
    pipeline,
    trace_sigma2_hat,
    trace_sigma3_hat,
)
from cpjoint.cli import read_matrix_csv

# 64 x 20000 doubles, 10.24 MB: a quarter of it is well above the stages'
# O(n b) buffers, and an n x p temporary is far above a quarter.
SHAPE = (64, 20000)


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def wide():
    return np.random.default_rng(0).standard_normal(SHAPE)


@pytest.mark.parametrize(
    "stage", [mean_stat_curve, trace_sigma2_hat, trace_sigma3_hat],
    ids=["mean_stat_curve", "trace_sigma2_hat", "trace_sigma3_hat"],
)
def test_stage_forms_no_n_by_p_temporary(stage, wide):
    assert traced_peak(stage, wide) < wide.nbytes / 4


def test_detect_holds_one_copy_of_the_data(wide, monkeypatch):
    # No analysis is kept, so detect copies and analyses the array afresh.
    monkeypatch.setattr(pipeline, "_last_seen", None)
    assert traced_peak(detect, wide.copy()) < 1.25 * wide.nbytes


def test_detect_holds_one_copy_of_the_data_at_200x5000(monkeypatch):
    # Near the origin the raw Gram matrix is centered in place.
    x = np.random.default_rng(1).standard_normal((200, 5000))
    monkeypatch.setattr(pipeline, "_last_seen", None)
    assert traced_peak(detect, x) < 1.25 * x.nbytes


def test_detect_on_a_long_series_stays_below_five_copies(monkeypatch):
    # n >= 4p: the feature path holds the centered copy and O(np / 2)
    # per pass, with no n x n array.
    x = np.random.default_rng(2).standard_normal((2000, 50))
    monkeypatch.setattr(pipeline, "_last_seen", None)
    assert traced_peak(detect, x) < 4.7 * x.nbytes


def test_detect_on_a_long_series_holds_about_two_copies(monkeypatch):
    # The feature path reads the stored rows one block at a time: beside
    # the copy it holds O(n) sums and O(b p + b^2 + p^2) per block.
    x = np.random.default_rng(2).standard_normal((2000, 50))
    monkeypatch.setattr(pipeline, "_last_seen", None)
    assert traced_peak(detect, x) < 2.25 * x.nbytes


def test_feature_terms_form_no_n_by_p_temporary():
    # n >= 4p: the feature path.  Its thirteen O(n) sums are 0.13 x.nbytes
    # here; a centered copy or any n x p array would be 1x.
    x = np.random.default_rng(4).standard_normal((8000, 100))
    assert traced_peak(cov_shift._terms, x) < 0.5 * x.nbytes


def test_detect_far_from_the_origin_holds_two_copies(monkeypatch):
    # Column means far beyond the rows' spread: the Gram matrix is built
    # from one centered copy of the data.
    x = np.random.default_rng(1).standard_normal((200, 5000)) + 100.0
    monkeypatch.setattr(pipeline, "_last_seen", None)
    assert traced_peak(detect, x) < 2.25 * x.nbytes


def test_detect_on_float32_holds_one_float64_copy(wide, monkeypatch):
    # The float64 conversion is private, so it is stored, not copied again.
    monkeypatch.setattr(pipeline, "_last_seen", None)
    assert traced_peak(detect, wide.astype(np.float32)) < 1.25 * wide.nbytes


@pytest.fixture(scope="module")
def wide_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "wide.csv"
    np.savetxt(path, np.random.default_rng(3).standard_normal((200, 2000)),
               fmt="%.17g", delimiter=",")
    return str(path)


def test_csv_reader_holds_little_beside_the_result(wide_csv):
    assert traced_peak(read_matrix_csv, wide_csv) <= 1.5 * 200 * 2000 * 8


def test_cli_detect_keeps_the_parsed_matrix_as_the_dataset(wide_csv, monkeypatch, capsys):
    # A second copy of the parsed matrix would take the peak to about 2x.
    monkeypatch.setattr(pipeline, "_last_seen", None)
    assert traced_peak(cli.main, ["detect", wide_csv]) <= 1.5 * 200 * 2000 * 8
    assert '"command": "detect"' in capsys.readouterr().out


def test_gen_dataset_holds_the_errors_and_the_matrix():
    # The errors and the matrix are 2x; a product temporary or a copy of
    # the matrix for the Dataset would take the peak to 2.5x or more.
    model = SimulationModel(
        n=200, p=100, tau_star=100, delta1=1.0, delta2=1.5,
        cov_scenario=CovScenario.AR1, error_dist=ErrorDist.NORMAL, seed=7,
    )
    gen_dataset(model)      # builds the cached covariance roots
    assert traced_peak(gen_dataset, model) < 2.5 * 200 * 100 * 8
