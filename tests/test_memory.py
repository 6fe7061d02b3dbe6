"""Traced peak memory of the O(np) stages, detect and the CSV reader when p >> n."""

import tracemalloc

import numpy as np
import pytest

from cpjoint import detect, mean_stat_curve, pipeline, trace_sigma2_hat, trace_sigma3_hat
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


def test_detect_on_float32_holds_one_float64_copy(wide, monkeypatch):
    # The float64 conversion is private, so it is stored, not copied again.
    monkeypatch.setattr(pipeline, "_last_seen", None)
    assert traced_peak(detect, wide.astype(np.float32)) < 1.25 * wide.nbytes


def test_csv_reader_holds_little_beside_the_result(tmp_path):
    path = tmp_path / "wide.csv"
    np.savetxt(path, np.random.default_rng(3).standard_normal((200, 2000)),
               fmt="%.17g", delimiter=",")
    assert traced_peak(read_matrix_csv, str(path)) <= 1.5 * 200 * 2000 * 8
