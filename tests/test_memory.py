"""Traced peak memory of the O(np) stages and of detect when p >> n."""

import tracemalloc

import numpy as np
import pytest

from cpjoint import detect, mean_stat_curve, pipeline, trace_sigma2_hat, trace_sigma3_hat

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
