"""Traced peak memory of the O(np) stages, detect, the CSV reader and data generation."""

import tracemalloc

import numpy as np
import pytest

from cpjoint import (
    CovScenario,
    ErrorDist,
    SimulationModel,
    cli,
    data,
    detect,
    gen_dataset,
    gram,
    localize,
    mean_stat_curve,
    normal_log_sf,
    pipeline,
    trace_sigma2_hat,
)
from cpjoint.cli import read_matrix_csv
from cpjoint.scale import trace_sigma3_hat
from naive import _feature_terms, _sweep_terms

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
    # n >= 4p: the feature path.  Its ten O(n) sums are 0.1 x.nbytes here;
    # a centered copy or any n x p array would be 1x.
    x = np.random.default_rng(4).standard_normal((8000, 100))
    assert traced_peak(_feature_terms, x, x.mean(axis=0)) < 0.5 * x.nbytes


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


def warm_detect_peak(x, monkeypatch) -> int:
    """Traced peak of a fresh analysis of x by detect.

    A first call on the reversed rows fills the cached block masks of its
    shape, which a long-running process has already paid for.
    """
    detect(x[::-1])
    monkeypatch.setattr(pipeline, "_last_seen", None)
    return traced_peak(detect, x)


def test_detect_at_the_paper_setting_holds_the_gram_matrix_and_one_sweep_buffer(monkeypatch):
    # 200 x 100: beside the 0.16 MB copy, the 0.32 MB centered Gram matrix
    # and one 0.32 MB block buffer of the sweep.  A second block buffer, or
    # two b x n temporaries per block of the centering, would pass 1 MB.
    x = np.random.default_rng(5).standard_normal((200, 100))
    assert warm_detect_peak(x, monkeypatch) < 6.25 * x.nbytes


def test_gram_sweep_holds_one_block_buffer():
    # n = 400: one C/S buffer of 2 x n x 100 is half of g; a second one
    # alive at the next block takes the peak to about g.nbytes.
    g = gram(np.random.default_rng(7).standard_normal((400, 500)))
    _sweep_terms(g.copy())
    assert traced_peak(_sweep_terms, g) < 0.7 * g.nbytes


def test_detect_at_the_paper_setting_sweeps_the_gram_matrix_in_place(monkeypatch):
    # 200 x 100: beside the 0.16 MB copy and the 0.32 MB centered Gram
    # matrix, O(n) sums.  A 2 x n x b sweep buffer, a 128 x n centering
    # block or numpy's 64 KB iteration buffers would pass 4.75x.
    x = np.random.default_rng(5).standard_normal((200, 100))
    assert warm_detect_peak(x, monkeypatch) < 4.75 * x.nbytes


def test_gram_sweep_holds_no_block_buffer():
    # n = 400: the sweep forms C and S in g's own columns; one 2 x n x 100
    # buffer would be half of g, one n x 100 block a quarter.
    g = gram(np.random.default_rng(7).standard_normal((400, 500)))
    _sweep_terms(g.copy())
    assert traced_peak(_sweep_terms, g) < 0.3 * g.nbytes


def test_detect_at_1000x500_holds_the_data_and_the_gram_matrix(monkeypatch):
    # Beside the copy (4 MB) and g (8 MB), the sweep and the centering
    # add O(n).  A 2 x n x 128 sweep buffer and a 128 x n centering block
    # took it to 1.19x.
    x = np.random.default_rng(9).standard_normal((1000, 500))
    n = x.shape[0]
    assert warm_detect_peak(x, monkeypatch) < 1.1 * (x.nbytes + 8 * n * n)


def test_detect_at_the_paper_setting_holds_one_gram_panel(monkeypatch):
    # 200 x 100: beside the 0.16 MB copy, one 200 x 100 panel of the
    # centered Gram matrix and O(n).  The whole 0.32 MB matrix took it to
    # 3.42x.
    x = np.random.default_rng(5).standard_normal((200, 100))
    assert warm_detect_peak(x, monkeypatch) < 3.0 * x.nbytes


def test_detect_on_one_sweep_block_holds_no_spare(monkeypatch):
    # 128 x 60: one block of 128 columns covers g.  Beside the copy and g,
    # O(n); the block's S^2 in a spare of a quarter of its rows took the
    # peak to 4.51x.
    x = np.random.default_rng(188).standard_normal((128, 60))
    assert warm_detect_peak(x, monkeypatch) < 4.2 * x.nbytes


def test_detect_at_1000x500_holds_the_data_and_one_panel(monkeypatch):
    # Two 1000 x 500 panels, formed one at a time in one buffer: the copy
    # (4 MB), one panel (4 MB) and O(n).  The whole Gram matrix (8 MB)
    # took it to 1.54x.
    x = np.random.default_rng(9).standard_normal((1000, 500))
    n, p = x.shape
    assert warm_detect_peak(x, monkeypatch) < 1.15 * (x.nbytes + 8 * n * min(n, p))


def test_detect_at_2000x600_holds_no_n_by_n_array(monkeypatch):
    # n = 2000 < 4p: panels of four 125-column blocks, 8 MB each, where
    # the whole Gram matrix takes 32 MB and took the peak to 4.40x.
    x = np.random.default_rng(11).standard_normal((2000, 600))
    assert warm_detect_peak(x, monkeypatch) < 2.2 * x.nbytes


def test_reuse_check_forms_no_n_by_p_temporary():
    # np.array_equal over the whole matrix forms an n x p bool array, an
    # eighth of x; the check compares blocks of about 64K entries.
    x = np.random.default_rng(8).standard_normal((200, 5000))
    assert traced_peak(pipeline._same_bits, x, x.copy()) < 0.05 * x.nbytes


@pytest.mark.parametrize("shape", [(200, 5000), (20_000, 20)])
def test_finite_scan_forms_no_n_by_p_temporary(shape):
    # np.isfinite over the whole matrix forms an n x p bool array, an
    # eighth of x; the scan checks blocks of about 64K entries.
    x = np.random.default_rng(8).standard_normal(shape)
    assert traced_peak(data._finite_matrix, x) < 0.05 * x.nbytes


def test_detect_on_a_long_series_holds_one_pass_of_sums(monkeypatch):
    # 2000 x 50: beside the copy, one pass's sums (13 rows of n / 2), four
    # rows of n and the block buffers.  The 13 x n sums of both passes, or
    # a trace buffer of more than an eighth of the data, pass 1.55x.
    x = np.random.default_rng(2).standard_normal((2000, 50))
    assert warm_detect_peak(x, monkeypatch) < 1.55 * x.nbytes


def test_detect_on_a_very_long_series_stays_below_30_mb(monkeypatch):
    # 10^5 x 20, 16 MB of data: the sums of both passes at once took the
    # peak to 39 MB.
    x = np.random.default_rng(6).standard_normal((100_000, 20))
    assert warm_detect_peak(x, monkeypatch) <= 30e6


def test_detect_on_a_long_series_holds_one_chunk_of_sums(monkeypatch):
    # 2000 x 50: beside the copy, one chunk's sums (16 rows of 257), the
    # two curves and the block buffers.  One pass's 13 sums of n / 2 and
    # three pair rows of n took it to 1.52x.
    x = np.random.default_rng(2).standard_normal((2000, 50))
    assert warm_detect_peak(x, monkeypatch) < 1.45 * x.nbytes


def test_detect_on_a_long_series_stacks_two_rows_per_block(monkeypatch):
    # 2000 x 50: the feature blocks stack x_t and s_t, 2 x 64 x 50, and
    # expand every r_t = s_n - s_t term; a third stacked row, r_t, and its
    # products took the peak to 1.40x.
    x = np.random.default_rng(2).standard_normal((2000, 50))
    assert warm_detect_peak(x, monkeypatch) < 1.38 * x.nbytes


def test_detect_on_a_very_long_series_stays_below_21_mb(monkeypatch):
    # 10^5 x 20, 16 MB of data: one pass's sums and the pair rows took the
    # peak to 28 MB.
    x = np.random.default_rng(6).standard_normal((100_000, 20))
    assert warm_detect_peak(x, monkeypatch) <= 21e6


def test_localize_after_detect_on_a_very_long_series_stays_below_3_mb(monkeypatch):
    # 10^5 x 20: localize reuses detect's analysis, so its peak is that of
    # the profiles over the 0.6 n splits of the grid, 0.48 MB per row of
    # scores; eight arrays of the grid's length would take it past 4 MB.
    monkeypatch.setattr(pipeline, "_last_seen", None)
    x = np.random.default_rng(6).standard_normal((100_000, 20))
    detect(x)
    assert traced_peak(localize, x) < 3e6


@pytest.fixture(scope="module")
def wide_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "wide.csv"
    np.savetxt(path, np.random.default_rng(3).standard_normal((200, 2000)),
               fmt="%.17g", delimiter=",")
    return str(path)


def test_normal_log_sf_holds_no_list_of_its_input():
    # math.erfc runs on Python floats: one list of the whole input took the
    # peak to 6.1x the input.  A few scores at or past 37, which take the
    # asymptotic series, took it to 4.15x while the input was split in two.
    z = np.random.default_rng(10).standard_normal((2, 100_000))
    far = z.copy()
    far.flat[[3, 50_000, 120_000, 150_001, 199_999]] = [37.0, 38.5, 50.0, 1e3, 1e10]
    for scores in (z, far):
        assert traced_peak(normal_log_sf, scores) < 3.5 * scores.nbytes


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
