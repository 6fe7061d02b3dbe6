"""tools/peak_probe.py: the peaks of a fresh detect and of localize after it, and a fresh detect's time."""

import importlib.util
from pathlib import Path

import numpy as np

from cpjoint import pipeline

_PATH = Path(__file__).resolve().parent.parent / "tools" / "peak_probe.py"
_spec = importlib.util.spec_from_file_location("peak_probe", _PATH)
peak_probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(peak_probe)


def test_fresh_detect_peak_holds_the_copy_and_keeps_nothing():
    x = np.random.default_rng(0).standard_normal((400, 20))
    peak = peak_probe.fresh_detect_peak(x)
    # detect stores a copy of the data, so the peak is at least the data.
    assert peak >= x.nbytes
    assert pipeline._last_seen is None


def test_localize_peak_is_the_profile_step_and_keeps_nothing():
    x = np.random.default_rng(0).standard_normal((400, 20))
    peak = peak_probe.localize_peak(x)
    # localize reuses detect's analysis, so it copies nothing of the data.
    assert 0 < peak < x.nbytes
    assert pipeline._last_seen is None


def test_fresh_detect_seconds_analyses_afresh_and_keeps_nothing(monkeypatch):
    x = np.random.default_rng(0).standard_normal((400, 20))
    calls = []
    detect = peak_probe.detect

    def counting(data):
        calls.append(pipeline._last_seen)
        return detect(data)

    monkeypatch.setattr(peak_probe, "detect", counting)
    assert peak_probe.fresh_detect_seconds(x, runs=3) > 0.0
    # No call finds an analysis kept from the one before it.
    assert calls == [None, None, None]
    assert pipeline._last_seen is None
