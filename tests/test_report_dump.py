"""tools/report_dump.py: a dump reads bitwise against itself, a 1-ulp move is reported
but passes, and a flipped decision fails the comparison."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "report_dump.py"
_spec = importlib.util.spec_from_file_location("report_dump", _PATH)
report_dump = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_dump)


@pytest.fixture(scope="module")
def reports():
    return report_dump.array_reports("16x16", report_dump.joint_change(16, 16, seed=32))


def compare_files(tmp_path, a, b, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, dump in zip(paths, (a, b)):
        path.write_text(json.dumps(dump), encoding="utf-8")
    status = report_dump.main(["--compare", *map(str, paths)])
    return status, capsys.readouterr().out.splitlines()


def test_a_dump_reads_bitwise_against_itself(reports, tmp_path, capsys):
    status, lines = compare_files(tmp_path, reports, reports, capsys)
    assert status == 0
    assert lines == [f"{name}: bitwise" for name in sorted(reports)]


def test_one_ulp_is_not_bitwise_but_passes(reports, tmp_path, capsys):
    moved = json.loads(json.dumps(reports))
    t_n = float.fromhex(moved["16x16/detect"]["t_n"])
    moved["16x16/detect"]["t_n"] = math.nextafter(t_n, math.inf).hex()
    status, lines = compare_files(tmp_path, reports, moved, capsys)
    assert status == 0
    line = next(line for line in lines if line.startswith("16x16/detect:"))
    assert "largest relative difference" in line
    assert sum(line.endswith(": bitwise") for line in lines) == len(reports) - 1


def test_a_flipped_decision_fails(reports, tmp_path, capsys):
    flipped = json.loads(json.dumps(reports))
    flipped["16x16/detect"]["reject"] = not flipped["16x16/detect"]["reject"]
    status, lines = compare_files(tmp_path, reports, flipped, capsys)
    assert status == 1
    assert "16x16/detect: DIFFERS in a decision, split or integer field" in lines
