"""Smoke tests for the scripts under ``scripts/``: each ``main()`` runs on a small range."""

import hashlib
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

#: The DOT files the exporter writes at degree 6: the catalogued
#: non-chain pairs, named after their parameters and shape.
DEGREE_6_FIGURES = [
    "deg6_ic2_jc1-3_ladder-c.dot",
    "deg6_ic2_jc2-4_stretched-diamond.dot",
    "deg6_ic2_jc3-5_ladder-b.dot",
    "deg6_ic3_jc1-3_stretched-diamond.dot",
    "deg6_ic3_jc3-5_stretched-diamond.dot",
    "deg6_ic4_jc1-3_ladder-b.dot",
    "deg6_ic4_jc2-4_stretched-diamond.dot",
    "deg6_ic4_jc3-5_ladder-c.dot",
]

#: sha256 over the names and contents of those files, in name order.
DEGREE_6_FIGURES_SHA256 = "7292cee0fe592dee9ac93a1a418ffad9d19e11b0c229ea0496cfcd4f2695a4e0"


def run_script(name, argv, monkeypatch):
    main = runpy.run_path(str(SCRIPTS / name))["main"]
    monkeypatch.setattr(sys, "argv", [name, *argv])
    return main()


def test_shape_census_finds_no_mismatch(capsys, monkeypatch):
    assert run_script("shape_census.py", ["--degrees", "4..6"], monkeypatch) == 0
    out = capsys.readouterr().out
    assert "MISMATCH" not in out
    for header in ("degree 4: 30 pairs", "degree 5: 64 pairs", "degree 6: 134 pairs"):
        assert header + "\n" in out


def test_hasse_figure_export_writes_the_degree_6_figures(tmp_path, capsys, monkeypatch):
    argv = ["--degrees", "6", "--out", str(tmp_path)]
    assert run_script("export_hasse_figures.py", argv, monkeypatch) == 0
    assert capsys.readouterr().out == f"wrote 8 files to {tmp_path}/\n"
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == DEGREE_6_FIGURES
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode() + b"\0" + (tmp_path / name).read_bytes() + b"\0")
    assert digest.hexdigest() == DEGREE_6_FIGURES_SHA256


@pytest.mark.parametrize("degrees", ["7..4", "x", "1"])
@pytest.mark.parametrize(
    "name,extra", [("shape_census.py", []), ("export_hasse_figures.py", ["--out", "out"])]
)
def test_a_bad_degree_range_is_a_usage_error(name, extra, degrees, tmp_path, capsys, monkeypatch):
    # Each once printed nothing and exited 0, raised a ValueError
    # traceback, or failed inside the catalogue sweep.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        run_script(name, ["--degrees", degrees, *extra], monkeypatch)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and f"--degrees: invalid _parse_degree_range value: {degrees!r}" in err
    assert not any(tmp_path.iterdir())
