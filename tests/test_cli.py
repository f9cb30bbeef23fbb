"""Command-line plumbing: exit codes, formats, determinism."""

import json
import math

import pytest

from dcbruhat.cli import ENV_DEGREE_CAP, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cosets_table(capsys):
    code, out, _ = run(capsys, "cosets", "--degree", "6", "--ic", "{2}", "--jc", "{2,4}")
    assert code == 0
    assert "cosets=6" in out
    assert "2 1 6 5 4 3" in out
    assert "6 5 4 3 2 1" in out


def test_cosets_json(capsys):
    code, out, _ = run(
        capsys, "cosets", "--degree", "6", "--ic", "{2}", "--jc", "{2,4}",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 6
    assert len(doc["cosets"]) == 6


def test_hasse_dot_is_deterministic(capsys):
    args = ("hasse", "--degree", "6", "--ic", "{2}", "--jc", "{2,4}")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("digraph hasse {")
    assert 'label="2 1 6 5 4 3"' in out1


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "diagram.dot"
    code, out, _ = run(
        capsys, "hasse", "--degree", "5", "--ic", "{2}", "--jc", "{1,3}",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("digraph hasse {")


def test_verify_clean_range(capsys):
    code, out, _ = run(capsys, "verify", "--degrees", "4..5")
    assert code == 0
    assert "degree 4" in out and "degree 5" in out
    assert "all_pass=True" in out


def test_verify_reports_failures_at_degree_six(capsys):
    # the height claim genuinely fails for two catalogued pairs
    code, out, _ = run(capsys, "verify", "--degrees", "6")
    assert code == 1
    assert "all_pass=False" in out


def test_tight_scan_cli(capsys):
    code, out, _ = run(capsys, "tight", "--degree", "4", "--format", "table")
    assert code == 0
    assert "all_match=True" in out


def test_compare(capsys):
    code, out, _ = run(capsys, "compare", "2 1 3", "3 1 2")
    assert code == 0
    assert out == "true\n"
    code, out, _ = run(capsys, "compare", "3 1 2", "2 1 3")
    assert code == 0
    assert out == "false\n"
    code, out, _ = run(capsys, "compare", "--oracle", "2 1 3", "3 1 2")
    assert code == 0
    assert out == "true\n"


def test_orbit_formats(capsys):
    code, out, _ = run(capsys, "orbit", "--theta", "1,0,0")
    assert code == 0
    assert "members 3" in out
    code, out, _ = run(capsys, "orbit", "--theta", "2,1,1,0",
                       "--restrict", "{1,3}", "--format", "dot")
    assert code == 0
    assert out.count("->") == 4


def test_orbit_rejects_non_dominant(capsys):
    code, _, err = run(capsys, "orbit", "--theta", "0,1")
    assert code == 2
    assert "error:" in err


def test_degree_cap_errors(capsys):
    code, _, err = run(capsys, "cosets", "--degree", "9", "--ic", "{}", "--jc", "{}")
    assert code == 2
    assert "cap" in err


def test_degree_cap_flag_raises_the_cap(capsys):
    code, out, err = run(
        capsys, "cosets", "--degree", "9", "--ic", "{1,3}", "--jc", "{2}",
        "--degree-cap", "9", "--format", "json",
    )
    assert code == 0, err
    assert sum(c["size"] for c in json.loads(out)["cosets"]) == math.factorial(9)
    code, out, err = run(
        capsys, "hasse", "--degree", "9", "--ic", "{3}", "--jc", "{1,4}",
        "--degree-cap", "9", "--format", "json",
    )
    assert code == 0, err
    code, out, err = run(capsys, "verify", "--degrees", "9", "--degree-cap", "9")
    assert code in (0, 1), err
    assert "degree 9" in out


def test_coset_budget_refuses_large_pairs(capsys):
    code, _, err = run(
        capsys, "cosets", "--degree", "9", "--ic", "{1,2,3,4,5,6,7,8}",
        "--jc", "{1,2,3,4,5,6,7,8}", "--degree-cap", "9",
    )
    assert code == 2
    assert "cap" in err


def test_degree_cap_env_and_flag(capsys, monkeypatch):
    monkeypatch.setenv(ENV_DEGREE_CAP, "5")
    code, _, err = run(capsys, "cosets", "--degree", "6", "--ic", "{2}", "--jc", "{2,4}")
    assert code == 2
    # an explicit flag wins over the environment
    code, out, _ = run(
        capsys, "cosets", "--degree", "6", "--ic", "{2}", "--jc", "{2,4}",
        "--degree-cap", "6",
    )
    assert code == 0


def test_bad_genset_text(capsys):
    code, _, err = run(capsys, "cosets", "--degree", "5", "--ic", "2", "--jc", "{}")
    assert code == 2


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "cosets", "--degree", "5")[0] == 2
    assert run(capsys, "verify", "--degrees", "x..y")[0] == 2
