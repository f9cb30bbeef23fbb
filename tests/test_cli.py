"""Command-line plumbing: exit codes, formats, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dcbruhat.cli import ENV_DEGREE_CAP, main

SRC = Path(__file__).resolve().parent.parent / "src"

#: sha256 of stdout and the exit code for calls whose output is pinned
#: byte for byte: the catalogue sweep and three catalogued degree-7 pairs.
PINNED_OUTPUTS = [
    (("verify", "--degrees", "4..8"), 1,
     "7c1b4a71850d123c3b784855cfd431b237457d1b1a4ad678f528ef2f8eb21625"),
    (("verify", "--degrees", "4..8", "--format", "json"), 1,
     "bdad6be22985a8692fe481b28443fafe9da3baff8ff6638422524334eb7614be"),
    (("cosets", "--degree", "7", "--ic", "{3}", "--jc", "{1,4}"), 0,
     "b23de922bb828263ccd7431a076f2ee7c85515d1b40e3177a787f1e59365fcaf"),
    (("cosets", "--degree", "7", "--ic", "{3}", "--jc", "{1,4}", "--format", "json"), 0,
     "06b2d9b7d25c499e1fce4dd72aad8b08a902dd10efe27a6713f18a2ca3cdc0a3"),
    (("cosets", "--degree", "7", "--ic", "{2}", "--jc", "{2,5}"), 0,
     "3484739dde1aa50a09a8aa04fe0a06976f2ee27cd7915cb03232bea93b52dd83"),
    (("cosets", "--degree", "7", "--ic", "{2}", "--jc", "{2,5}", "--format", "json"), 0,
     "07df2059a5bdffd187b62c3586d4af316a77dca2637962ea3d0d2f3e724b8837"),
    (("hasse", "--degree", "7", "--ic", "{3}", "--jc", "{1,4}"), 0,
     "6e44298e9117856ac59e5d4fc54cdd499c80d4aed6ed9b875ff7e1d41b1f0037"),
    (("hasse", "--degree", "7", "--ic", "{3}", "--jc", "{1,4}", "--format", "json"), 0,
     "d044ceb12bf32cd5e5d98a618c5e49f617e68775f67c25c8ac5a1bac1397e380"),
    (("hasse", "--degree", "7", "--ic", "{2}", "--jc", "{2,5}"), 0,
     "9bd6059e5c08ee7b4548ced06e5f858394fefc74444ed14f492fa36dab839165"),
    (("hasse", "--degree", "7", "--ic", "{2}", "--jc", "{2,5}", "--format", "json"), 0,
     "aab36865b9c8707dc15dc70f3c126223fd86f2ac2dbab7b777abc9ca2f682be0"),
    (("hasse", "--degree", "7", "--ic", "{4}", "--jc", "{1,3}"), 0,
     "579513ed86b6f743303d9f7f4a06bfc9343c2a0523b5bf49eaf9b912608e8437"),
]


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


def test_tight_honours_the_degree_cap(capsys, monkeypatch):
    monkeypatch.delenv(ENV_DEGREE_CAP, raising=False)
    code, _, err = run(capsys, "tight", "--degree", "7")
    assert code == 2
    assert "cap" in err
    code, out, err = run(capsys, "tight", "--degree", "7", "--degree-cap", "7")
    assert code == 0, err
    assert "shapes=64" in out and "all_match=True" in out
    monkeypatch.setenv(ENV_DEGREE_CAP, "4")
    code, _, err = run(capsys, "tight", "--degree", "5")
    assert code == 2
    assert "cap 4" in err


def test_orbit_honours_the_degree_cap(capsys, monkeypatch):
    monkeypatch.delenv(ENV_DEGREE_CAP, raising=False)
    theta = ",".join(["1"] + ["0"] * 8)
    code, _, err = run(capsys, "orbit", "--theta", theta)
    assert code == 2
    assert "cap" in err
    code, out, err = run(capsys, "orbit", "--theta", theta, "--degree-cap", "9")
    assert code == 0, err
    assert "members 9" in out


def test_orbit_size_is_refused_whatever_the_degree_cap(capsys, monkeypatch):
    monkeypatch.setenv(ENV_DEGREE_CAP, "9")
    code, _, err = run(capsys, "tight", "--degree", "9")
    assert code == 2
    assert "member cap" in err
    code, _, err = run(capsys, "orbit", "--theta", "8,7,6,5,4,3,2,1,0")
    assert code == 2
    assert "member cap" in err


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


@pytest.mark.parametrize(
    "argv,code,digest", PINNED_OUTPUTS, ids=[" ".join(argv) for argv, _, _ in PINNED_OUTPUTS]
)
def test_output_is_pinned_byte_for_byte(capsys, monkeypatch, argv, code, digest):
    monkeypatch.delenv(ENV_DEGREE_CAP, raising=False)
    got, out, _ = run(capsys, *argv)
    assert got == code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_module_entry_point_runs_the_cli():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-m", "dcbruhat", "compare", "2 1 3", "3 1 2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "true\n"
