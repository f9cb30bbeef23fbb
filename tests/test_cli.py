"""Command-line plumbing: exit codes, formats, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dcbruhat import parabolic, spherical, weights
from dcbruhat.cli import ENV_DEGREE_CAP, build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"

#: sha256 of stdout and the exit code for calls whose output is pinned
#: byte for byte: the catalogue sweep, three catalogued degree-7 pairs,
#: the degree-7 whole group (5,040 cosets), the degree-6 tightness scan
#: and four weight orbits, the last of them the generic orbit at degree 7
#: (5,040 members).
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
    (("cosets", "--degree", "7", "--ic", "{1,2,3,4,5,6}", "--jc", "{1,2,3,4,5,6}"), 0,
     "c7931e6ff281be8a1f984a9ef1279e3becc84cebfcf96242fbbd20d2a938b0e3"),
    (("cosets", "--degree", "7", "--ic", "{1,2,3,4,5,6}", "--jc", "{1,2,3,4,5,6}",
      "--format", "json"), 0,
     "002cc4543bc54b12e593e3f1de0a4958520e0dbac662ba40745ef1a3cc7c9f1c"),
    (("hasse", "--degree", "7", "--ic", "{1,2,3,4,5,6}", "--jc", "{1,2,3,4,5,6}",
      "--format", "json"), 0,
     "57282518ea95b4fa8aa44a5215302bbdafb7f67641c8fee59db48b1e2a8c2e30"),
    (("tight", "--degree", "6"), 0,
     "dcab0699e665608b2e35a6a264f848512bfe13627388ac07cd230b382305e36e"),
    (("tight", "--degree", "6", "--format", "json"), 0,
     "0eb4b5e58ca6c0f7786ea34dcd85e87cd2771382fa24e6586e2726fcefe8f145"),
    (("orbit", "--theta", "5,4,3,2,1,0", "--format", "dot"), 0,
     "5f18ad429b25be7d00b5dd4d6ef9a8e42630fb89c33b2b7a16e6fc1fc7b4b0db"),
    (("orbit", "--theta", "5,4,3,2,1,0", "--format", "json"), 0,
     "13326ecd3d4a98f56600985b0cc06b02821499e52c1a7ffc532cdb064c17926d"),
    (("orbit", "--theta", "3,3/2,1/2,1/2,0,-5/3", "--restrict", "{2,4}", "--format", "dot"), 0,
     "64e2f894fa694a346b0aadc01525d60081a60abfc7980ffa8c8d83527ecb42dd"),
    (("orbit", "--theta", "6,5,4,3,2,1,0", "--format", "json"), 0,
     "a07bb9a73590e51efdde2f1539794b3866492963a5eb435cf7fc2d9bdeeeef6d"),
]

#: sha256 of stdout and of stderr, and the exit code, for the help and
#: usage-error texts at an 80-column width (argparse's wording as of
#: Python 3.11), so that building only one subcommand's arguments per
#: call cannot change them.
PINNED_HELP = [
    (("--help",), 0,
     "8f4eed0649734a2994b50bb64a5cf28842f17a875562cefd1d98dab992b4ea95",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("cosets", "--help"), 0,
     "fad0d7992851ba70a9714f9e196e7ab76f66e386e1b4b2b7084f86cc5e406226",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("hasse", "--help"), 0,
     "afad8fbd3253585e1c98836b5e915e67d16cf04b31d4b031026a2aa279246c39",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("verify", "--help"), 0,
     "82dd4bd1f8fcfd9cadaa218c5d45abad369e0add3f1ffa936ea641c178066295",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("tight", "--help"), 0,
     "128ab6af686d642be34de4dba2c41efa30cbafb4dc9e0e446b576949d0b0d503",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("compare", "--help"), 0,
     "eea83b576e657176ba32918b0e0b1a3ca4a9aee17f18e5eb348d85dfed7bd530",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("orbit", "--help"), 0,
     "e7abf3d1ec2e075749a42f74731fd927c1dd965c8c561acaaaef4c35a5317f80",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("bogus",), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "0b024ad3944ab3bd31353a02badb4397df85a13ca4f5672196a0b7474c326a15"),
    ((), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "bb6453ada171e5a3209b1588687be9e0ef25ed60f4ace412e62e272221818c1a"),
    (("cosets", "--degree"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "58f73fa8be3e9bec75e89f47f4fda870c69aba4a0c9c5d7c911942108d370e6a"),
]

#: Valid command lines covering every subcommand and every argument.
VALID_ARGVS = [
    ["cosets", "--degree", "6", "--ic", "{2}", "--jc", "{2,4}"],
    ["cosets", "--degree", "9", "--ic", "{1,3}", "--jc", "{2}", "--format", "json",
     "--output", "out.json", "--degree-cap", "9"],
    ["hasse", "--degree", "7", "--ic", "{3}", "--jc", "{1,4}", "--format", "json"],
    ["verify", "--degrees", "4..8", "--format", "json", "--degree-cap", "8"],
    ["tight", "--degree", "5"],
    ["compare", "2 1 3", "3 1 2", "--oracle", "--output", "cmp.txt"],
    ["orbit", "--theta", "2,1,1,0", "--restrict", "{1,3}", "--format", "dot"],
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


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_output_is_a_domain_error(tmp_path, capsys, where):
    target = tmp_path / "missing" / "x" if where == "missing-directory" else tmp_path
    code, out, err = run(
        capsys, "cosets", "--degree", "4", "--ic", "{1}", "--jc", "{}", "--output", str(target),
    )
    reason = "No such file or directory" if where == "missing-directory" else "Is a directory"
    assert (code, out, err) == (2, "", f"error: cannot write {target}: {reason}\n")


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


def test_non_dominant_weight_is_shown_in_cli_form(capsys):
    assert run(capsys, "orbit", "--theta", "1,2") == (
        2, "", "error: weight is not weakly decreasing: 1,2\n"
    )
    assert run(capsys, "orbit", "--theta", "1/2,1,0") == (
        2, "", "error: weight is not weakly decreasing: 1/2,1,0\n"
    )


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


@pytest.mark.parametrize("text", ["4..x", "x", "4..", "..5", "4..5..6", "1", "5..4"])
def test_bad_degree_range_is_named(capsys, text):
    assert run(capsys, "verify", "--degrees", text) == (
        2, "", f"error: bad degree range: {text!r}\n"
    )


@pytest.mark.parametrize("word", ["1 1", "0 1", "1 3", "2 3 4"])
def test_bad_permutation_word_is_shown_in_cli_form(capsys, word):
    assert run(capsys, "compare", word, "2 1") == (
        2, "", f"error: not a permutation word: {word}\n"
    )


@pytest.mark.parametrize(
    "argv,code,digest", PINNED_OUTPUTS, ids=[" ".join(argv) for argv, _, _ in PINNED_OUTPUTS]
)
def test_output_is_pinned_byte_for_byte(capsys, monkeypatch, argv, code, digest):
    monkeypatch.delenv(ENV_DEGREE_CAP, raising=False)
    got, out, _ = run(capsys, *argv)
    assert got == code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,code,out_digest,err_digest", PINNED_HELP,
    ids=[" ".join(argv) or "(none)" for argv, *_ in PINNED_HELP],
)
def test_help_and_usage_errors_are_pinned(capsys, monkeypatch, argv, code, out_digest, err_digest):
    monkeypatch.setenv("COLUMNS", "80")
    got, out, err = run(capsys, *argv)
    assert got == code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == out_digest
    assert hashlib.sha256(err.encode("utf-8")).hexdigest() == err_digest


@pytest.mark.parametrize("argv", VALID_ARGVS, ids=lambda argv: argv[0])
def test_one_subcommand_parser_parses_like_the_full_parser(argv):
    assert build_parser(argv[0]).parse_args(argv) == build_parser().parse_args(argv)


def test_one_subcommand_parser_lacks_the_other_arguments(capsys):
    # the other subcommands are registered, without their arguments
    with pytest.raises(SystemExit):
        build_parser("cosets").parse_args(["tight", "--degree", "5"])
    assert "unrecognized arguments: --degree 5" in capsys.readouterr().err


def test_report_json_is_the_standard_encoding():
    """Every report document of degrees 4 to 8 equals json.dumps of its own data."""
    def assert_standard(text):
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"

    for degree in range(4, 9):
        assert_standard(spherical.verify_theorem(degree).to_json())
        for case in spherical.spherical_pairs(degree):
            assert_standard(spherical.build_xplus_poset(
                degree, case.i_complement, case.j_complement).to_json(label=list))
    for degree in range(4, 7):
        assert_standard(weights.tight_scan(degree).to_json())
    full = frozenset(range(1, 7))
    for ic, jc in [({3}, {1, 4}), ({2}, {2, 5}), (set(), set()), (set(full), {1})]:
        assert_standard(parabolic.decompose(7, full - ic, full - jc).to_json())
    built = weights.orbit_poset(weights.parse_weight("3,3,2,1,0,0"), None)
    assert_standard(built.poset.to_json(label=weights.format_weight))


def test_cli_import_loads_no_third_party_module():
    # The interpreter's own site hooks may load packages before any
    # code runs, so only modules new after the import count.
    probe = (
        "import sys; before = set(sys.modules); import dcbruhat.cli; "
        "print(sorted(m for m in set(sys.modules) - before "
        "if m.split('.')[0] not in sys.stdlib_module_names and m.split('.')[0] != 'dcbruhat'))"
    )
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-s", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Together they cost about half of the CLI's cold start; the report
    # records are NamedTuples so that neither is needed.
    probe = (
        "import sys; before = set(sys.modules); import dcbruhat.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-s", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_module_entry_point_runs_the_cli():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-m", "dcbruhat", "compare", "2 1 3", "3 1 2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "true\n"
