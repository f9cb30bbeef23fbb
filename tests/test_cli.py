"""Command-line plumbing: exit codes, formats, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcbruhat import parabolic, spherical, weights
from dcbruhat.cli import COMMANDS, ENV_DEGREE_CAP, build_parser, main, read_argv

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
#: Python 3.11), so that neither building only one subcommand's
#: arguments per call nor the direct reader, which leaves every such
#: call to argparse, can change them.  The entries after ``cosets
#: --degree`` are calls only argparse reads: a bad int, a bad choice, a
#: missing flag, a stray word, an ambiguous abbreviation, a value
#: starting with ``-``, ``-h``, a missing positional and ``--``.
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
    (("cosets", "--degree", "x", "--ic", "{3}", "--jc", "{1,4}"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "750c955bd6033a56c72f47797215a135b83f49e3ccd6caafbc8b7e65a6644427"),
    (("cosets", "--degree", "7", "--ic", "{3}", "--jc", "{1,4}", "--format", "svg"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "0ff806b2647e0c37f68435068d021ccd14d181675e080fb99fb7bf6b9ef0b355"),
    (("hasse", "--degree", "7", "--ic", "{3}"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "a2ff48f4c84980667664fe59dec1d4a94b5e8759461893536bb2d10aa05c6ab0"),
    (("cosets", "--degree", "7", "--ic", "{3}", "--jc", "{1,4}", "stray"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "3138af1040839aa23cc3beed8fd93a128e813e144c9c7d7e797aac51913ceaa6"),
    (("cosets", "--d", "7", "--ic", "{3}", "--jc", "{1,4}"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "5259c4226392ed3316b743acef702c9f8e928e993c19e0ff4288f72bf59d9792"),
    (("orbit", "--theta", "-1,0"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "3b3c47e4a7bf4bda0d00b25a81f80a52c710a56168a764d32c772768cc62642b"),
    (("verify", "--degrees", "4..5", "--degree-cap", "x"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "b82e4a55f94f566c34697560c72a53f2693e9d15c21a00c81c519427511a33c6"),
    (("tight", "--degree", "-3"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "8c1359b4fdb490a16384fa874dcd50a20e4e08db05a1a13be7ae490ae4784a9b"),
    (("hasse", "-h"), 0,
     "afad8fbd3253585e1c98836b5e915e67d16cf04b31d4b031026a2aa279246c39",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("compare", "2 1 3"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "b68a62303271ce43a10bab3e2db7d29a451db18fc133b9ba68a58aefe448490f"),
    (("cosets", "--", "--degree", "7"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "242acf595658ec412fd485066a82adda295c06b7c18a01fc98642a27990e1e4e"),
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


def test_degree_range_past_the_cap_is_refused_without_listing_it(capsys, monkeypatch):
    import tracemalloc

    monkeypatch.delenv(ENV_DEGREE_CAP, raising=False)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", "--degrees", "2..1000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", "error: degree 9 exceeds the cap 8\n")
    assert peak < 1_000_000


def test_tight_at_a_huge_degree_is_refused_before_any_weight(capsys, monkeypatch):
    # The whole group's bound is grown degree by degree; no staircase of
    # this size may be built.
    monkeypatch.setattr(weights, "_staircase", None)
    start = time.perf_counter()
    code, out, err = run(capsys, "tight", "--degree", "300000000", "--degree-cap", "300000000")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "member cap" in err


def test_weight_exponents_past_the_print_limit_are_refused(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "orbit", "--theta", "1e300000000,0")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    with pytest.raises(ValueError, match="digit limit"):
        weights.check_weight(["1e-300000000"])
    # An exponent the interpreter can still print is read as before.
    code, out, _ = run(capsys, "orbit", "--theta", "1e400,0")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "579c907385c609ec1fde86aaa1a48c5cded7b08f0304d5704438ce2d88f56bd6"
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


def test_pairs_of_few_long_blocks_pass_the_coset_budget(capsys):
    code, out, err = run(
        capsys, "cosets", "--degree", "18", "--degree-cap", "18",
        "--ic", "{8}", "--jc", "{1,5}",
    )
    assert (code, err) == (0, "")
    assert "cosets=10" in out


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


@pytest.mark.parametrize("argv", VALID_ARGVS, ids=lambda argv: argv[0])
def test_reader_reads_valid_argvs_like_argparse(argv):
    got = read_argv(argv)
    if argv[0] == "compare":
        assert got is None  # positionals and switches are argparse's
    else:
        assert vars(got) == vars(build_parser().parse_args(argv))


#: Values the reader must read as argparse does, by option kind.
GOOD_VALUES = {
    int: ["7", "+5", " 6 ", "06", "1_0", "\u0667"],
    str: ["{3}", "{1,4}", "{}", "2,1,1,0", "4..6", "out.txt", "", "a=b", "2 1 3", "x-y"],
}
#: Values that are bad for some or all options: bad ints, bad choices,
#: values starting with ``-``.
TRICKY_VALUES = ["x", "7.5", "", "-3", "-1,0", "-", "--", "-h", "svg", "dot", "table"]
#: Words that make a call malformed or leave it to argparse.
TRICKY_WORDS = [
    "stray", "--", "-h", "--help", "--deg", "--d", "--form", "--degree-c",
    "--degree=7", "--format=json", "--oracle",
]


@st.composite
def command_lines(draw):
    """An argv and whether it is well formed in the reader's sense.

    Well formed: an option-only subcommand, each of its flags at most
    once in full spelling, each required one present, each value one
    of its option's good values (or, for a plain str option, any value
    not starting with ``-``) and no other word.
    """
    def rarely():
        return draw(st.integers(0, 4)) == 4

    command = draw(st.sampled_from(sorted(COMMANDS) + ["bogus"]))
    options = COMMANDS[command][2] if command in COMMANDS else ()
    well_formed = command in COMMANDS
    pairs = []
    for opt in options:
        valued = opt.flag.startswith("--") and opt.kind is not bool
        if not valued or (rarely() if opt.required else draw(st.booleans())):
            well_formed = well_formed and not opt.required
            continue
        good = list(opt.choices or GOOD_VALUES[opt.kind])
        if rarely():
            value = draw(st.sampled_from(TRICKY_VALUES))
            free = opt.kind is str and not opt.choices and not value.startswith("-")
            well_formed = well_formed and (value in good or free)
        else:
            value = draw(st.sampled_from(good))
        pairs.append([opt.flag, value])
    pairs = draw(st.permutations(pairs))
    if pairs and rarely():
        pairs.append(list(draw(st.sampled_from(pairs))))  # a duplicated flag
        well_formed = False
    words = [word for pair in pairs for word in pair]
    while rarely():
        word = draw(st.sampled_from(TRICKY_WORDS + TRICKY_VALUES))
        words.insert(draw(st.integers(0, len(words))), word)
        well_formed = False
    return [command] + words, well_formed


@settings(max_examples=400)
@given(command_lines())
@example((["cosets", "--degree", "7", "--ic", "{3}", "--jc", "{1,4}", "--format", "dot"], False))
@example((["hasse", "--deg", "7", "--ic", "{3}", "--jc", "{1,4}"], False))
@example((["tight", "--degree", "-3"], False))
@example((["tight", "--degree", "5", "--degree", "6"], False))
def test_reader_declines_or_agrees_with_argparse(case):
    argv, well_formed = case
    got = read_argv(argv)
    assert (got is not None) == well_formed, argv
    if got is not None:
        assert vars(got) == vars(build_parser().parse_args(argv)), argv


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


def run_python(*args, cwd=None) -> str:
    """Stdout of a fresh ``python -s`` run with ``src`` first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-s", *args], env=env, cwd=cwd, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def newly_loaded(code, cwd=None) -> set[str]:
    """The modules a fresh interpreter loads while it runs code.

    The interpreter's own site hooks may load packages before any code
    runs, so only modules new after that count.
    """
    probe = (
        "import sys; before = set(sys.modules); "
        f"{code}; print(*sorted(set(sys.modules) - before), file=sys.__stdout__)"
    )
    return set(run_python("-c", probe, cwd=cwd).split())


def test_cli_import_loads_no_third_party_module():
    loaded = newly_loaded("import dcbruhat.cli")
    assert "dcbruhat.cli" in loaded
    top = {m.split(".")[0] for m in loaded}
    assert sorted(top - set(sys.stdlib_module_names) - {"dcbruhat"}) == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Together they cost about half of the CLI's cold start; the report
    # records are named tuples so that neither is needed.
    assert {"dataclasses", "inspect"} & newly_loaded("import dcbruhat.cli") == set()


def test_cli_import_loads_neither_argparse_gettext_nor_json():
    # argparse with gettext, and the json package, each cost a few ms of
    # every CLI start: argparse is imported only for help and usage
    # errors, and json_text escapes strings with _json's helper.
    loaded = newly_loaded("import dcbruhat.cli")
    assert {"argparse", "gettext", "json"} & loaded == set()


def test_cli_import_loads_no_fractions_but_loads_weights():
    # fractions, with decimal, _decimal and numbers, was the largest share
    # of every CLI start; weights imports it only where a Fraction is
    # built.  weights itself still loads at start, so tracers that wrap
    # the modules loaded then still see it.
    loaded = newly_loaded("import dcbruhat.cli")
    assert {"fractions", "decimal", "_decimal", "numbers"} & loaded == set()
    assert "dcbruhat.weights" in loaded


def test_coset_and_catalogue_calls_do_not_load_fractions(tmp_path):
    argvs = [argv for argv in VALID_ARGVS if argv[0] in ("verify", "cosets", "hasse")]
    assert {argv[0] for argv in argvs} == {"verify", "cosets", "hasse"}
    code = (
        "import os, dcbruhat.cli; sys.stdout = open(os.devnull, 'w'); "
        f"codes = [dcbruhat.cli.main(argv) for argv in {argvs!r}]; "
        "assert all(code in (0, 1) for code in codes), codes"
    )
    assert "fractions" not in newly_loaded(code, cwd=tmp_path)


def pinned_call_loads(pin) -> set[str]:
    """The modules a fresh interpreter loads for a pinned call, with its exit and digest."""
    argv, code, digest = pin
    probe = (
        "import hashlib, io, dcbruhat.cli; sys.stdout = io.StringIO(); "
        f"code = dcbruhat.cli.main({list(argv)!r}); "
        "print(f'exit={code}', hashlib.sha256(sys.stdout.getvalue().encode()).hexdigest(), "
        "file=sys.__stdout__)"
    )
    loaded = newly_loaded(probe)
    assert {f"exit={code}", digest} <= loaded
    return loaded


def test_orbit_call_loads_fractions_and_keeps_its_output():
    loaded = pinned_call_loads(next(p for p in PINNED_OUTPUTS if p[0][0] == "orbit"))
    assert "fractions" in loaded


def test_tight_call_does_not_load_fractions_and_keeps_its_output():
    # tight_scan runs on int staircases, which print as the Fractions did.
    for pin in (p for p in PINNED_OUTPUTS if p[0][0] == "tight"):
        loaded = pinned_call_loads(pin)
        assert {"fractions", "decimal", "_decimal", "numbers"} & loaded == set()


def test_option_only_calls_do_not_load_argparse(tmp_path):
    argvs = [argv for argv in VALID_ARGVS if argv[0] != "compare"]
    code = (
        "import os, dcbruhat.cli; sys.stdout = open(os.devnull, 'w'); "
        f"codes = [dcbruhat.cli.main(argv) for argv in {argvs!r}]; "
        "assert all(code in (0, 1) for code in codes), codes"
    )
    assert "argparse" not in newly_loaded(code, cwd=tmp_path)


def test_module_entry_point_runs_the_cli():
    assert run_python("-m", "dcbruhat", "compare", "2 1 3", "3 1 2") == "true\n"
