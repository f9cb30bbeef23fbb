"""Workload definitions, seeded op generation and output checks.

An op is one ``dcbruhat.cli.main(argv)`` call.  Every op a workload can
generate has a stored reference output in ``refs/`` (gzip-compressed),
written by ``make_refs.py`` at a commit whose outputs were accepted, and
an expected exit code in ``refs/manifest.json``.

Pools are split into slots: the seed picks one entry per slot.  Entries
of one slot do the same amount of work (same dominant cost: the whole
group's order tables for ``cosets``; the same equality pattern, hence
the same orbit poset and element order, for ``orbits``), so medians from
different seeds are comparable while the inputs still differ.
"""
from __future__ import annotations

import gzip
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(HERE, "refs")
MANIFEST = os.path.join(REFS_DIR, "manifest.json")

WORKLOADS = ("catalogue", "cosets", "orbits")

CATALOGUE_DEGREES = (4, 5, 6, 7, 8)

#: Catalogued pairs per degree that fail only the height bound of
#: acceptance check 5 (all of them ``ladder-a``).  They are the expected
#: answer, so they do not count as failed ops.
HEIGHT_ONLY_FAILURES = {4: 0, 5: 0, 6: 2, 7: 4, 8: 8}

COSETS_DEGREE = 7

#: (I complement, J complement) pairs at degree 7, one list per slot.
#: Slot 0 is printed as a table, slots 1 and 2 as JSON.
COSETS_POOL = (
    ("table", (("{1,3,5}", "{2,4}"), ("{2,5}", "{4,5}"), ("{1,4,6}", "{1,5}"), ("{3,6}", "{3,5}"))),
    ("json", (("{1,2,3}", "{1,2,4}"), ("{2,6}", "{2,6}"), ("{1,4,5}", "{2,4}"), ("{3}", "{1,4}"))),
    ("json", (("{1,3,6}", "{2,5,6}"), ("{2,3}", "{2,4}"), ("{4,6}", "{2,4,6}"),
              ("{1,3,5}", "{3,4,6}"))),
)

#: Dominant degree-6 weights with 180-member orbits (two pairs of equal
#: entries), one list per slot.  Within a slot the equality pattern is
#: fixed and only the values change; slot 2 holds non-integer rationals.
ORBITS_POOL = (
    ("dot", ("3,3,2,2,1,0", "5,5,4,4,3,2", "9,9,4,4,1,-2", "6,6,2,2,1,-1")),
    ("json", ("3,3,2,1,0,0", "5,5,4,3,2,2", "9,9,4,1,-2,-2", "7,7,3,2,-4,-4")),
    ("dot", ("7/2,5/2,5/2,3/2,3/2,1/2", "3/2,1,1,1/3,1/3,-1/2",
             "5/3,2/3,2/3,1/3,1/3,-4/3", "9/4,7/4,7/4,1/4,1/4,-1/4")),
)


def _op(op_id: str, argv: list[str], check: str, **extra) -> dict:
    return {"id": op_id, "argv": argv, "check": check, **extra}


def catalogue_op(degree: int) -> dict:
    return _op(f"verify-{degree}", ["verify", "--degrees", str(degree), "--format", "json"],
               "catalogue", degree=degree)


def cosets_op(ic: str, jc: str, fmt: str) -> dict:
    digits = [genset.strip("{}").replace(",", "") for genset in (ic, jc)]
    key = f"cosets-{COSETS_DEGREE}-{digits[0]}-{digits[1]}-{fmt}"
    argv = ["cosets", "--degree", str(COSETS_DEGREE), "--ic", ic, "--jc", jc, "--format", fmt]
    return _op(key, argv, "cosets", degree=COSETS_DEGREE, format=fmt)


def tight_op() -> dict:
    return _op("tight-6", ["tight", "--degree", "6", "--format", "json"], "plain")


def orbit_op(theta: str, fmt: str) -> dict:
    key = "orbit-" + theta.replace("/", "_") + "-" + fmt
    argv = ["orbit", "--theta", theta, "--format", fmt]
    return _op(key, argv, "orbit", format=fmt, members=180)


def make_ops(workload: str, seed: int) -> list[dict]:
    """The op list of one repetition; the same seed gives the same list."""
    rng = random.Random(seed)
    if workload == "catalogue":
        return [catalogue_op(d) for d in CATALOGUE_DEGREES]
    if workload == "cosets":
        return [cosets_op(*rng.choice(pairs), fmt) for fmt, pairs in COSETS_POOL]
    if workload == "orbits":
        return [tight_op()] + [orbit_op(rng.choice(thetas), fmt) for fmt, thetas in ORBITS_POOL]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def all_ops() -> list[dict]:
    """Every op any seed can generate; each has a stored reference."""
    ops = [catalogue_op(d) for d in CATALOGUE_DEGREES]
    ops += [cosets_op(ic, jc, fmt) for fmt, pairs in COSETS_POOL for ic, jc in pairs]
    ops.append(tight_op())
    ops += [orbit_op(theta, fmt) for fmt, thetas in ORBITS_POOL for theta in thetas]
    return ops


# --- references and checks --------------------------------------------------

def ref_path(op: dict) -> str:
    return os.path.join(REFS_DIR, op["id"] + ".gz")


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def load_ref(op: dict) -> bytes:
    with open(ref_path(op), "rb") as fh:
        return gzip.decompress(fh.read())


def _is_json(op: dict) -> bool:
    return op["argv"][op["argv"].index("--format") + 1] == "json"


def json_covers(ref, out, where: str = "$") -> str | None:
    """Whether ``out`` has every key of ``ref`` with an equal value.

    Dicts may gain keys; lists must match in length and element by
    element.  Returns the path of the first difference, or None.
    """
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return where
        for key, value in ref.items():
            if key not in out:
                return f"{where}.{key} (missing)"
            diff = json_covers(value, out[key], f"{where}.{key}")
            if diff:
                return diff
        return None
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return where
        for k, (a, b) in enumerate(zip(ref, out)):
            diff = json_covers(a, b, f"{where}[{k}]")
            if diff:
                return diff
        return None
    return None if type(ref) is type(out) and ref == out else where


def _check_catalogue(op: dict, doc: dict) -> str | None:
    degree = op["degree"]
    if doc.get("degree") != degree:
        return f"report degree {doc.get('degree')} != {degree}"
    failed = [c for c in doc["cases"] if not c["passed"]]
    height_only = [
        c for c in failed
        if c["tag"] == "ladder-a"
        and c["height_bound"] is False
        and c["lattice"] and c["shape_match"] and c["bounds"]
        and c["bottom_match"] is not False and c["merge_rule"] is not False
    ]
    want = HEIGHT_ONLY_FAILURES[degree]
    if len(failed) != want or len(height_only) != want:
        return (f"degree {degree}: {len(failed)} failing cases, {len(height_only)} "
                f"ladder-a height-only; expected {want}")
    return None


def _coset_sizes(op: dict, data: bytes) -> list[int]:
    if op["format"] == "json":
        return [c["size"] for c in json.loads(data)["cosets"]]
    rows = data.decode("utf-8").splitlines()[3:]
    return [int(row.split()[-1]) for row in rows if row.strip()]


def _check_semantics(op: dict, data: bytes) -> str | None:
    kind = op["check"]
    if kind == "catalogue":
        return _check_catalogue(op, json.loads(data))
    if kind == "cosets":
        total = sum(_coset_sizes(op, data))
        if total != math.factorial(op["degree"]):
            return f"coset sizes sum to {total}, not {op['degree']}!"
    if kind == "orbit":
        if op["format"] == "json":
            count = len(json.loads(data)["elements"])
        else:
            count = sum(1 for line in data.decode("utf-8").splitlines() if "[label=" in line)
        if count != op["members"]:
            return f"orbit poset has {count} elements, expected {op['members']}"
    return None


def check_output(op: dict, exit_code: int, expected_exit: int, data: bytes | None,
                 ref: bytes) -> str | None:
    """Why one op's result is wrong, or None when it matches its reference.

    Table and DOT output must match byte for byte; JSON output must
    carry every key of the reference with an equal value.
    """
    if exit_code != expected_exit:
        return f"exit code {exit_code}, expected {expected_exit}"
    if data is None:
        return "no output written"
    if _is_json(op):
        try:
            out = json.loads(data)
        except ValueError as exc:
            return f"output is not JSON: {exc}"
        diff = json_covers(json.loads(ref), out)
        if diff:
            return f"differs from reference at {diff}"
    elif data != ref:
        return "differs from reference bytes"
    return _check_semantics(op, data)
