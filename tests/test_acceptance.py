"""Acceptance gate: the twelve numbered checks, one test and one verdict line each.

Check 5 is expected to fail: the height bound does not hold for any
a-family ladder (height j + 1 against the bound j), at any rung count,
and the check states the claim as catalogued rather than weakening it
to fit.  Check 12 states the exact rung counts and heights instead.
"""

import itertools
import math
import random
import time

import pytest

from dcbruhat import weights
from dcbruhat.bruhat import leq, leq_subword_oracle
from dcbruhat.cli import main
from dcbruhat.parabolic import max_representatives, min_representatives
from dcbruhat.poset import ShapeClass, classify_shape
from dcbruhat.spherical import (
    _family_form,
    build_xplus_poset,
    spherical_pairs,
    verify_case,
    verify_theorem,
)
from dcbruhat.symgroup import all_permutations, full_genset, length, longest_element
from dcbruhat.weights import (
    apply_perm,
    dominance_leq,
    dominant_shape,
    orbit_poset,
    step_leq,
    tight_scan,
)
from oracles import alt_bottom_length, check_interval_property, coset_members

LADDER_TAGS = ("ladder-a", "ladder-b", "ladder-c", "ladder-d")
CLOSED_FORM_TAGS = ("diamond",) + LADDER_TAGS

#: Rung count and height of each ladder family, from n = degree - 1 and
#: the normalized parameters (i, j).
LADDER_PARAMETERS = {
    "ladder-a": lambda n, i, j: (j - 2, j + 1),
    "ladder-b": lambda n, i, j: (n - i, n - i + 2),
    "ladder-c": lambda n, i, j: (i - 1, i + 1),
    "ladder-d": lambda n, i, j: (n + 1 - j, n - j + 2),
}


def verdict(number, name, ok):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def gensets(degree):
    full = sorted(full_genset(degree))
    for r in range(len(full) + 1):
        for combo in itertools.combinations(full, r):
            yield frozenset(combo)


@pytest.fixture(scope="module")
def sweep():
    start = time.perf_counter()
    reports = {d: verify_theorem(d) for d in (4, 5, 6, 7)}
    return reports, time.perf_counter() - start


def test_01_figure_reproduction():
    start = time.perf_counter()
    p = build_xplus_poset(6, (2,), (2, 4))
    shape = classify_shape(p)
    elapsed = time.perf_counter() - start
    ok = (
        len(p) == 6
        and p.bottom() == (2, 1, 6, 5, 4, 3)
        and p.top() == longest_element(6)
        and set(p.covers)
        == {
            ((2, 1, 6, 5, 4, 3), (6, 2, 5, 1, 4, 3)),
            ((6, 2, 5, 1, 4, 3), (6, 2, 5, 4, 3, 1)),
            ((6, 2, 5, 1, 4, 3), (6, 5, 2, 1, 4, 3)),
            ((6, 2, 5, 4, 3, 1), (6, 5, 4, 2, 3, 1)),
            ((6, 5, 2, 1, 4, 3), (6, 5, 4, 2, 3, 1)),
            ((6, 5, 4, 2, 3, 1), (6, 5, 4, 3, 2, 1)),
        }
        and shape == ShapeClass("stretched-diamond")
        and elapsed < 1.0
    )
    assert verdict(1, "figure-reproduction", ok)


def test_02_lattice_everywhere(sweep):
    reports, elapsed = sweep
    ok = all(
        row.lattice_ok for report in reports.values() for row in report.rows
    ) and elapsed < 120.0
    assert verdict(2, "lattice-for-all-spherical-pairs", ok)


def test_03_shapes_match_predictions(sweep):
    reports, _ = sweep
    ok = all(row.shape_ok for report in reports.values() for row in report.rows)
    assert verdict(3, "shape-classification", ok)


def test_04_bottom_formulas(sweep):
    reports, _ = sweep
    rows = [
        row
        for degree in (6, 7)
        for row in reports[degree].rows
        if row.case.tag in CLOSED_FORM_TAGS
    ]
    ok = bool(rows) and all(row.bottom_ok for row in rows)
    assert verdict(4, "bottom-element-formulas", ok)


def test_05_ladder_height_and_merge(sweep):
    reports, _ = sweep
    rows = [
        row
        for degree in (6, 7)
        for row in reports[degree].rows
        if row.case.tag in LADDER_TAGS
    ]
    bad = [row for row in rows if not (row.height_ok and row.merge_ok)]
    ok = bool(rows) and not bad
    verdict(5, "ladder-height-and-merge", ok)
    detail = "; ".join(
        f"{row.case.key()} tag={row.case.tag} height={row.height} "
        f"bound j={row.case.norm[1]}"
        for row in bad
    )
    assert ok, f"height bound fails for {len(bad)} catalogued pairs: {detail}"


def exact_ladder_parameters(rows):
    """The ladder rows and those whose shape or height misses the closed forms.

    Shapes are compared in family form, since the one-rung a-ladder is
    classified as the stretched diamond.
    """
    rows = [row for row in rows if row.case.tag in LADDER_TAGS]
    bad = []
    for row in rows:
        m, height = LADDER_PARAMETERS[row.case.tag](row.case.degree - 1, *row.case.norm)
        expected = _family_form(ShapeClass(row.case.tag, m))
        if _family_form(row.actual_shape) != expected or row.height != height:
            bad.append(f"{row.case.key()} shape={row.actual_shape} height={row.height} "
                       f"expected {expected} height={height}")
    return rows, bad


def test_12_exact_ladder_parameters(sweep):
    reports, _ = sweep
    rows, bad = exact_ladder_parameters(row for report in reports.values() for row in report.rows)
    ok = bool(rows) and not bad
    assert verdict(12, "exact-ladder-parameters", ok), "; ".join(bad)


@pytest.mark.slow
def test_12_exact_ladder_parameters_degrees_8_to_11():
    rows, bad = exact_ladder_parameters(
        row for d in (8, 9, 10, 11) for row in verify_theorem(d).rows
    )
    ok = bool(rows) and not bad
    assert verdict(12, "exact-ladder-parameters-8-to-11", ok), "; ".join(bad)


@pytest.mark.slow
@pytest.mark.parametrize("degree,height_only", [(16, 72), (17, 84), (18, 98)])
def test_catalogue_sweep_at_degrees_16_and_17(degree, height_only):
    """Checks 2, 3, 4 and 12 on every catalogued pair, one case at a time.

    Only failing and ladder rows are kept, so memory stays flat over
    the 99,112 cases of degree 16, the 197,548 of degree 17 and the
    394,298 of degree 18.  The failures must be exactly the a-ladders,
    failing the height bound of check 5 and nothing else.
    """
    lattice = shape = bottom = True
    failed, ladders = [], []
    for case in spherical_pairs(degree):
        row = verify_case(case)
        lattice = lattice and row.lattice_ok
        shape = shape and row.shape_ok
        if case.tag in CLOSED_FORM_TAGS:
            bottom = bottom and row.bottom_ok
        if not row.passed:
            failed.append(row)
        if case.tag in LADDER_TAGS:
            ladders.append(row)
    rows, bad = exact_ladder_parameters(ladders)
    assert verdict(2, f"lattice-for-all-spherical-pairs-degree-{degree}", lattice)
    assert verdict(3, f"shape-classification-degree-{degree}", shape)
    assert verdict(4, f"bottom-element-formulas-degree-{degree}", bottom)
    exact = bool(rows) and not bad
    assert verdict(12, f"exact-ladder-parameters-degree-{degree}", exact), "; ".join(bad)
    ladder_a = [row for row in ladders if row.case.tag == "ladder-a"]
    assert failed == ladder_a
    assert len(failed) == height_only
    for row in failed:
        assert row.height_ok is False
        assert row.bounds_ok and row.bottom_ok and row.merge_ok


def test_06_interval_property():
    start = time.perf_counter()
    ok = True
    for degree in (2, 3, 4, 5):
        for I in gensets(degree):
            for J in gensets(degree):
                if not check_interval_property(degree, I, J):
                    ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert verdict(6, "coset-interval-property", ok)


def test_07_order_consistency():
    ok = True
    for degree in (2, 3, 4, 5):
        for I in gensets(degree):
            for J in gensets(degree):
                mins = min_representatives(degree, I, J)
                maxs = max_representatives(degree, I, J)
                paired = [max(coset_members(m, I, J), key=length) for m in mins]
                # the coset bijection matches the two representative sets
                if sorted(paired) != sorted(maxs):
                    ok = False
                    continue
                for a, b in itertools.product(range(len(mins)), repeat=2):
                    if leq(mins[a], mins[b]) != leq(paired[a], paired[b]):
                        ok = False
    assert verdict(7, "min-max-order-consistency", ok)


def test_08_tightness_rule():
    start = time.perf_counter()
    ok = True
    for degree in (3, 4, 5, 6):
        report = tight_scan(degree)
        if not report.all_match:
            ok = False
        for row in report.rows:
            if not row.tight:
                mu, nu = row.witness
                if not dominance_leq(nu, mu) or step_leq(nu, mu):
                    ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert verdict(8, "orbit-tightness-rule", ok)


def tightness_rule_holds(degree):
    """Every staircase matches the rule, and every witness is a real disagreement."""
    report = tight_scan(degree, cap=degree)
    ok = len(report.rows) == 2 ** (degree - 1) and report.all_match
    for row in report.rows:
        if not row.tight:
            mu, nu = row.witness
            ok = ok and dominance_leq(nu, mu) and not step_leq(nu, mu)
    return ok


def test_08_tightness_rule_at_degree_8(capsys):
    ok = tightness_rule_holds(8)
    ok = ok and main(["tight", "--degree", "8", "--degree-cap", "8"]) == 0
    assert "shapes=128  all_match=True" in capsys.readouterr().out
    assert verdict(8, "orbit-tightness-rule-degree-8", ok)


@pytest.mark.slow
def test_08_tightness_rule_at_degree_9(monkeypatch):
    # The whole group's 510 prefix classes × 9! members exceed the bit
    # cap, so the command line refuses this degree; lifted, the scan
    # takes about 0.1 s.
    monkeypatch.setattr(weights, "TIGHT_BIT_CAP", 510 * math.factorial(9))
    assert verdict(8, "orbit-tightness-rule-degree-9", tightness_rule_holds(9))


def test_09_evaluation_isomorphism():
    ok = True
    for degree in (2, 3, 4, 5):
        for jc in gensets(degree):
            theta = dominant_shape(degree, jc)
            J = full_genset(degree) - jc
            for I in gensets(degree):
                reps = min_representatives(degree, I, J)
                built = orbit_poset(theta, I)
                images = [apply_perm(w, theta) for w in reps]
                if len(set(images)) != len(reps):
                    ok = False
                    continue
                if set(images) != set(built.members):
                    ok = False
                    continue
                for a, b in itertools.product(range(len(reps)), repeat=2):
                    if leq(reps[a], reps[b]) != built.poset.leq(images[a], images[b]):
                        ok = False
    assert verdict(9, "evaluation-order-isomorphism", ok)


def test_10_oracle_agreement():
    ok = True
    for u, v in itertools.product(all_permutations(4), repeat=2):
        if leq(u, v) != leq_subword_oracle(u, v):
            ok = False
    rng = random.Random(41152263)
    base = list(range(1, 7))
    for _ in range(10_000):
        u = tuple(rng.sample(base, 6))
        v = tuple(rng.sample(base, 6))
        if leq(u, v) != leq_subword_oracle(u, v):
            ok = False
    assert verdict(10, "comparison-oracle-agreement", ok)


def test_11_rejected_bottom_is_longer():
    ok = True
    for n in range(5, 13):
        for q in range(4, n):
            if not alt_bottom_length(q, n) > 1 + math.comb(n - 1, 2):
                ok = False
    assert verdict(11, "alternative-bottom-dominance", ok)
