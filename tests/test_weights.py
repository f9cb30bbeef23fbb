"""Weight orbits: two orders on one orbit and when they coincide."""

import importlib
import itertools
import json
import pkgutil
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dcbruhat
from dcbruhat import weights
from dcbruhat.parabolic import coset_bound
from dcbruhat.poset import FinitePoset
from dcbruhat.symgroup import CapExceeded, compose, full_genset
from dcbruhat.weights import (
    apply_perm,
    check_dominant,
    dominance_leq,
    dominant_shape,
    format_weight,
    is_tight,
    orbit,
    orbit_poset,
    orbit_size,
    parse_weight,
    respects,
    rule_predicts_tight,
    stabilizer_genset,
    step_leq,
    tight_scan,
)
from oracles import poset_from_relation, poset_from_up_masks, prefix_class_witness

perm4 = st.permutations(tuple(range(1, 5))).map(tuple)


def W(*coords):
    return tuple(Fraction(c) for c in coords)


def test_parse_format_roundtrip():
    assert parse_weight("2,1,1,0") == W(2, 1, 1, 0)
    assert parse_weight("3/2,1/2") == (Fraction(3, 2), Fraction(1, 2))
    assert format_weight(W(2, 1, 0)) == "2,1,0"
    assert format_weight((Fraction(3, 2), Fraction(1, 2))) == "3/2,1/2"
    with pytest.raises(ValueError):
        parse_weight("")


def test_check_dominant_requires_weakly_decreasing():
    assert check_dominant(W(2, 1, 1, 0)) == W(2, 1, 1, 0)
    with pytest.raises(ValueError):
        check_dominant(W(1, 2, 0))


@given(perm4, perm4)
def test_apply_perm_is_a_left_action(u, v):
    mu = W(3, 1, 1, 0)
    assert apply_perm(compose(u, v), mu) == apply_perm(u, apply_perm(v, mu))


def test_apply_perm_places_coordinates():
    # coordinate i lands at position w(i)
    assert apply_perm((2, 1, 3), W(5, 7, 9)) == W(7, 5, 9)
    assert apply_perm((3, 1, 2), W(5, 7, 9)) == W(7, 9, 5)


def test_stabilizer_genset_reads_equal_neighbors():
    assert stabilizer_genset(W(2, 1, 1, 0)) == frozenset({2})
    assert stabilizer_genset(W(1, 1, 0, 0)) == frozenset({1, 3})
    assert stabilizer_genset(W(0, 0, 0)) == frozenset({1, 2})


def test_orbit_size_is_multinomial():
    assert len(orbit(W(2, 1, 1, 0))) == 12
    assert len(orbit(W(1, 1, 0, 0))) == 6
    assert len(orbit(W(3, 2, 1))) == 6
    assert len(orbit(W(0, 0))) == 1


def test_dominant_shape_counts_jumps():
    assert dominant_shape(4, frozenset({1, 3})) == W(2, 1, 1, 0)
    assert dominant_shape(4, frozenset()) == W(0, 0, 0, 0)
    assert dominant_shape(3, frozenset({1, 2})) == W(2, 1, 0)


@given(st.integers(min_value=2, max_value=6), st.frozensets(st.sampled_from(range(1, 6))))
def test_dominant_shape_stabilizer_complements_jc(degree, jc):
    jc = frozenset(i for i in jc if i < degree)
    theta = dominant_shape(degree, jc)
    assert stabilizer_genset(theta) == full_genset(degree) - jc


def test_respects_checks_weak_decrease():
    assert respects(W(2, 1, 1, 0), frozenset({1, 2}))
    assert not respects(W(1, 2, 1, 0), frozenset({1}))
    assert respects(W(1, 2, 1, 0), frozenset({2, 3}))


def test_single_box_orbit_is_a_chain():
    built = orbit_poset(W(1, 0, 0))
    assert built.poset.is_chain()
    assert built.poset.bottom() == W(1, 0, 0)
    assert built.poset.top() == W(0, 0, 1)
    assert step_leq(W(1, 0, 0), W(0, 1, 0))
    assert step_leq(W(0, 1, 0), W(0, 0, 1))
    assert not step_leq(W(0, 1, 0), W(1, 0, 0))


def test_orbit_poset_lists_theta_first():
    built = orbit_poset(W(2, 1, 0))
    assert built.members[0] == W(2, 1, 0)
    assert built.poset.bottom() == W(2, 1, 0)
    assert built.poset.top() == W(0, 1, 2)


def test_dominance_prefix_sums():
    assert dominance_leq(W(1, 1, 0), W(2, 0, 0))
    assert not dominance_leq(W(2, 0, 0), W(1, 1, 0))
    assert dominance_leq(W(1, 1, 0), W(1, 1, 0))
    with pytest.raises(ValueError):
        dominance_leq(W(1, 0), W(2, 0))


def test_step_order_refines_reversed_dominance():
    # going up in the orbit order always goes down in dominance
    built = orbit_poset(W(2, 1, 0))
    for a in built.members:
        for b in built.members:
            if step_leq(a, b):
                assert dominance_leq(b, a)


def test_restricted_orbit():
    built = orbit_poset(W(2, 1, 1, 0), frozenset({1, 3}))
    assert len(built.members) == 4
    for mu in built.members:
        assert respects(mu, frozenset({1, 3}))
    assert built.poset.bottom() == W(2, 1, 1, 0)
    assert built.poset.top() == W(1, 0, 2, 1)


def test_tightness_examples():
    ok, witness = is_tight(W(1, 0, 0))
    assert ok and witness is None
    ok, witness = is_tight(W(1, 1, 0, 0))
    assert ok
    ok, witness = is_tight(W(2, 1, 1, 0))
    assert not ok
    mu, nu = witness
    # dominance says comparable, the step order disagrees
    assert dominance_leq(nu, mu)
    assert not step_leq(nu, mu)


def test_rule_predicts_tight():
    assert rule_predicts_tight(3, frozenset({1, 2}))  # small rank, always tight
    assert rule_predicts_tight(5, frozenset({2, 3}))  # adjacent pair
    assert rule_predicts_tight(5, frozenset({4}))
    assert rule_predicts_tight(5, frozenset())
    assert not rule_predicts_tight(5, frozenset({1, 4}))
    assert not rule_predicts_tight(6, frozenset({1, 3, 5}))


def test_tight_scan_small_degrees():
    for degree in (3, 4, 5):
        report = tight_scan(degree)
        assert report.all_match
        assert len(report.rows) == 2 ** (degree - 1)
        for row in report.rows:
            assert row.tight == row.rule_tight
            if not row.tight:
                mu, nu = row.witness
                assert dominance_leq(nu, mu)
                assert not step_leq(nu, mu)


def test_tight_scan_rows_equal_the_fraction_rows():
    # The scan runs on int staircases; Fraction(k) == k with equal
    # hashes, so its rows equal those built from is_tight's Fractions.
    for degree in (1, 4, 5):
        report = tight_scan(degree)
        for row in report.rows:
            theta = dominant_shape(degree, row.j_complement)
            tight, witness = is_tight(theta)
            built = row._replace(theta=theta, orbit_size=orbit_size(theta), tight=tight, witness=witness)
            assert row == built and hash(row) == hash(built)
            assert all(type(x) is int for x in row.theta)
            assert row.witness is None or all(type(x) is int for mu in row.witness for x in mu)
        built = report._replace(rows=tuple(
            row._replace(theta=dominant_shape(degree, row.j_complement)) for row in report.rows
        ))
        assert built.to_json() == report.to_json()
        assert built.to_table() == report.to_table()


def test_tight_scan_json():
    report = tight_scan(3)
    doc = json.loads(report.to_json())
    assert doc["degree"] == 3
    assert doc["all_match"] is True
    assert len(doc["rows"]) == 4


def test_tight_scan_refuses_large_degrees():
    with pytest.raises(CapExceeded):
        tight_scan(7)


# --- the original Fraction code, kept as the oracle of the integer path -----


def fraction_closure(theta, gens):
    """Members in decreasing order, their index, and reachability masks."""
    members = sorted(
        (mu for mu in set(itertools.permutations(theta)) if gens is None or respects(mu, gens)),
        reverse=True,
    )
    index = {mu: i for i, mu in enumerate(members)}
    adj = [0] * len(members)
    for i, mu in enumerate(members):
        for a, b in itertools.combinations(range(len(mu)), 2):
            if mu[a] > mu[b]:
                nu = list(mu)
                nu[a], nu[b] = nu[b], nu[a]
                j = index.get(tuple(nu))
                if j is not None:
                    adj[i] |= 1 << j
    up = [0] * len(members)
    for i in range(len(members) - 1, -1, -1):
        up[i] = 1 << i
        for j in range(len(members)):
            if adj[i] >> j & 1:
                up[i] |= up[j]
    return members, index, up


def fraction_is_tight(theta, gens):
    members, index, up = fraction_closure(theta, gens)
    for mu in members:
        for nu in members:
            climbs = bool(up[index[mu]] >> index[nu] & 1)
            dominated = dominance_leq(nu, mu)
            assert dominated or not climbs
            if dominated and not climbs:
                return False, (mu, nu)
    return True, None


def fraction_orbit_poset(theta, gens):
    members, index, up = fraction_closure(theta, gens)
    poset = poset_from_relation(members, lambda a, b: bool(up[index[a]] >> index[b] & 1))
    return tuple(members), poset


ORACLE_VALUES = (Fraction(2), Fraction(1, 2), Fraction(0), Fraction(-1))


def dominant_weights(values, degree):
    return [W(*t) for t in itertools.combinations_with_replacement(sorted(values, reverse=True), degree)]


def restrictions(degree):
    idx = range(1, degree)
    return [None] + [frozenset(c) for r in range(degree) for c in itertools.combinations(idx, r)]


def assert_matches_fraction_code(degrees):
    for degree in degrees:
        for theta in dominant_weights(ORACLE_VALUES, degree):
            for gens in restrictions(degree):
                assert is_tight(theta, gens) == fraction_is_tight(theta, gens), (theta, gens)
                members, poset = fraction_orbit_poset(theta, gens)
                built = orbit_poset(theta, gens)
                assert built.members == members
                assert built.poset.elements == poset.elements
                assert set(built.poset.covers) == set(poset.covers)


def test_integer_path_matches_fraction_code_up_to_degree_4():
    assert_matches_fraction_code((1, 2, 3, 4))


@pytest.mark.slow
def test_integer_path_matches_fraction_code_at_degree_5():
    assert_matches_fraction_code((5,))


def test_witness_is_the_nested_loops_first_pair():
    theta = W(Fraction(5, 2), 1, 1, 0, Fraction(-1, 3))
    ok, witness = is_tight(theta)
    assert not ok
    assert witness == fraction_is_tight(theta, None)[1]


# --- the reachability-mask scan, kept as the oracle of the prefix-class scan -


def dominated_masks(members):
    """Bit j of mask i is set when members[i] dominates members[j]."""
    n = len(members)
    prefixes = [tuple(itertools.accumulate(mu)) for mu in members]
    dom = [(1 << n) - 1] * n
    for k in range(len(members[0]) - 1):
        column = [p[k] for p in prefixes]
        at_most = {}
        for j, v in enumerate(column):
            at_most[v] = at_most.get(v, 0) | (1 << j)
        acc = 0
        for v in sorted(at_most):
            acc |= at_most[v]
            at_most[v] = acc
        for i, v in enumerate(column):
            dom[i] &= at_most[v]
    return dom


def orbit_mask_is_tight(theta, gens=None):
    """``orbit_poset``'s reachability masks against dominance masks, from theta down."""
    built = orbit_poset(theta, gens).poset
    members, up = built.elements, built._up
    dom = dominated_masks(members)
    for i in range(len(members) - 1, -1, -1):
        mismatch = up[i] ^ dom[i]
        if mismatch:
            j = mismatch.bit_length() - 1
            assert not up[i] >> j & 1, "step order escaped dominance"
            return False, (members[i], members[j])
    return True, None


def assert_is_tight_matches_orbit_masks(degree):
    for r in range(degree):
        for jc in itertools.combinations(range(1, degree), r):
            theta = dominant_shape(degree, jc)
            assert is_tight(theta) == orbit_mask_is_tight(theta), jc


def test_is_tight_matches_the_orbit_mask_scan_up_to_degree_6():
    for degree in range(1, 7):
        assert_is_tight_matches_orbit_masks(degree)


@pytest.mark.slow
def test_is_tight_matches_the_orbit_mask_scan_at_degree_7():
    assert_is_tight_matches_orbit_masks(7)


def test_climb_outside_dominance_is_an_internal_error(monkeypatch):
    # Each prefix sum admits only the classes of that very sum, so the
    # class of theta's first entry dominates itself alone while the class
    # of a lower entry lies below it in the step order.
    def equal_sums_only(pairs):
        out = {}
        for key, mask in pairs:
            out[key] = out.get(key, 0) | mask
        return out

    monkeypatch.setattr(weights, "_cumulative", equal_sums_only)
    with pytest.raises(RuntimeError, match="escaped dominance"):
        is_tight(W(1, 0, 0))


# --- the prefix-class scan over all members, kept as the oracle of the walk -


def staircases(degree):
    return [dominant_shape(degree, jc) for r in range(degree) for jc in itertools.combinations(range(1, degree), r)]


def assert_is_tight_matches_the_prefix_class_scan(cases):
    for theta, gens in cases:
        witness = prefix_class_witness(check_dominant(theta), gens)
        assert is_tight(theta, gens) == (witness is None, witness), (theta, gens)


def test_is_tight_matches_the_prefix_class_scan_on_staircases_up_to_degree_7():
    assert_is_tight_matches_the_prefix_class_scan(
        (theta, None) for degree in range(1, 8) for theta in staircases(degree)
    )


@pytest.mark.slow
def test_is_tight_matches_the_prefix_class_scan_on_staircases_at_degree_8():
    assert_is_tight_matches_the_prefix_class_scan((theta, None) for theta in staircases(8))


def restricted_cases(degree):
    return [(theta, gens) for theta in dominant_weights(ORACLE_VALUES, degree) for gens in restrictions(degree)]


def test_is_tight_matches_the_prefix_class_scan_on_restrictions_up_to_degree_5():
    assert_is_tight_matches_the_prefix_class_scan(
        case for degree in range(1, 6) for case in restricted_cases(degree)
    )


@pytest.mark.slow
def test_is_tight_matches_the_prefix_class_scan_on_restrictions_at_degree_6():
    assert_is_tight_matches_the_prefix_class_scan(restricted_cases(6))


def test_orbit_poset_keeps_fraction_values():
    theta = W(Fraction(3, 2), Fraction(1, 3), Fraction(1, 3), -2)
    built = orbit_poset(theta)
    assert built.members[0] == theta
    assert all(isinstance(x, Fraction) for mu in built.members for x in mu)
    assert set(built.members) == orbit(theta)
    assert len(built.members) == orbit_size(theta) == 12


def test_orbit_lists_distinct_rearrangements():
    for theta in (W(3, 1, 1, 0), W(0, 0, 0), W(Fraction(1, 2), -1), W(2, 2, 1, 1, 0)):
        assert orbit(theta) == frozenset(itertools.permutations(theta))
        assert orbit_size(theta) == len(orbit(theta))


def test_orbits_beyond_the_listing_cap_are_refused(monkeypatch):
    # The generic degree-8 orbit has exactly 8! members and still runs.
    assert len(orbit(W(*range(7, -1, -1)))) == 40320
    monkeypatch.setattr(weights, "_rearrangements", None)  # refused before enumeration
    with pytest.raises(CapExceeded, match="listing cap"):
        orbit(W(*range(8, -1, -1)))


def member_bound(theta, gens):
    """The member cap's bound: cosets of the restriction and theta's stabilizer."""
    return coset_bound(len(theta), frozenset(gens), stabilizer_genset(theta))


def test_member_bound_covers_every_restricted_orbit():
    for degree in range(1, 6):
        thetas = {tuple(sorted(v, reverse=True)) for v in itertools.product((2, 1, 0), repeat=degree)}
        distinct = tuple(range(degree - 1, -1, -1))
        for r in range(degree):
            for gens in itertools.combinations(range(1, degree), r):
                for theta in thetas:
                    count = len(weights._rearrangements(theta, gens))
                    assert member_bound(theta, gens) >= count, (theta, gens)
                exact = len(weights._rearrangements(distinct, gens))
                assert member_bound(distinct, gens) == exact, gens


def test_rearrangements_match_the_filtered_permutations():
    for degree in range(1, 7):
        thetas = {tuple(sorted(v, reverse=True)) for v in itertools.product((2, 1, 0), repeat=degree)}
        thetas.add(tuple(range(degree - 1, -1, -1)))
        for r in range(degree):
            for gens in itertools.combinations(range(1, degree), r):
                for theta in thetas:
                    expected = sorted(
                        mu for mu in set(itertools.permutations(theta))
                        if all(mu[i - 1] >= mu[i] for i in gens)
                    )
                    assert weights._rearrangements(theta, gens) == expected, (theta, gens)


def test_a_tied_orbit_walks_no_dead_end_prefixes():
    # Every position tied to the next leaves one member; a walk that
    # tried every decreasing prefix took seconds here, doubling per degree.
    theta = W(*range(23, -1, -1))
    start = time.perf_counter()
    built = orbit_poset(theta, frozenset(range(1, 24)))
    assert time.perf_counter() - start < 0.1
    assert built.members == (theta,)


def test_orbits_beyond_the_member_cap_are_refused(monkeypatch):
    generic = W(*range(7, -1, -1))
    with pytest.raises(CapExceeded, match="member cap"):
        orbit_poset(generic)
    # Pairs of adjacent positions tie up: 8!/2^4 = 2520 members fit.
    assert member_bound(tuple(range(7, -1, -1)), {1, 3, 5, 7}) == 2520
    # is_tight and step_leq build no reachability: the whole group at
    # degree 8 runs (tight_scan(8, cap=8) is in acceptance check 8).
    assert is_tight(generic) == (False, (W(7, 6, 5, 4, 3, 0, 2, 1), W(7, 6, 5, 4, 2, 1, 0, 3)))
    assert step_leq(generic, generic[::-1])
    # At degree 9 the prefix-class masks would take 510 × 9! bits.
    degree_9 = W(*range(8, -1, -1))
    assert step_leq(degree_9, degree_9[::-1])  # it builds no masks
    monkeypatch.setattr(weights, "_rearrangements", None)  # refused before enumeration
    with pytest.raises(CapExceeded, match="member cap"):
        is_tight(degree_9)
    with pytest.raises(CapExceeded, match="member cap"):
        tight_scan(9, cap=9)


@pytest.mark.parametrize(
    "theta,bits", [(W(3, 2, 1, 0), 14 * 24), (W(1, 1, 0, 0), 7 * 6), (W(2, 1, 1, 0), 10 * 12)]
)
def test_tight_bit_bound_is_prefix_classes_times_members(monkeypatch, theta, bits):
    # (3,2,1,0): 2^4 - 2 sub-multisets of 1 to 3 entries, 4! members;
    # (1,1,0,0): 2 + 3 + 2 classes, 6 members; (2,1,1,0): 3 + 4 + 3, 12.
    monkeypatch.setattr(weights, "TIGHT_BIT_CAP", bits)
    assert is_tight(theta) == fraction_is_tight(theta, None)
    monkeypatch.setattr(weights, "TIGHT_BIT_CAP", bits - 1)
    with pytest.raises(CapExceeded, match=f"{bits} mask bits"):
        is_tight(theta)


def assert_step_leq_matches_orbit_poset(degrees):
    for degree in degrees:
        for theta in dominant_weights(ORACLE_VALUES, degree):
            for gens in restrictions(degree):
                built = orbit_poset(theta, gens)
                for nu, mu in itertools.product(built.members, repeat=2):
                    assert step_leq(nu, mu, gens) == built.poset.leq(nu, mu), (theta, gens, nu, mu)


def test_step_leq_matches_orbit_poset_up_to_degree_4():
    assert_step_leq_matches_orbit_poset((1, 2, 3, 4))


@pytest.mark.slow
def test_step_leq_matches_orbit_poset_at_degree_5():
    assert_step_leq_matches_orbit_poset((5,))


def test_step_leq_takes_plain_numbers():
    assert step_leq((1, 0, 0), (0, 0, 1))
    assert step_leq(W(Fraction(1, 2), 0), (0, 0.5))
    assert not step_leq(W(1, 0, 0), W(0, 1, 0), frozenset({1}))
    assert not step_leq(W(1, 0), W(1, 1))


# --- the two-pass closure, kept as the oracle of the one-pass builder -------


def closure_oracle(theta, gens):
    """Members in increasing lexicographic order, their index, and reachability masks.

    Each member's mask is the union of its step targets' masks, closed
    in one forward pass; the covers then come from reducing the masks.
    """
    members = tuple(weights._rearrangements(theta, gens or ()))
    index = {mu: i for i, mu in enumerate(members)}
    up = []
    for mu in members:
        mask = 1 << len(up)
        for a, b in itertools.combinations(range(len(mu)), 2):
            if mu[a] > mu[b]:
                nu = list(mu)
                nu[a], nu[b] = nu[b], nu[a]
                j = index.get(tuple(nu))
                if j is not None:
                    mask |= up[j]
        up.append(mask)
    return members, index, up


def assert_orbit_matches_closure(theta, gens):
    built = orbit_poset(theta, gens)
    assert built.theta == check_dominant(theta) and built.restriction == gens
    want_members, want_index, want_up = closure_oracle(built.theta, gens)
    assert built.poset.elements == want_members
    assert built.poset._index == want_index
    assert built.poset._up == want_up
    reduced = poset_from_up_masks(want_members, want_up)
    assert set(reduced.covers) == set(built.poset.covers)


def test_one_pass_builder_matches_the_closure():
    for degree in range(1, 6):
        for theta in dominant_weights((Fraction(2), Fraction(1, 2), Fraction(0)), degree):
            for gens in restrictions(degree):
                assert_orbit_matches_closure(theta, gens)


@pytest.mark.slow
@pytest.mark.parametrize(
    "theta,gens",
    [(W(*range(5, -1, -1)), None), (W(*range(6, -1, -1)), None),
     (W(*range(7, -1, -1)), frozenset({1, 3, 5, 7}))],
    ids=["generic-6", "generic-7", "degree-8-restricted"],
)
def test_one_pass_builder_matches_the_closure_on_large_orbits(theta, gens):
    assert_orbit_matches_closure(theta, gens)


def package_modules():
    return [dcbruhat] + [
        importlib.import_module(f"dcbruhat.{info.name}") for info in pkgutil.iter_modules(dcbruhat.__path__)
    ]


def test_the_package_reduces_no_relation():
    # Posets are built from covers alone; relation reductions and the
    # whole-group tables live in the test oracles.
    modules = package_modules()
    for name in ("hasse_reduction", "from_relation", "from_up_masks", "order_tables"):
        assert not hasattr(FinitePoset, name)
        for module in modules:
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_the_package_keeps_no_test_only_helpers():
    # Left multiplication, left descents and ascents, the rejected bottom
    # length and the tightness scan over all members live in the test
    # oracles, since only tests call them.
    names = ("simple_transposition", "mult_left", "left_descents", "left_ascents", "alt_bottom_length",
             "_dominance_masks")
    for name in names:
        for module in package_modules():
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_the_package_walks_no_coset_by_generator_moves():
    # Cosets are read off contingency tables; the search
    # over generator moves lives in the test oracles.
    for name in ("coset_members", "linking_genset"):
        for module in package_modules():
            assert not hasattr(module, name), f"{module.__name__}.{name}"
