"""Finite poset container, exports, isomorphism, shape taxonomy."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcbruhat.poset import (
    CHAIN,
    LADDER_A,
    LADDER_TAGS,
    POINT,
    STRETCHED_DIAMOND,
    UNRECOGNIZED,
    FinitePoset,
    NotAPartialOrder,
    ShapeClass,
    are_isomorphic,
    classify_shape,
    hasse_reduction,
    shape_template,
)
from dcbruhat.weights import format_weight, orbit_poset

POINT_DOT = (
    "digraph hasse {\n"
    "  rankdir=BT;\n"
    "  node [shape=plaintext];\n"
    '  n0 [label="a"];\n'
    "  { rank=same; n0; }\n"
    "}\n"
)

CHAIN_DOT = (
    "digraph hasse {\n"
    "  rankdir=BT;\n"
    "  node [shape=plaintext];\n"
    '  n0 [label="a"];\n'
    '  n1 [label="b"];\n'
    "  { rank=same; n0; }\n"
    "  { rank=same; n1; }\n"
    "  n0 -> n1;\n"
    "}\n"
)

CHAIN_JSON = (
    "{\n"
    '  "covers": [\n'
    "    [\n"
    "      0,\n"
    "      1\n"
    "    ]\n"
    "  ],\n"
    '  "elements": [\n'
    '    "a",\n'
    '    "b"\n'
    "  ]\n"
    "}\n"
)


def divisibility(limit):
    nums = [d for d in range(1, limit + 1) if limit % d == 0]
    return FinitePoset.from_relation(nums, lambda a, b: b % a == 0)


def test_constructor_rejects_bad_input():
    with pytest.raises(NotAPartialOrder):
        FinitePoset(["a", "a"], [])
    with pytest.raises(NotAPartialOrder):
        FinitePoset(["a"], [("a", "b")])
    with pytest.raises(NotAPartialOrder):
        FinitePoset(["a"], [("a", "a")])
    with pytest.raises(NotAPartialOrder):
        FinitePoset(["a", "b"], [("a", "b"), ("b", "a")])
    # a <= c is implied, so listing it as a cover is not reduced
    with pytest.raises(NotAPartialOrder):
        FinitePoset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])


def test_from_relation_computes_covers():
    p = divisibility(12)
    assert set(p.elements) == {1, 2, 3, 4, 6, 12}
    assert sorted(p.upper_covers(1)) == [2, 3]
    assert sorted(p.upper_covers(2)) == [4, 6]
    assert sorted(p.lower_covers(12)) == [4, 6]
    assert p.leq(2, 12) and not p.leq(4, 6)
    assert p.bottom() == 1
    assert p.top() == 12
    assert p.height() == 3
    assert p.level_of(6) == 2


def test_from_relation_rejects_non_order():
    with pytest.raises(NotAPartialOrder):
        FinitePoset.from_relation([0, 1], lambda a, b: True)


def cubic_covers(elts, relation):
    """The original cubic cover search: j covers i when no k sits strictly between."""
    n = len(elts)
    covers = set()
    for i in range(n):
        for j in range(n):
            if i != j and relation(elts[i], elts[j]) and not any(
                k != i and k != j and relation(elts[i], elts[k]) and relation(elts[k], elts[j])
                for k in range(n)
            ):
                covers.add((elts[i], elts[j]))
    return covers


@pytest.mark.parametrize("limit", [1, 7, 12, 30, 36, 60, 64, 72, 210])
def test_mask_reduction_matches_cubic_loop_on_divisibility(limit):
    nums = [d for d in range(1, limit + 1) if limit % d == 0]
    divides = lambda a, b: b % a == 0  # noqa: E731
    assert set(divisibility(limit).covers) == cubic_covers(nums, divides)


@st.composite
def dag_closures(draw):
    """Reachability of a random DAG on 0..n-1 whose edges run upward."""
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    up = [1 << i for i in range(n)]
    for i in range(n - 1, -1, -1):
        for a, b in edges:
            if a == i:
                up[i] |= up[b]
    order = draw(st.permutations(list(range(n))))
    return up, order


@given(dag_closures())
def test_mask_reduction_matches_cubic_loop_on_random_dags(closure):
    up, order = closure
    elts = [f"e{order[i]:02d}" for i in range(len(up))]
    position = {x: i for i, x in enumerate(elts)}

    def relation(a, b):
        return bool(up[position[a]] >> position[b] & 1)

    p = FinitePoset.from_relation(elts, relation)
    assert set(p.covers) == cubic_covers(elts, relation)
    assert p.elements == tuple(sorted(elts))
    q = FinitePoset.from_up_masks(elts, up)
    assert q.elements == tuple(elts)
    assert set(q.covers) == set(p.covers)
    for i, x in enumerate(elts):
        for j, y in enumerate(elts):
            assert q.leq(x, y) == relation(x, y)


def test_hasse_reduction_drops_implied_pairs():
    # 0 < 1 < 2 and 0 < 2: only the two short covers remain
    assert hasse_reduction([0b111, 0b110, 0b100]) == [0b010, 0b100, 0]
    assert hasse_reduction([0b1]) == [0]
    with pytest.raises(NotAPartialOrder, match="transitive"):
        hasse_reduction([0b011, 0b110, 0b100])


def test_from_up_masks_checks_the_axioms():
    with pytest.raises(NotAPartialOrder, match="reflexive"):
        FinitePoset.from_up_masks(["a", "b"], [0b10, 0b10])
    with pytest.raises(NotAPartialOrder, match="antisymmetric"):
        FinitePoset.from_up_masks(["a", "b"], [0b11, 0b11])
    with pytest.raises(NotAPartialOrder, match="transitive"):
        FinitePoset.from_up_masks(["a", "b", "c"], [0b011, 0b110, 0b100])
    with pytest.raises(NotAPartialOrder, match="duplicate"):
        FinitePoset.from_up_masks(["a", "a"], [0b01, 0b10])
    with pytest.raises(ValueError):
        FinitePoset.from_up_masks(["a", "b"], [0b01])


def test_extremes_need_uniqueness():
    fork = FinitePoset(["a", "b", "c"], [("a", "b"), ("a", "c")])
    assert fork.bottom() == "a"
    assert fork.minimal_elements() == ["a"]
    assert sorted(fork.maximal_elements()) == ["b", "c"]
    with pytest.raises(ValueError):
        fork.top()


def test_is_chain():
    assert divisibility(8).is_chain()
    assert not divisibility(12).is_chain()


def test_is_lattice_with_witness():
    ok, witness = divisibility(12).is_lattice()
    assert ok and witness is None
    # two minima under two maxima: no join for the bottom pair
    bowtie = FinitePoset(
        ["a", "b", "c", "d"],
        [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],
    )
    ok, witness = bowtie.is_lattice()
    assert not ok
    assert witness is not None
    x, y = witness
    assert {x, y} <= {"a", "b", "c", "d"}


def test_dot_goldens():
    assert FinitePoset(["a"], []).to_dot() == POINT_DOT
    assert FinitePoset(["a", "b"], [("a", "b")]).to_dot() == CHAIN_DOT


def test_dot_golden_with_shared_levels():
    assert divisibility(12).to_dot() == (
        "digraph hasse {\n"
        "  rankdir=BT;\n"
        "  node [shape=plaintext];\n"
        + "".join(f'  n{k} [label="{d}"];\n' for k, d in enumerate([1, 2, 3, 4, 6, 12]))
        + "  { rank=same; n0; }\n"
        "  { rank=same; n1; n2; }\n"
        "  { rank=same; n3; n4; }\n"
        "  { rank=same; n5; }\n"
        + "".join(f"  n{a} -> n{b};\n" for a, b in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)])
        + "}\n"
    )


def test_json_golden():
    assert FinitePoset(["a", "b"], [("a", "b")]).to_json() == CHAIN_JSON


def element_keyed_dot(p, label=str):
    """The original ``to_dot``: nodes and covers keyed by the elements themselves."""
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=plaintext];"]
    nodes = sorted((p.level_of(x), label(x), x) for x in p.elements)
    names = {}
    ranks = {}
    for k, (lvl, text, x) in enumerate(nodes):
        names[x] = f"n{k}"
        ranks.setdefault(lvl, []).append(f"n{k}")
        lines.append(f'  n{k} [label="{text}"];')
    for lvl in sorted(ranks):
        lines.append("  { rank=same; " + "; ".join(ranks[lvl]) + "; }")
    for lo, hi in sorted(p.covers, key=lambda c: (names[c[0]], names[c[1]])):
        lines.append(f"  {names[lo]} -> {names[hi]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def element_keyed_json(p, label=str):
    """The original ``to_json``: cover endpoints looked up by element."""
    idx = {x: i for i, x in enumerate(p.elements)}
    return json.dumps(
        {
            "elements": [label(x) for x in p.elements],
            "covers": sorted([idx[lo], idx[hi]] for lo, hi in p.covers),
        },
        sort_keys=True,
        indent=2,
    ) + "\n"


@given(dag_closures())
def test_exports_match_element_keyed_renderers(closure):
    up, order = closure
    p = FinitePoset.from_up_masks(order, up)
    # Colliding labels make the DOT sort fall back to the elements.
    for label in (str, lambda x: str(x % 3)):
        assert p.to_dot(label) == element_keyed_dot(p, label)
        assert p.to_json(label) == element_keyed_json(p, label)


def test_exports_match_element_keyed_renderers_on_an_orbit():
    theta = (Fraction(5, 2), 1, 1, Fraction(1, 2), 0)
    p = orbit_poset(theta, frozenset({1, 3})).poset
    assert len(p) > 10
    for label in (str, format_weight):
        assert p.to_dot(label) == element_keyed_dot(p, label)
        assert p.to_json(label) == element_keyed_json(p, label)


def test_duplicate_cover_pairs_collapse():
    p = FinitePoset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "b")])
    assert sorted(p.covers) == [("a", "b"), ("b", "c")]
    assert p == FinitePoset(["a", "b", "c"], [("a", "b"), ("b", "c")])


def test_equality_is_labeled():
    p = FinitePoset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    q = FinitePoset(["a", "b", "c"], [("b", "c"), ("a", "b")])
    assert p == q  # cover listing order is immaterial
    assert hash(p) == hash(q)
    r = FinitePoset(["c", "b", "a"], [("a", "b"), ("b", "c")])
    assert p != r  # element order is part of the identity
    assert are_isomorphic(p, r)


def test_isomorphism_basic():
    chain = FinitePoset([1, 2, 3], [(1, 2), (2, 3)])
    relabeled = FinitePoset(["x", "y", "z"], [("z", "x"), ("x", "y")])
    assert are_isomorphic(chain, relabeled)
    vee = FinitePoset([1, 2, 3], [(1, 2), (1, 3)])
    wedge = FinitePoset([1, 2, 3], [(2, 1), (3, 1)])
    assert not are_isomorphic(chain, vee)
    assert not are_isomorphic(vee, wedge)


@given(st.permutations(list(range(6))))
def test_isomorphism_invariant_under_relabeling(relabel):
    base = shape_template(ShapeClass(STRETCHED_DIAMOND))
    mapping = dict(zip(base.elements, relabel))
    scrambled = FinitePoset(
        [mapping[x] for x in base.elements],
        [(mapping[a], mapping[b]) for a, b in base.covers],
    )
    assert are_isomorphic(base, scrambled)
    assert classify_shape(scrambled) == ShapeClass(STRETCHED_DIAMOND)


def test_shape_class_text():
    assert str(ShapeClass(POINT)) == "point"
    assert str(ShapeClass(CHAIN, 3)) == "chain(3)"
    assert str(ShapeClass("ladder-b", 2)) == "ladder-b(2)"


def test_templates_have_expected_sizes():
    assert len(shape_template(ShapeClass(POINT))) == 1
    assert len(shape_template(ShapeClass(CHAIN, 4))) == 4
    assert len(shape_template(ShapeClass(STRETCHED_DIAMOND))) == 6
    # two rails of m plus the fixed frame nodes
    for m in (1, 2, 3):
        assert len(shape_template(ShapeClass("ladder-a", m))) == 2 * m + 4
        assert len(shape_template(ShapeClass("ladder-b", m))) == 2 * m + 3
        assert len(shape_template(ShapeClass("ladder-c", m))) == 2 * m + 3
        assert len(shape_template(ShapeClass("ladder-d", m))) == 2 * m + 2


def test_classification_round_trips_templates():
    cases = [ShapeClass(CHAIN, k) for k in (1, 2, 3, 5, 9)]
    cases += [ShapeClass(STRETCHED_DIAMOND)]
    cases += [ShapeClass(tag, m) for tag in LADDER_TAGS for m in (1, 2, 3)]
    for shape in cases:
        got = classify_shape(shape_template(shape))
        if shape == ShapeClass(CHAIN, 1):
            assert got == ShapeClass(POINT)
        elif shape == ShapeClass(LADDER_A, 1):
            # the smallest a-ladder is the stretched diamond, which wins
            assert got == ShapeClass(STRETCHED_DIAMOND)
        else:
            assert got == shape


def test_small_ladders_are_distinct():
    b1 = shape_template(ShapeClass("ladder-b", 1))
    c1 = shape_template(ShapeClass("ladder-c", 1))
    assert len(b1) == len(c1) == 5
    assert not are_isomorphic(b1, c1)


def test_unrecognized_shapes():
    vee = FinitePoset([1, 2, 3], [(1, 2), (1, 3)])
    assert classify_shape(vee) == ShapeClass(UNRECOGNIZED)
    with pytest.raises(ValueError):
        shape_template(ShapeClass(UNRECOGNIZED))
    with pytest.raises(ValueError):
        shape_template(ShapeClass(CHAIN))  # needs a length parameter


def test_lattice_holds_for_all_templates():
    shapes = [ShapeClass(STRETCHED_DIAMOND), ShapeClass(CHAIN, 4)]
    shapes += [ShapeClass(tag, m) for tag in LADDER_TAGS for m in (1, 2)]
    for shape in shapes:
        ok, _ = shape_template(shape).is_lattice()
        assert ok, shape
