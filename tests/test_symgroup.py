"""Permutation arithmetic checked against brute force on small degrees."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcbruhat.symgroup import (
    CapExceeded,
    all_permutations,
    check_genset,
    check_word,
    compose,
    format_genset,
    format_perm,
    full_genset,
    genset_complement,
    identity,
    json_text,
    inverse,
    length,
    longest_element,
    mult_right,
    parse_genset,
    parse_perm,
    right_ascents,
    right_descents,
)
from oracles import left_ascents, left_descents, mult_left, simple_transposition

perm5 = st.permutations(tuple(range(1, 6))).map(tuple)
perm6 = st.permutations(tuple(range(1, 7))).map(tuple)


def test_identity_and_longest():
    assert identity(4) == (1, 2, 3, 4)
    assert longest_element(4) == (4, 3, 2, 1)
    assert length(identity(7)) == 0
    assert length(longest_element(7)) == 21


@given(perm6)
def test_length_counts_inversions(w):
    brute = sum(
        1
        for a, b in itertools.combinations(range(len(w)), 2)
        if w[a] > w[b]
    )
    assert length(w) == brute


@given(perm5, perm5, perm5)
def test_compose_associative(u, v, w):
    assert compose(compose(u, v), w) == compose(u, compose(v, w))


@given(perm6)
def test_inverse_roundtrip(w):
    assert inverse(inverse(w)) == w
    assert compose(w, inverse(w)) == identity(len(w))
    assert compose(inverse(w), w) == identity(len(w))
    assert length(inverse(w)) == length(w)


@given(perm6, st.integers(min_value=1, max_value=5))
def test_one_sided_products(w, i):
    # right multiplication swaps positions, left multiplication swaps values
    assert mult_right(w, i) == compose(w, simple_transposition(6, i))
    assert mult_left(w, i) == compose(simple_transposition(6, i), w)
    swapped = list(w)
    swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
    assert mult_right(w, i) == tuple(swapped)


@given(perm6)
def test_descents_match_definition(w):
    assert right_descents(w) == frozenset(
        i for i in range(1, len(w)) if w[i - 1] > w[i]
    )
    assert left_descents(w) == right_descents(inverse(w))


@given(perm6)
def test_ascents_complement_descents(w):
    gens = full_genset(len(w))
    assert right_ascents(w) | right_descents(w) == gens
    assert not right_ascents(w) & right_descents(w)
    assert left_ascents(w) == right_ascents(inverse(w))


@given(perm6, st.integers(min_value=1, max_value=5))
def test_descent_tracks_length(w, i):
    if i in right_descents(w):
        assert length(mult_right(w, i)) == length(w) - 1
    else:
        assert length(mult_right(w, i)) == length(w) + 1


def test_all_permutations_lexicographic():
    words = list(all_permutations(4))
    assert len(words) == 24
    assert words == sorted(words)
    assert words[0] == (1, 2, 3, 4)
    assert words[-1] == (4, 3, 2, 1)


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        all_permutations(9)
    # explicit override allowed
    gen = all_permutations(9, cap=9)
    assert next(gen) == tuple(range(1, 10))
    with pytest.raises(ValueError):
        all_permutations(0)


def test_parse_format_roundtrip():
    w = (2, 1, 6, 5, 4, 3)
    assert parse_perm("2 1 6 5 4 3") == w
    assert format_perm(w) == "2 1 6 5 4 3"
    assert parse_perm(format_perm(w)) == w


@pytest.mark.parametrize("text", ["", "1 1", "0 2", "2 3", "a b", "1 2 4"])
def test_parse_perm_rejects(text):
    with pytest.raises(ValueError):
        parse_perm(text)


def test_check_word_validates():
    assert check_word([2, 1, 3]) == (2, 1, 3)
    with pytest.raises(ValueError):
        check_word((1, 2, 2))
    with pytest.raises(ValueError):
        check_word((0, 1))


def test_genset_text_format():
    assert parse_genset("{2,4}") == frozenset({2, 4})
    assert parse_genset("{}") == frozenset()
    assert format_genset(frozenset({4, 2})) == "{2,4}"
    assert format_genset(frozenset()) == "{}"
    with pytest.raises(ValueError):
        parse_genset("2,4")


def test_genset_helpers():
    assert full_genset(6) == frozenset({1, 2, 3, 4, 5})
    assert genset_complement(frozenset({2, 4}), 6) == frozenset({1, 3, 5})
    assert check_genset(frozenset({1, 5}), 6) == frozenset({1, 5})
    with pytest.raises(ValueError):
        check_genset(frozenset({6}), 6)
    with pytest.raises(ValueError):
        check_genset(frozenset({0}), 6)


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | st.integers(max_value=-(2**64))
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F)),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=15,
)


@given(json_values)
def test_json_text_is_the_standard_encoder(value):
    assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)


def test_json_text_edge_values():
    odd_text = "\u00e9\u2603\U0001f600\x00\x1f\"\\"
    for value in ([], {}, [[]], {"": {}}, odd_text, 10**40, [True, None]):
        assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "value", [1.5, (1, 2), Fraction(1, 2), [0, 2.0], {"a": (1,)}, {1: "a"}, {"a": 1, 2: "b"}, {"x"}]
)
def test_json_text_refuses_what_the_reports_never_emit(value):
    with pytest.raises(TypeError):
        json_text(value)
