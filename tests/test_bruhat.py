"""Strong order: prefix test, reduced words, covers, intervals."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcbruhat.bruhat import (
    covers,
    interval,
    leq,
    leq_subword_oracle,
    reduced_word,
)
from dcbruhat.symgroup import (
    all_permutations,
    identity,
    length,
    longest_element,
    mult_right,
    right_descents,
)
from oracles import order_tables

perm5 = st.permutations(tuple(range(1, 6))).map(tuple)
perm6 = st.permutations(tuple(range(1, 7))).map(tuple)

S4 = list(all_permutations(4))
S5 = list(all_permutations(5))


def test_partial_order_axioms_exhaustive():
    for u in S4:
        assert leq(u, u)
    for u, v in itertools.permutations(S4, 2):
        if leq(u, v) and leq(v, u):
            assert u == v
    for u, v, w in itertools.product(S4, repeat=3):
        if leq(u, v) and leq(v, w):
            assert leq(u, w)


def test_extremes():
    e, w0 = identity(5), longest_element(5)
    for w in all_permutations(5):
        assert leq(e, w)
        assert leq(w, w0)


@given(perm6, perm6)
def test_leq_respects_length(u, v):
    if leq(u, v):
        assert length(u) <= length(v)
        if length(u) == length(v):
            assert u == v


def test_leq_known_cross_pair():
    # comparable in the full group even though only one side is a coset top
    assert leq((2, 1, 6, 5, 4, 3), (6, 2, 5, 4, 1, 3))


@given(perm6)
def test_reduced_word_reconstructs(w):
    word = reduced_word(w)
    assert len(word) == length(w)
    out = identity(6)
    for i in word:
        out = mult_right(out, i)
    assert out == w
    # reduced means every prefix ascends
    run = identity(6)
    for i in word:
        assert i not in right_descents(run)
        run = mult_right(run, i)


def test_subword_oracle_agrees_exhaustively():
    for u, v in itertools.product(S4, repeat=2):
        assert leq(u, v) == leq_subword_oracle(u, v)


@given(perm5, perm5)
def test_subword_oracle_agrees_random(u, v):
    assert leq(u, v) == leq_subword_oracle(u, v)


def test_subword_oracle_refuses_long_targets():
    from dcbruhat.symgroup import CapExceeded

    w0 = longest_element(6)
    with pytest.raises(CapExceeded):
        leq_subword_oracle(identity(6), w0, max_length=10)


def test_lower_intervals_beyond_the_interval_cap_are_refused():
    from dcbruhat.symgroup import CapExceeded

    # 16 commuting transpositions: length 16 passes the word cap, yet
    # the lower interval has 2^16 elements, more than 8!.
    v = tuple(x for i in range(1, 33, 2) for x in (i + 1, i))
    assert length(v) == 16
    with pytest.raises(CapExceeded, match="interval cap"):
        leq_subword_oracle(identity(32), v)
    with pytest.raises(CapExceeded, match="interval cap"):
        interval(identity(32), v)
    # The whole group at degree 8 has exactly 8! elements and still runs.
    w0 = longest_element(8)
    assert leq_subword_oracle(identity(8), w0)
    assert len(interval(w0, w0)) == 1


def test_covers_are_tight_steps():
    for v in S4:
        for c in covers(v):
            assert length(c) == length(v) + 1
            assert leq(v, c)
            between = [w for w in S4 if leq(v, w) and leq(w, c) and w not in (v, c)]
            assert not between


def test_interval_requires_comparable_endpoints():
    with pytest.raises(ValueError):
        interval((2, 1, 3), (1, 3, 2))


def test_interval_membership_and_covers():
    u, v = (1, 2, 3, 4), (3, 4, 1, 2)
    p = interval(u, v)
    expected = {w for w in S4 if leq(u, w) and leq(w, v)}
    assert set(p.elements) == expected
    assert p.bottom() == u
    assert p.top() == v
    for lo, hi in p.covers:
        assert length(hi) == length(lo) + 1


def test_whole_group_interval_height():
    p = interval(identity(4), longest_element(4))
    assert len(p) == 24
    assert p.height() == 6


def test_order_tables_encode_leq():
    for degree, group in [(4, S4), (5, S5)]:
        elements, index, up, down = order_tables(degree)
        assert set(elements) == set(group)
        for u, v in itertools.product(group, repeat=2):
            bit = (up[index[u]] >> index[v]) & 1
            assert bool(bit) == leq(u, v)
            assert bool((down[index[v]] >> index[u]) & 1) == leq(u, v)


def test_lexicographic_order_extends_strong_order():
    for u, v in itertools.product(S5, repeat=2):
        if u != v and leq(u, v):
            assert u < v
