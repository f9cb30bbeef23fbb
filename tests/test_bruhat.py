"""Strong order: prefix test, reduced words, covers, intervals."""

import itertools
import random
import time

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

    # 16 commuting transpositions: length 16 is within the word cap, and
    # the lower interval has 2^16 elements, more than 8!.  The oracle
    # grows nothing, so it answers; interval refuses to grow them all.
    v = tuple(x for i in range(1, 33, 2) for x in (i + 1, i))
    assert length(v) == 16
    assert leq_subword_oracle(identity(32), v)
    with pytest.raises(CapExceeded, match="interval cap"):
        interval(identity(32), v)
    # The whole group at degree 8 has exactly 8! elements and still runs.
    w0 = longest_element(8)
    assert leq_subword_oracle(identity(8), w0)
    assert len(interval(w0, w0)) == 1


def test_intervals_beyond_the_member_cap_are_refused_before_the_poset():
    from dcbruhat.symgroup import CapExceeded

    start = time.perf_counter()
    message = "^the interval has 40320 members, over the member cap 5040$"
    with pytest.raises(CapExceeded, match=message):
        interval(identity(8), longest_element(8))
    assert time.perf_counter() - start < 2
    # the longest element of the first seven symbols: exactly 7! members
    v = (7, 6, 5, 4, 3, 2, 1, 8)
    assert len(interval(identity(8), v)) == 5040


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


def _check_interval(u, v, group):
    p = interval(u, v)
    members = {w for w in group if leq(u, w) and leq(w, v)}
    assert set(p.elements) == members
    assert p.bottom() == u
    assert p.top() == v
    assert set(p.covers) == {(w, c) for w in members for c in covers(w) if c in members}


def test_interval_membership_and_covers():
    for u, v in itertools.product(S4, repeat=2):
        if leq(u, v):
            _check_interval(u, v, S4)
    rng = random.Random(20)
    S6 = list(all_permutations(6))
    pairs = [tuple(sorted(rng.sample(S6, 2), key=length)) for _ in range(400)]
    comparable = [(u, v) for u, v in pairs if leq(u, v)]
    assert len(comparable) >= 50
    for u, v in comparable[:80]:
        _check_interval(u, v, S6)


def test_interval_grows_only_what_reaches_the_bottom():
    # The lower interval of v has 2^16 elements, past the cap, but only
    # the products that can still reach u are grown.
    v = tuple(x for i in range(1, 33, 2) for x in (i + 1, i))
    u = mult_right(v, 1)
    assert set(interval(u, v).elements) == {u, v}


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
