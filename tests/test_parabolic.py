"""Parabolic subgroups, double cosets, representatives, factorization."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcbruhat import parabolic
from dcbruhat.bruhat import leq
from dcbruhat.parabolic import (
    CosetEntry,
    DoubleCosetTable,
    _blocks,
    _column_read,
    _fill_bound,
    _fillings,
    _longest_member,
    _margins,
    _read_longest,
    _sorted_cosets,
    _tables,
    coset_of,
    decompose,
    factorize,
    max_representatives,
    min_representatives,
    parabolic_elements,
)
from dcbruhat.poset import FinitePoset
from dcbruhat.symgroup import (
    CapExceeded,
    all_permutations,
    check_genset,
    compose,
    full_genset,
    identity,
    length,
    mult_right,
    right_ascents,
    right_descents,
)
from oracles import (
    check_interval_property,
    coset_members,
    left_ascents,
    left_descents,
    linking_genset,
    longest_member,
    mult_left,
    order_tables,
)

perm6 = st.permutations(tuple(range(1, 7))).map(tuple)
genset5 = st.frozensets(st.sampled_from(range(1, 6)))

S4 = list(all_permutations(4))

SRC = Path(__file__).resolve().parent.parent / "src"


def subsets(degree):
    return [
        frozenset(s)
        for r in range(degree)
        for s in itertools.combinations(range(1, degree), r)
    ]


# --- whole-group oracles for the contingency-table engine -------------------


def oracle_representatives(degree, I, J):
    """Shortest and longest coset members by filtering the whole group.

    Shortest members have every left generator as a left ascent and
    every right generator as a right ascent; longest members have none.
    """
    shortest, longest = [], []
    for w in all_permutations(degree):
        left, right = left_ascents(w), right_ascents(w)
        if I <= left and J <= right:
            shortest.append(w)
        if not I & left and not J & right:
            longest.append(w)
    return shortest, longest


def oracle_decompose(degree, I, J):
    """Entries and covers from orbits of the group and its order tables."""
    blocks, placed = [], set()
    for w in all_permutations(degree):
        if w in placed:
            continue
        block, frontier = {w}, [w]
        while frontier:
            x = frontier.pop()
            for y in [mult_left(x, i) for i in I] + [mult_right(x, j) for j in J]:
                if y not in block:
                    block.add(y)
                    frontier.append(y)
        placed |= block
        blocks.append(block)
    entries = sorted(
        ((min(b, key=length), max(b, key=length), len(b)) for b in blocks),
        key=lambda e: e[1],
    )
    _, index, up, down = order_tables(degree)
    ids = [index[e[1]] for e in entries]
    rep_mask = sum(1 << i for i in ids)
    order = []
    for a, b in itertools.permutations(range(len(entries)), 2):
        if not up[ids[a]] >> ids[b] & 1:
            continue
        strict = up[ids[a]] & down[ids[b]] & rep_mask & ~(1 << ids[a]) & ~(1 << ids[b])
        if not strict:
            order.append((a, b))
    return entries, sorted(order)


def assert_engine_matches_oracles(degree, I, J):
    shortest, longest = oracle_representatives(degree, I, J)
    assert min_representatives(degree, I, J) == shortest
    assert max_representatives(degree, I, J) == longest
    entries, order = oracle_decompose(degree, I, J)
    table = decompose(degree, I, J)
    assert [(e.min_rep, e.max_rep, e.size) for e in table.entries] == entries
    assert list(table.order) == order
    assert sum(e.size for e in table.entries) == math.factorial(degree)


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_engine_matches_oracles_on_every_pair(degree):
    for I, J in itertools.product(subsets(degree), repeat=2):
        assert_engine_matches_oracles(degree, I, J)


def test_engine_matches_oracle_on_whole_group_degree6():
    assert_engine_matches_oracles(6, frozenset(), frozenset())


@pytest.mark.slow
def test_engine_matches_oracles_on_every_pair_degree6():
    for I, J in itertools.product(subsets(6), repeat=2):
        assert_engine_matches_oracles(6, I, J)


# --- the eager construction as an oracle for the lazy coset table -----------


def eager_coset_entry(rows, table, group_order):
    """Shortest member, longest member and size of one table's coset, all at once."""
    low = []
    high = []
    start = 0
    for size in rows:
        low.append(start + 1)
        start += size
        high.append(start)
    shortest, longest = [], []
    for b in range(len(table[0])):
        for a in range(len(rows)):
            m = table[a][b]
            shortest.extend(range(low[a], low[a] + m))
            low[a] += m
        for a in reversed(range(len(rows))):
            m = table[a][b]
            longest.extend(range(high[a], high[a] - m, -1))
            high[a] -= m
    stabilizer = math.prod(math.factorial(m) for row in table for m in row)
    return CosetEntry(tuple(shortest), tuple(longest), group_order // stabilizer)


def eager_decompose(degree, I, J):
    """Entries built eagerly, covers as index pairs, and the element-pair poset.

    The covers come from comparing every pair of longest members: with
    cosets sorted by longest member, b covers a exactly when a < b, a's
    member is below b's, and b lies above none of a's earlier covers.
    """
    rows, cols = _blocks(degree, I), _blocks(degree, J)
    group_order = math.prod(map(math.factorial, rows)) * math.prod(map(math.factorial, cols))
    entries = sorted(
        (eager_coset_entry(rows, t, group_order) for t in _tables(rows, cols)),
        key=lambda e: e.max_rep,
    )
    reps = [e.max_rep for e in entries]
    n = len(entries)
    up = [0] * n
    covers = [[] for _ in range(n)]
    for a in reversed(range(n)):
        above = 0
        for b in range(a + 1, n):
            if not above >> b & 1 and leq(reps[a], reps[b]):
                covers[a].append(b)
                above |= up[b]
        up[a] = above | 1 << a
    order = [(a, b) for a in range(n) for b in covers[a]]
    poset = FinitePoset(reps, [(reps[a], reps[b]) for a, b in order])
    return entries, order, poset


def assert_lazy_table_matches_eager_build(degree):
    for I, J in itertools.product(subsets(degree), repeat=2):
        entries, order, poset = eager_decompose(degree, I, J)
        table = decompose(degree, I, J)
        assert table.max_reps == tuple(e.max_rep for e in entries)
        built = table.poset()
        assert built == poset
        assert built.covers == poset.covers
        assert list(table.order) == order
        assert list(table.entries) == entries


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_lazy_table_matches_eager_build_on_every_pair(degree):
    assert_lazy_table_matches_eager_build(degree)


@pytest.mark.slow
def test_lazy_table_matches_eager_build_on_every_pair_degree6():
    assert_lazy_table_matches_eager_build(6)


@pytest.mark.slow
def test_move_covers_match_all_pairs_oracle_on_whole_group_degree7():
    _, order, _ = eager_decompose(7, frozenset(), frozenset())
    assert list(decompose(7, frozenset(), frozenset()).order) == order


@pytest.mark.slow
def test_whole_group_degree8_finishes():
    table = decompose(8, frozenset(), frozenset())
    assert len(table.max_reps) == 40320
    assert len(table.order) == 341136
    assert table.poset().top() == tuple(range(8, 0, -1))


# --- the reachability pass as an oracle for the empty-rectangle rule -------


def upmask_decompose(degree, I, J):
    """The coset table with covers from reachability masks, walked from the top down.

    A table's targets are the tables one move above it, and a target is
    a cover when it lies above no other target.  A move lands higher in
    the lexicographic order of longest members, which extends the group
    order, so walking the cosets from the top down finishes each
    target's up-set before it is read.
    """
    left_gens = check_genset(I, degree)
    right_gens = check_genset(J, degree)
    rows, cols = _margins(degree, left_gens, right_gens)
    cosets = sorted((_longest_member(rows, t), t) for t in _tables(rows, cols))
    # tables flattened row by row: cell (a, b) sits at a * width + b
    width = len(cols)
    moves = [
        (a * width + b, c * width + d, a * width + d, c * width + b)
        for a, c in itertools.combinations(range(len(rows)), 2)
        for b, d in itertools.combinations(range(width), 2)
    ]
    flats = [sum(t, ()) for _, t in cosets]
    index = {flat: i for i, flat in enumerate(flats)}
    n = len(cosets)
    up = [0] * n
    covers = [0] * n
    for i in reversed(range(n)):
        flat = flats[i]
        targets = above = 0
        for p, q, r, s in moves:
            if flat[p] and flat[q]:
                step = list(flat)
                step[p] -= 1
                step[q] -= 1
                step[r] += 1
                step[s] += 1
                j = index[tuple(step)]
                bit = 1 << j
                targets |= bit
                above |= up[j] ^ bit
        covers[i] = targets & ~above
        up[i] = targets | above | 1 << i
    max_reps, tables = zip(*cosets)
    return DoubleCosetTable(degree, left_gens, right_gens, max_reps, tables, tuple(covers))


def assert_rectangle_rule_matches_upmask_oracle(degree):
    for I, J in itertools.product(subsets(degree), repeat=2):
        assert decompose(degree, I, J) == upmask_decompose(degree, I, J), (I, J)


def test_rectangle_rule_matches_upmask_oracle_on_every_pair_degree6():
    assert_rectangle_rule_matches_upmask_oracle(6)


@pytest.mark.slow
def test_rectangle_rule_matches_upmask_oracle_on_every_pair_degree7():
    assert_rectangle_rule_matches_upmask_oracle(7)


@pytest.mark.slow
def test_rectangle_rule_matches_upmask_oracle_on_a_degree12_pair():
    full = full_genset(12)
    table = decompose(12, full - {5, 10, 11}, frozenset())
    assert len(table.max_reps) == 33264
    assert sum(map(int.bit_count, table.cover_masks)) == 180252
    assert table == upmask_decompose(12, full - {5, 10, 11}, frozenset())


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_whole_group_degree8_peak_memory():
    # The reachability pass peaked at about 478 MiB here; the
    # empty-rectangle rule keeps only the cover masks.
    probe = (
        "from dcbruhat.parabolic import decompose; "
        "decompose(8, frozenset(), frozenset()); "
        "print(next(line.split()[1] for line in open('/proc/self/status') "
        "if line.startswith('VmHWM:')))"
    )
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-s", "-c", probe], env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 350 * 1024  # kB


# --- the recursive generators as oracles for the iterative ones -----------


def recursive_fillings(total, room):
    """Vectors v with sum total and 0 <= v[b] <= room[b], first entry outermost."""
    if len(room) == 1:
        if total <= room[0]:
            yield (total,)
        return
    rest = sum(room[1:])
    for x in range(max(0, total - rest), min(room[0], total) + 1):
        for tail in recursive_fillings(total - x, room[1:]):
            yield (x,) + tail


def recursive_tables(rows, cols):
    """Contingency tables, one generator frame per row."""
    if len(rows) == 1:
        yield (cols,)
        return
    for first in recursive_fillings(rows[0], cols):
        left = tuple(c - x for c, x in zip(cols, first))
        for rest in recursive_tables(rows[1:], left):
            yield (first,) + rest


def assert_tables_match_recursive_oracle(degree):
    margins = [_blocks(degree, I) for I in subsets(degree)]
    for rows, cols in itertools.product(margins, repeat=2):
        assert list(_tables(rows, cols)) == list(recursive_tables(rows, cols)), (rows, cols)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6, 7])
def test_iterative_tables_match_recursive_oracle_on_every_margin_pair(degree):
    assert_tables_match_recursive_oracle(degree)


@pytest.mark.slow
def test_iterative_tables_match_recursive_oracle_on_every_margin_pair_degree8():
    assert_tables_match_recursive_oracle(8)


def test_iterative_fillings_match_recursive_oracle():
    # rooms with zero slots and totals past the room, which no margin pair has
    for k in (1, 2, 3, 4):
        for room in itertools.product(range(4), repeat=k):
            for total in range(sum(room) + 3):
                assert list(_fillings(total, room)) == list(recursive_fillings(total, room))


# --- the column-read sort as the order of the longest members --------------


def assert_column_read_order_is_longest_member_order(degree):
    for I, J in itertools.product(subsets(degree), repeat=2):
        rows, cols = _blocks(degree, I), _blocks(degree, J)
        members = [longest_member(rows, t) for t in sorted(_tables(rows, cols), key=_column_read)]
        assert members == sorted(members), (I, J)


@pytest.mark.parametrize("degree", range(1, 8))
def test_column_read_order_is_longest_member_order(degree):
    assert_column_read_order_is_longest_member_order(degree)


@pytest.mark.slow
def test_column_read_order_is_longest_member_order_degree8():
    assert_column_read_order_is_longest_member_order(8)


@pytest.mark.parametrize("degree", range(1, 7))
def test_the_engine_sorts_by_longest_member(degree):
    for I, J in itertools.product(subsets(degree), repeat=2):
        rows, cols = _blocks(degree, I), _blocks(degree, J)
        flats, tables, _ = _sorted_cosets(rows, cols)
        assert flats == tuple(map(_column_read, tables))
        members = sorted(longest_member(rows, t) for t in _tables(rows, cols))
        assert [longest_member(rows, t) for t in tables] == members, (I, J)
        assert list(decompose(degree, I, J).max_reps) == members


def test_coset_poset_builds_no_entries(monkeypatch):
    def refuse(*args):
        raise AssertionError("a shortest member was built")

    monkeypatch.setattr(parabolic, "_coset_entry", refuse)
    full = full_genset(7)
    table = decompose(7, full - {3}, full - {1, 4})
    assert table.poset().bottom() == table.max_reps[0]
    assert len(table.max_reps) == 7
    with pytest.raises(AssertionError, match="shortest member"):
        table.entries


def test_coset_cap_refuses_up_front():
    # 12! cosets for the trivial pair, far past the cap
    with pytest.raises(CapExceeded):
        max_representatives(12, frozenset(), frozenset())
    with pytest.raises(CapExceeded):
        decompose(9, frozenset(), frozenset())


def test_fill_bounds_hold_on_every_margin_pair():
    for degree in range(1, 8):
        margins = [_blocks(degree, I) for I in subsets(degree)]
        for rows, cols in itertools.product(margins, repeat=2):
            count = sum(1 for _ in _tables(rows, cols))
            assert count <= _fill_bound(rows, len(cols), math.inf), (rows, cols)
            assert count <= _fill_bound(cols, len(rows), math.inf), (rows, cols)


def test_fill_bound_admits_pairs_of_few_long_blocks():
    # coset_bound is 18! / (4! 13!) = 42840 here, past the cap, but the
    # columns (1, 4, 13) fill in at most 2 * 5 ways
    full = full_genset(18)
    table = decompose(18, full - {8}, full - {1, 5})
    assert len(table.max_reps) == 10
    # rows (3, 4, 6) against columns (1, ..., 1, 5): coset_bound 60060
    # and the row product 165 * 495 pass the cap, the column product 3^8
    # does not; the transposed pair needs the row product
    left, right = full_genset(13) - {3, 7}, frozenset({9, 10, 11, 12})
    assert len(decompose(13, left, right).max_reps) == 4270
    assert len(decompose(13, right, left).max_reps) == 4270
    # where coset_bound is the least bound, the refusal reads as before
    for degree, bound in ((9, 362880), (12, 479001600)):
        message = f"^degree {degree} with these gensets allows up to {bound} double cosets, "
        with pytest.raises(CapExceeded, match=message + "over the enumeration cap 40320$"):
            decompose(degree, frozenset(), frozenset())


def test_engine_runs_past_the_degree_cap():
    full = full_genset(12)
    table = decompose(12, full - {3}, full - {2, 5})
    assert sum(e.size for e in table.entries) == math.factorial(12)
    assert [e.max_rep for e in table.entries] == max_representatives(12, full - {3}, full - {2, 5})
    p = table.poset()
    assert p.top() == tuple(range(12, 0, -1))


def test_parabolic_subgroup_sizes():
    # block sizes multiply: {1,2} gives S3 x S1, {1,3} gives S2 x S2
    assert len(parabolic_elements(4, frozenset({1, 2}))) == 6
    assert len(parabolic_elements(4, frozenset({1, 3}))) == 4
    assert len(parabolic_elements(4, frozenset())) == 1
    assert len(parabolic_elements(4, full_genset(4))) == 24


def test_subgroups_beyond_the_listing_cap_are_refused(monkeypatch):
    # The full subgroup at degree 8 has exactly 8! elements and still runs,
    # and so do small blocks at any degree.
    assert len(parabolic_elements(8, full_genset(8))) == 40320
    assert len(parabolic_elements(12, frozenset({1, 3, 5, 7, 9, 11}))) == 64
    monkeypatch.setattr(parabolic, "itertools", None)  # refused before enumeration
    with pytest.raises(CapExceeded, match="enumeration cap"):
        parabolic_elements(9, full_genset(9))
    with pytest.raises(CapExceeded, match="enumeration cap"):
        parabolic_elements(12, full_genset(12) - {9})


def test_parabolic_subgroup_contains_identity_and_closes():
    gens = frozenset({1, 3})
    members = parabolic_elements(4, gens)
    assert identity(4) in members
    from dcbruhat.symgroup import mult_right

    for w in members:
        for i in gens:
            assert mult_right(w, i) in members


@pytest.mark.parametrize("I,J", [(frozenset({1}), frozenset({2})),
                                 (frozenset({1, 2}), frozenset({3})),
                                 (frozenset(), frozenset())])
def test_representatives_have_ascent_profiles(I, J):
    for m in min_representatives(4, I, J):
        assert I <= left_ascents(m)
        assert J <= right_ascents(m)
    for M in max_representatives(4, I, J):
        assert I <= left_descents(M)
        assert J <= right_descents(M)


def test_cosets_partition_the_group():
    I, J = frozenset({1, 2}), frozenset({3})
    seen = set()
    for m in min_representatives(4, I, J):
        block = coset_members(m, I, J)
        assert not seen & block
        seen |= block
    assert seen == set(S4)


@given(perm6, genset5, genset5)
def test_coset_of_brackets_its_member(w, I, J):
    lo, hi = coset_of(w, I, J)
    members = coset_members(w, I, J)
    assert lo in members and hi in members
    assert leq(lo, w) and leq(w, hi)
    assert min(length(x) for x in members) == length(lo)
    assert max(length(x) for x in members) == length(hi)


def test_coset_is_a_bruhat_interval():
    I, J = frozenset({1, 4}), frozenset({2, 3})
    group = list(all_permutations(5))
    for m in min_representatives(5, I, J):
        lo, hi = coset_of(m, I, J)
        members = coset_members(m, I, J)
        assert members == {x for x in group if leq(lo, x) and leq(x, hi)}


def test_interval_property_exhaustive_small():
    for I, J in itertools.product(subsets(4), repeat=2):
        assert check_interval_property(4, I, J)


def test_whole_group_oracles_refuse_past_the_degree_cap():
    message = "^degree 9 exceeds the enumeration cap 8$"
    with pytest.raises(CapExceeded, match=message):
        order_tables(9)
    with pytest.raises(CapExceeded, match=message):
        check_interval_property(9, frozenset(), frozenset())


def test_decompose_table_shape():
    full = full_genset(6)
    table = decompose(6, full - {2}, full - {2, 4})
    assert len(table.entries) == 6
    assert sum(e.size for e in table.entries) == 720
    tops = [e.max_rep for e in table.entries]
    assert tops == sorted(tops)
    assert (2, 1, 6, 5, 4, 3) in tops
    p = table.poset()
    assert p.bottom() == (2, 1, 6, 5, 4, 3)
    assert p.top() == (6, 5, 4, 3, 2, 1)


def test_decompose_order_matches_rep_order():
    I, J = frozenset({1, 2}), frozenset({1, 3})
    table = decompose(4, I, J)
    tops = [e.max_rep for e in table.entries]
    for a, b in itertools.product(range(len(tops)), repeat=2):
        if a == b:
            continue
        covered = (a, b) in table.order
        if covered:
            assert leq(tops[a], tops[b])
            assert not any(
                c not in (a, b) and leq(tops[a], tops[c]) and leq(tops[c], tops[b])
                for c in range(len(tops))
            )


def test_decompose_json_schema():
    full = full_genset(6)
    table = decompose(6, full - {2}, full - {2, 4})
    doc = json.loads(table.to_json())
    assert doc["degree"] == 6
    assert doc["I_complement"] == [2]
    assert doc["J_complement"] == [2, 4]
    assert len(doc["cosets"]) == 6
    first = doc["cosets"][0]
    assert first["min"] == [1, 2, 3, 4, 5, 6]
    assert first["max"] == [2, 1, 6, 5, 4, 3]
    assert first["size"] == 48
    assert all(len(pair) == 2 for pair in doc["covers"])


def test_decompose_table_text():
    table = decompose(4, frozenset({1}), frozenset({2}))
    text = table.to_table()
    assert "min" in text and "max" in text and "size" in text


@given(perm6, genset5, genset5)
def test_factorize_reconstructs_with_additive_length(x, I, J):
    u, w, v = factorize(x, I, J)
    assert compose(compose(u, w), v) == x
    assert length(u) + length(w) + length(v) == length(x)
    # w is the shortest element of its double coset
    assert w == coset_of(x, I, J)[0]
    assert u in parabolic_elements(6, I)
    assert v in parabolic_elements(6, J)
    assert linking_genset(w, I, J) <= right_ascents(u)


def assert_coset_functions_match_oracles(degree):
    """``coset_of`` and ``factorize`` on every x and every pair at one degree.

    The ends of each coset are checked against the oracle's members.
    The factorization is unique, so its properties pin it.
    """
    group = list(all_permutations(degree))
    for I, J in itertools.product(subsets(degree), repeat=2):
        left, right = parabolic_elements(degree, I), parabolic_elements(degree, J)
        seen = set()
        for m in group:
            if m in seen:
                continue
            members = coset_members(m, I, J)
            seen |= members
            ends = min(members, key=length), max(members, key=length)
            for x in members:
                assert coset_of(x, I, J) == ends
                u, w, v = factorize(x, I, J)
                assert compose(compose(u, w), v) == x
                assert length(u) + length(w) + length(v) == length(x)
                assert w == ends[0] and u in left and v in right
                assert linking_genset(w, I, J) <= right_ascents(u)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_coset_functions_match_oracles_small(degree):
    assert_coset_functions_match_oracles(degree)


@pytest.mark.slow
@pytest.mark.parametrize("degree", [5, 6])
def test_coset_functions_match_oracles(degree):
    assert_coset_functions_match_oracles(degree)


@pytest.mark.parametrize("word", [(1, 1, 3), (1, 2, 5), (0, 1, 2)])
def test_coset_functions_refuse_a_non_permutation(word):
    for function in (coset_of, factorize):
        with pytest.raises(ValueError, match="not a permutation word"):
            function(word, frozenset({1}), frozenset({2}))


def test_factorize_exhaustive_one_pair():
    I, J = frozenset({2, 3}), frozenset({1, 3})
    for x in S4:
        u, w, v = factorize(x, I, J)
        assert compose(compose(u, w), v) == x
        assert length(u) + length(w) + length(v) == length(x)


def test_linking_genset_stays_inside_left_gens():
    I, J = frozenset({1, 2, 4}), frozenset({2, 3})
    for m in min_representatives(5, I, J):
        assert linking_genset(m, I, J) <= I
