"""
Parabolic subgroups and their double cosets in the symmetric group.

A parabolic subgroup is generated by a set of simple transpositions; it
permutes symbols only inside runs of consecutive indices, its blocks.
The left factor acts on values and the right factor on positions.  The
double cosets of a pair of parabolics correspond one to one to
contingency tables, the nonnegative integer matrices whose row sums are
the left block sizes and whose column sums are the right block sizes
(Billey, Konvalinka, Petersen, Slofstra and Tenner, "Parabolic double
cosets in Coxeter groups", Discrete Analysis 2018).  Each table yields
its coset's unique shortest and longest members and its size without
visiting the group.  ``decompose`` walks the tables, orders the cosets
by their longest members and finds each table's covers among its 2x2
moves; every other reader of the cosets reads its records.
``coset_members``, ``coset_of`` and ``factorize`` work on one coset at a
time, by generator moves from a member.
"""
from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import lru_cache
from operator import sub
from typing import Iterator

from .poset import FinitePoset, _pairs
from .symgroup import (
    DEFAULT_DEGREE_CAP,
    CapExceeded,
    GenSet,
    Perm,
    check_genset,
    compose,
    format_genset,
    format_perm,
    identity,
    inverse,
    json_text,
    length,
    mult_left,
    mult_right,
    right_ascents,
)


@lru_cache(maxsize=256)
def parabolic_elements(degree: int, gens: GenSet) -> frozenset[Perm]:
    """All elements of the subgroup generated by the given simple indices.

    The subgroup is the double coset of the identity with a trivial left
    factor.
    """
    check_genset(gens, degree)
    return coset_members(identity(degree), frozenset(), gens)


class CosetEntry(namedtuple("CosetEntry", "min_rep max_rep size")):
    """One double coset, keyed by its two distinguished members.

    Fields: ``min_rep: Perm``, ``max_rep: Perm`` and ``size: int``.
    """

    __slots__ = ()


class DoubleCosetTable(
    namedtuple(
        "DoubleCosetTable", "degree left_gens right_gens max_reps tables cover_masks"
    )
):
    """The full decomposition for one (degree, left, right) triple.

    Cosets are indexed in increasing order of their longest members,
    ``max_reps``.  ``tables`` holds each coset's contingency table, and
    bit j of ``cover_masks[i]`` says that coset j covers coset i.  The
    shortest members and sizes in ``entries`` are built from the tables
    on each read, so bind them to a name when they are needed twice.

    Fields: ``degree: int``, ``left_gens: GenSet``, ``right_gens:
    GenSet``, ``max_reps: tuple[Perm, ...]``, ``tables:
    tuple[tuple[tuple[int, ...], ...], ...]`` and ``cover_masks:
    tuple[int, ...]``.
    """

    __slots__ = ()

    @property
    def entries(self) -> tuple[CosetEntry, ...]:
        """Each coset's shortest member, longest member and size, in index order."""
        rows = _blocks(self.degree, self.left_gens)
        cols = _blocks(self.degree, self.right_gens)
        group_order = _factorial_product(rows) * _factorial_product(cols)
        return tuple(
            _coset_entry(rows, t, group_order, w) for w, t in zip(self.max_reps, self.tables)
        )

    @property
    def order(self) -> tuple[tuple[int, int], ...]:
        """The covering pairs as ascending index pairs (lower, upper)."""
        return tuple(_pairs(self.cover_masks))

    def poset(self):
        return FinitePoset.from_cover_masks(self.max_reps, self.cover_masks)

    def to_json(self) -> str:
        full = frozenset(range(1, self.degree))
        return json_text(
            {
                "degree": self.degree,
                "I_complement": sorted(full - self.left_gens),
                "J_complement": sorted(full - self.right_gens),
                "cosets": [
                    {"min": list(e.min_rep), "max": list(e.max_rep), "size": e.size}
                    for e in self.entries
                ],
                "covers": [[i, j] for i, j in _pairs(self.cover_masks)],
            }
        ) + "\n"

    def to_table(self) -> str:
        entries = self.entries
        head = (
            f"degree {self.degree}  "
            f"I={format_genset(self.left_gens)}  "
            f"J={format_genset(self.right_gens)}  "
            f"cosets={len(entries)}"
        )
        lines = [head, ""]
        width = max(len(format_perm(e.min_rep)) for e in entries)
        lines.append(f"{'min'.ljust(width)}  {'max'.ljust(width)}  size")
        for e in entries:
            lines.append(
                f"{format_perm(e.min_rep).ljust(width)}  "
                f"{format_perm(e.max_rep).ljust(width)}  {e.size}"
            )
        return "\n".join(lines) + "\n"


#: Most double cosets one call may list: the count for the trivial pair
#: at the default degree cap, so every input that cap admits still runs.
COSET_CAP = math.factorial(DEFAULT_DEGREE_CAP)


def _blocks(degree: int, gens: GenSet) -> tuple[int, ...]:
    """Sizes of the runs of consecutive symbols that the generators join."""
    sizes = [1]
    for i in range(1, degree):
        if i in gens:
            sizes[-1] += 1
        else:
            sizes.append(1)
    return tuple(sizes)


def _factorial_product(sizes) -> int:
    return math.prod(math.factorial(k) for k in sizes)


def coset_bound(degree: int, left_gens: GenSet, right_gens: GenSet) -> int:
    """An upper bound on the double cosets W_I w W_J: degree! / max(|W_I|, |W_J|).

    Each double coset contains the one-sided cosets W_I w and w W_J, so
    it has at least max(|W_I|, |W_J|) elements.  The bound is exact when
    either subgroup is trivial.

    >>> coset_bound(4, frozenset({1, 3}), frozenset()), coset_bound(4, frozenset(), frozenset({1, 3}))
    (6, 6)
    """
    return _bound(degree, _blocks(degree, left_gens), _blocks(degree, right_gens))


def _bound(degree: int, rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    """``coset_bound`` from the two gensets' blocks."""
    return math.factorial(degree) // max(_factorial_product(rows), _factorial_product(cols))


def _fillings(total: int, room: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Vectors v with sum total and 0 <= v[b] <= room[b], in lexicographic order.

    One frame walks the vectors in place: each step raises the last
    entry before the final one that has room and something after it to
    take from, and refills everything after it as low as possible.
    """
    k = len(room)
    rest = [0] * (k + 1)  # rest[b] = sum(room[b:])
    for b in reversed(range(k)):
        rest[b] = rest[b + 1] + room[b]
    if total > rest[0]:
        return
    v = [0] * k
    start, left = 0, total
    while True:
        for b in range(start, k):
            v[b] = max(0, left - rest[b + 1])
            left -= v[b]
        yield tuple(v)
        b, left = k - 2, v[-1]
        while b >= 0 and (v[b] == room[b] or not left):
            left += v[b]
            b -= 1
        if b < 0:
            return
        v[b] += 1
        start, left = b + 1, left - 1


def _tables(rows: tuple[int, ...], cols: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Nonnegative integer matrices with the given row and column sums.

    Filled row by row, in lexicographic order of the rows, from an
    explicit stack of row iterators.  Whatever the earlier rows took,
    the remaining margins have equal totals, so some matrix completes
    them and no branch dead-ends; the last row is forced.
    """
    last = len(rows) - 1
    if not last:
        yield (cols,)
        return
    prefix: list[tuple[int, ...]] = []  # rows chosen above the current depth
    margins = [cols]  # margins[a]: the column sums left for rows a onward
    pending = [_fillings(rows[0], cols)]
    while pending:
        a = len(pending) - 1
        row = next(pending[-1], None)
        if row is None:
            pending.pop()
            continue
        prefix[a:] = [row]
        left = tuple(map(sub, margins[a], row))
        if a + 1 == last:
            yield (*prefix, left)
        else:
            margins[a + 1:] = [left]
            pending.append(_fillings(rows[a + 1], left))


def _longest_member(rows: tuple[int, ...], table) -> Perm:
    """The longest member of one table's coset.

    Entry (a, b) of the table counts the positions of right block b that
    hold values of left block a.  The longest member hands each left
    block's values out in decreasing order, to the right blocks from
    left to right, and lists each right block decreasing.
    """
    high = []
    top = 0
    for size in rows:
        top += size
        high.append(top)
    longest: list[int] = []
    upward = range(len(rows) - 1, -1, -1)
    for column in zip(*table):
        for a in upward:
            m = column[a]
            if m:
                h = high[a]
                longest += range(h, h - m, -1)
                high[a] = h - m
    return tuple(longest)


def _coset_entry(rows: tuple[int, ...], table, group_order: int, longest: Perm) -> CosetEntry:
    """Shortest member and size of one table's coset, next to its longest member.

    The shortest member hands each left block's values out in increasing
    order, to the right blocks from left to right, and lists each right
    block increasing.  The coset is W_I w W_J, of size
    |W_I| |W_J| / |W_I cap w W_J w^-1|, and that intersection is the
    product of the symmetric groups on the table's cells.
    """
    low = []
    start = 0
    for size in rows:
        low.append(start + 1)
        start += size
    shortest: list[int] = []
    for column in zip(*table):
        for a, m in enumerate(column):
            shortest.extend(range(low[a], low[a] + m))
            low[a] += m
    stabilizer = math.prod(math.factorial(m) for row in table for m in row)
    return CosetEntry(tuple(shortest), longest, group_order // stabilizer)


def _margins(
    degree: int, left_gens: GenSet, right_gens: GenSet
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row and column sums of the pair's tables, refusing up front past the cap.

    The left genset's blocks of values give the row sums and the right
    genset's blocks of positions the column sums; both gensets must
    already have passed ``check_genset``.  The call refuses when
    ``coset_bound`` exceeds ``COSET_CAP``.
    """
    if degree < 1:
        raise ValueError(f"degree must be at least 1, got {degree}")
    rows, cols = _blocks(degree, left_gens), _blocks(degree, right_gens)
    bound = _bound(degree, rows, cols)
    if bound > COSET_CAP:
        raise CapExceeded(
            f"degree {degree} with these gensets allows up to {bound} double cosets, "
            f"over the enumeration cap {COSET_CAP}"
        )
    return rows, cols


def min_representatives(degree: int, left_gens: GenSet, right_gens: GenSet) -> list[Perm]:
    """Shortest double coset members, sorted lexicographically by one-line word.

    These are the permutations whose left and right ascents cover the
    two gensets.
    """
    return sorted(e.min_rep for e in decompose(degree, left_gens, right_gens).entries)


def max_representatives(degree: int, left_gens: GenSet, right_gens: GenSet) -> list[Perm]:
    """Longest double coset members, sorted lexicographically by one-line word.

    These are the permutations whose ascents all lie inside the
    complements of the two gensets.
    """
    return list(decompose(degree, left_gens, right_gens).max_reps)


@lru_cache(maxsize=256)
def _moves(height: int, width: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The 2x2 moves on tables of one shape, flattened row by row.

    Cell (a, b) sits at a * width + b, and entry p lists the moves that
    take one unit from p = (a, b).  A move (q, r, s, between) also takes
    one from q = (c, d), with a < c and b < d, adds one to r = (a, d) and
    s = (c, b), and lists the rectangle's cells other than its corners.
    """
    moves = [[] for _ in range(height * width)]
    for a, c in itertools.combinations(range(height), 2):
        for b, d in itertools.combinations(range(width), 2):
            cells = itertools.product(range(a, c + 1), range(b, d + 1))
            between = tuple(x * width + y for x, y in cells if x not in (a, c) or y not in (b, d))
            moves[a * width + b].append((c * width + d, a * width + d, c * width + b, between))
    return tuple(map(tuple, moves))


def decompose(degree: int, left_gens: GenSet, right_gens: GenSet) -> DoubleCosetTable:
    """Split the group into double cosets and find their covers table by table.

    A move takes one unit from cells (a, b) and (c, d) of a table, with
    a < c and b < d, and adds one to (a, d) and (c, b): it swaps a value
    of left block a with a larger one of left block c across right
    blocks b < d, so the target coset lies above.  Every cover is one
    reflection away (Bjorner-Brenti, Combinatorics of Coxeter Groups,
    Ch. 2), and so one move away.  A move's target is a cover exactly
    when every cell of the rectangle from (a, b) to (c, d), other than
    its four corners, is zero: the double-coset form of the rule that a
    transposition covers when no value lies in between.  So each table's
    covers are read off that table alone.  Only the longest members are
    built here; ``entries`` adds the shortest members and sizes when read.

    At degree 4 with I = {2} and J = {1, 3}, table 0's move across rows
    0 and 2 reaches table 3, but row 1 of that rectangle is not zero, so
    table 3 lies above table 0 without covering it; tables 1 and 2 do:

    >>> table = decompose(4, frozenset({2}), frozenset({1, 3}))
    >>> table.tables[0], table.tables[3]
    (((1, 0), (1, 1), (0, 1)), ((0, 1), (1, 1), (1, 0)))
    >>> table.cover_masks
    (6, 8, 8, 0)
    """
    left_gens = check_genset(left_gens, degree)
    right_gens = check_genset(right_gens, degree)
    rows, cols = _margins(degree, left_gens, right_gens)
    cosets = sorted((_longest_member(rows, t), t) for t in _tables(rows, cols))
    moves = _moves(len(rows), len(cols))
    flats = [sum(t, ()) for _, t in cosets]
    index = {flat: i for i, flat in enumerate(flats)}
    covers = []
    for flat in flats:
        cell = flat.__getitem__
        mask = 0
        for p, held in enumerate(flat):
            if held:
                for q, r, s, between in moves[p]:
                    if flat[q] and not any(map(cell, between)):
                        step = list(flat)
                        step[p] -= 1
                        step[q] -= 1
                        step[r] += 1
                        step[s] += 1
                        mask |= 1 << index[tuple(step)]
        covers.append(mask)
    max_reps, tables = zip(*cosets)
    return DoubleCosetTable(degree, left_gens, right_gens, max_reps, tables, tuple(covers))


def coset_members(w: Perm, left_gens: GenSet, right_gens: GenSet) -> frozenset[Perm]:
    """All members of the double coset of w."""
    degree = len(w)
    left_gens = check_genset(left_gens, degree)
    right_gens = check_genset(right_gens, degree)
    block = {w}
    frontier = [w]
    while frontier:
        x = frontier.pop()
        for i in left_gens:
            y = mult_left(x, i)
            if y not in block:
                block.add(y)
                frontier.append(y)
        for i in right_gens:
            y = mult_right(x, i)
            if y not in block:
                block.add(y)
                frontier.append(y)
    return frozenset(block)


def coset_of(w: Perm, left_gens: GenSet, right_gens: GenSet) -> tuple[Perm, Perm]:
    """The shortest and longest members of the double coset of w."""
    block = coset_members(w, left_gens, right_gens)
    return min(block, key=length), max(block, key=length)


def linking_genset(w: Perm, left_gens: GenSet, right_gens: GenSet) -> GenSet:
    """Left indices that conjugate through the shortest member into the right side.

    For a shortest coset member w, index i belongs when the positions of
    the values i and i+1 in w are adjacent and their transposition index
    lies in the right genset.  These are exactly the left generators
    whose action on the coset can also be produced from the right.
    """
    wi = inverse(w)
    out = set()
    for i in left_gens:
        a, b = wi[i - 1], wi[i]
        if abs(a - b) == 1 and min(a, b) in right_gens:
            out.add(i)
    return frozenset(out)


def factorize(x: Perm, left_gens: GenSet, right_gens: GenSet) -> tuple[Perm, Perm, Perm]:
    """Split x as (left part) * (shortest coset member) * (right part).

    The three factors are unique once the left part is required to have
    every linking index as an ascent, and lengths add up.
    """
    degree = len(x)
    left_gens = check_genset(left_gens, degree)
    right_gens = check_genset(right_gens, degree)
    w, _ = coset_of(x, left_gens, right_gens)
    linking = linking_genset(w, left_gens, right_gens)
    w_inv = inverse(w)
    for u in sorted(parabolic_elements(degree, left_gens), key=lambda p: (length(p), p)):
        # Dropping a linking descent of u would shorten the triple, so
        # the canonical factorization forbids them.
        if not linking <= right_ascents(u):
            continue
        v = compose(w_inv, compose(inverse(u), x))
        if v not in parabolic_elements(degree, right_gens):
            continue
        if length(u) + length(w) + length(v) == length(x):
            return u, w, v
    raise AssertionError(f"no factorization found for {x}; this is a bug")
