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
by their tables read column by column, which is the order of their
longest members, and finds each table's covers among its 2x2 moves;
``spherical.verify_case`` calls the same engine, and every other
reader of the cosets reads ``decompose``'s records.  ``coset_of`` and
``factorize`` answer for one coset from the table of one member, and
``parabolic_elements`` lists a subgroup block by block.
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
    check_word,
    compose,
    format_genset,
    format_perm,
    inverse,
    json_text,
)


def parabolic_elements(degree: int, gens: GenSet) -> frozenset[Perm]:
    """All elements of the subgroup generated by the given simple indices.

    The subgroup is the product of the symmetric groups on its blocks;
    its order is checked against ``COSET_CAP`` before anything is listed.
    """
    sizes = _blocks(degree, check_genset(gens, degree))
    order = _factorial_product(sizes)
    if order > COSET_CAP:
        raise CapExceeded(
            f"degree {degree} with this genset has a subgroup of {order} elements, "
            f"over the enumeration cap {COSET_CAP}"
        )
    starts = itertools.accumulate(sizes, initial=1)
    blocks = [itertools.permutations(range(s, s + k)) for s, k in zip(starts, sizes)]
    return frozenset(sum(pieces, ()) for pieces in itertools.product(*blocks))


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


def _column_read(table) -> tuple[int, ...]:
    """The table's cells read column by column, each column from the bottom row up."""
    return sum(zip(*table[::-1]), ())


def _read_longest(rows: tuple[int, ...], flat: tuple[int, ...]) -> Perm:
    """The longest member of the coset whose table reads ``flat`` by ``_column_read``.

    Cell (a, b) of the table counts the positions of right block b that
    hold values of left block a.  The longest member hands each left
    block's values out in decreasing order, to the right blocks from
    left to right, and lists each right block decreasing: it visits the
    cells in the column-read order, each column from the bottom row up.
    """
    high = list(itertools.accumulate(rows))
    longest: list[int] = []
    for a, m in zip(itertools.cycle(range(len(rows) - 1, -1, -1)), flat):
        if m:
            h = high[a]
            longest += range(h, h - m, -1)
            high[a] = h - m
    return tuple(longest)


def _longest_member(rows: tuple[int, ...], table) -> Perm:
    """The longest member of one table's coset."""
    return _read_longest(rows, _column_read(table))


def _shortest_member(rows: tuple[int, ...], table) -> Perm:
    """The shortest member of one table's coset.

    It hands each left block's values out in increasing order, to the
    right blocks from left to right, and lists each right block
    increasing.
    """
    low = list(itertools.accumulate(rows, initial=1))
    shortest: list[int] = []
    for column in zip(*table):
        for a, m in enumerate(column):
            shortest.extend(range(low[a], low[a] + m))
            low[a] += m
    return tuple(shortest)


def _coset_entry(rows: tuple[int, ...], table, group_order: int, longest: Perm) -> CosetEntry:
    """One table's coset, of size |W_I| |W_J| over the product of its cells' factorials."""
    stabilizer = math.prod(math.factorial(m) for row in table for m in row)
    return CosetEntry(_shortest_member(rows, table), longest, group_order // stabilizer)


def _block_of(sizes: tuple[int, ...]) -> list[int]:
    """The block index of each symbol 1, 2, ..., in order."""
    return [a for a, size in enumerate(sizes) for _ in range(size)]


def _table_of(rows: tuple[int, ...], cols: tuple[int, ...], w: Perm):
    """The contingency table of w's coset, counting values of block a at positions of block b."""
    row_of = _block_of(rows)
    table = [[0] * len(cols) for _ in rows]
    for value, b in zip(w, _block_of(cols)):
        table[row_of[value - 1]][b] += 1
    return tuple(map(tuple, table))


def _fill_bound(sums: tuple[int, ...], parts: int, cap: int) -> int:
    """An upper bound on the tables: the ways to fill all lines but the last.

    Each of the lines with the given sums, but the last, splits its sum
    into ``parts`` cells, in C(sum + parts - 1, parts - 1) ways, and the
    other margin forces the last line.  Read with rows as the lines and
    then with columns, this is far below ``coset_bound`` when one margin
    has few long blocks.  The product stops once it passes ``cap``.

    >>> _fill_bound((8, 10), 3, 10**6), _fill_bound((1, 4, 13), 2, 10**6)
    (45, 10)
    """
    bound = 1
    for total in sums[:-1]:
        bound *= math.comb(total + parts - 1, parts - 1)
        if bound > cap:
            break
    return bound


def _margins(
    degree: int, left_gens: GenSet, right_gens: GenSet
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row and column sums of the pair's tables, refusing up front past the cap.

    The left genset's blocks of values give the row sums and the right
    genset's blocks of positions the column sums; both gensets must
    already have passed ``check_genset``.  The call refuses when
    ``coset_bound`` exceeds ``COSET_CAP`` and so do both bounds of
    ``_fill_bound``; the message names ``coset_bound``.  No pair has
    more cosets than the group has members, so when degree! is within
    the cap the bounds are skipped.
    """
    if degree < 1:
        raise ValueError(f"degree must be at least 1, got {degree}")
    rows, cols = _blocks(degree, left_gens), _blocks(degree, right_gens)
    if math.factorial(degree) <= COSET_CAP:
        return rows, cols
    bound = _bound(degree, rows, cols)
    if (
        bound > COSET_CAP
        and _fill_bound(rows, len(cols), COSET_CAP) > COSET_CAP
        and _fill_bound(cols, len(rows), COSET_CAP) > COSET_CAP
    ):
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
    """The 2x2 moves on tables of one shape, flattened as ``_column_read`` reads them.

    Cell (a, b) sits at b * height + height - 1 - a, and entry p lists
    the moves that take one unit from p = (a, b).  A move (q, r, s,
    between) also takes one from q = (c, d), with a < c and b < d, adds
    one to r = (a, d) and s = (c, b), and lists the rectangle's cells
    other than its corners.
    """

    def at(a: int, b: int) -> int:
        return b * height + height - 1 - a

    moves = [[] for _ in range(height * width)]
    for a, c in itertools.combinations(range(height), 2):
        for b, d in itertools.combinations(range(width), 2):
            cells = itertools.product(range(a, c + 1), range(b, d + 1))
            between = tuple(at(x, y) for x, y in cells if x not in (a, c) or y not in (b, d))
            moves[at(a, b)].append((at(c, d), at(a, d), at(c, b), between))
    return tuple(map(tuple, moves))


def _sorted_cosets(rows: tuple[int, ...], cols: tuple[int, ...]):
    """The cosets of one margin pair by index: (flats, tables, cover_masks).

    Each table is read into its column-read flat, and the cosets are
    sorted by their flats, which is the order of their longest members:
    two longest members first differ where their flats first differ,
    and the larger count puts there a value of left block a where the
    other member, whose column must make up the count from the rows
    above, puts a value of a lower block.  The covers are found on the
    flats by the moves of ``_moves``; no member is built.
    """
    cosets = sorted((_column_read(t), t) for t in _tables(rows, cols))
    moves = _moves(len(rows), len(cols))
    flats, tables = zip(*cosets)
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
    return flats, tables, tuple(covers)


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
    covers are read off that table alone.  ``_sorted_cosets`` orders the
    cosets by their tables read column by column, which is the order of
    their longest members, so the longest members are built after the
    sort, and only they; ``entries`` adds the shortest members and sizes
    when read.

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
    flats, tables, covers = _sorted_cosets(rows, cols)
    max_reps = tuple(_read_longest(rows, flat) for flat in flats)
    return DoubleCosetTable(degree, left_gens, right_gens, max_reps, tables, covers)


def coset_of(w: Perm, left_gens: GenSet, right_gens: GenSet) -> tuple[Perm, Perm]:
    """The shortest and longest members of the double coset of w, from its table.

    At degree 8 with the full left genset the coset is the whole group:

    >>> coset_of((5, 3, 8, 1, 7, 2, 6, 4), frozenset(range(1, 8)), frozenset({1, 2, 4, 5, 6}))
    ((1, 2, 3, 4, 5, 6, 7, 8), (8, 7, 6, 5, 4, 3, 2, 1))
    """
    degree = len(check_word(w))
    rows = _blocks(degree, check_genset(left_gens, degree))
    table = _table_of(rows, _blocks(degree, check_genset(right_gens, degree)), w)
    return _shortest_member(rows, table), _longest_member(rows, table)


def factorize(x: Perm, left_gens: GenSet, right_gens: GenSet) -> tuple[Perm, Perm, Perm]:
    """Split x as u * w * v: left part, shortest coset member, right part.

    The factors are unique once lengths add up and u has an ascent at
    every linking index, every left index i whose values i and i+1 sit
    side by side in w inside one right block.  Sorting each right block
    of x gives y, the shortest member of x W_J; then u = y w^-1, which
    keeps the order of values that share a right block, and v = y^-1 x.

    >>> factorize((5, 3, 8, 1, 7, 2, 6, 4), frozenset(range(1, 8)), frozenset({1, 2, 4, 5, 6}))
    ((3, 5, 8, 1, 2, 6, 7, 4), (1, 2, 3, 4, 5, 6, 7, 8), (2, 1, 3, 4, 7, 5, 6, 8))
    """
    degree = len(check_word(x))
    rows = _blocks(degree, check_genset(left_gens, degree))
    cols = _blocks(degree, check_genset(right_gens, degree))
    y = tuple(value for _, value in sorted(zip(_block_of(cols), x)))
    w = _shortest_member(rows, _table_of(rows, cols, x))
    return compose(y, inverse(w)), w, compose(inverse(y), x)
