"""
Strong (Bruhat) order on the symmetric group.

The comparison comes in two forms: the sorted-prefix test ``leq`` on
one-line words, and a subword-based check that walks a reduced word,
used only as an oracle in tests.  ``covers``
and ``interval`` build the combinatorial structure on top of the
comparison; ``order_tables`` covers the whole group and is an oracle
too.
"""
from __future__ import annotations

import bisect
from functools import lru_cache

from .poset import FinitePoset, _transpose
from .symgroup import (
    CapExceeded,
    Perm,
    all_permutations,
    length,
    mult_right,
    right_descents,
)

#: Largest Coxeter length the subword oracle will walk.
DEFAULT_WORD_CAP = 28


def leq(u: Perm, v: Perm) -> bool:
    """Whether u is below v in strong order.

    Prefix test: u <= v iff for every k the sorted first k values of u
    are entrywise at most the sorted first k values of v.

    >>> leq((1, 3, 2), (3, 1, 2))
    True
    >>> leq((2, 1, 3), (1, 3, 2))
    False
    """
    if len(u) != len(v):
        raise ValueError(f"degree mismatch: {len(u)} vs {len(v)}")
    if u == v:
        return True
    us: list[int] = []
    vs: list[int] = []
    for a, b in zip(u, v):
        bisect.insort(us, a)
        bisect.insort(vs, b)
        for x, y in zip(us, vs):
            if x > y:
                return False
    return True


def reduced_word(v: Perm) -> tuple[int, ...]:
    """One reduced word for v, by repeatedly clearing the leftmost descent.

    >>> reduced_word((3, 2, 1))
    (1, 2, 1)
    """
    word: list[int] = []
    w = v
    while True:
        des = right_descents(w)
        if not des:
            break
        i = min(des)
        w = mult_right(w, i)
        word.append(i)
    word.reverse()
    return tuple(word)


@lru_cache(maxsize=1024)
def _lower_interval(v: Perm) -> frozenset[Perm]:
    """Everything below v, grown along one reduced word of v.

    Scanning a reduced word left to right and optionally applying each
    letter reaches exactly the elements of the lower interval; which
    reduced word is used does not matter.
    """
    reach: set[Perm] = {tuple(range(1, len(v) + 1))}
    for i in reduced_word(v):
        extra = set()
        for w in reach:
            wi = mult_right(w, i)
            if wi not in reach:
                extra.add(wi)
        reach |= extra
    return frozenset(reach)


def leq_subword_oracle(u: Perm, v: Perm, max_length: int = DEFAULT_WORD_CAP) -> bool:
    """Slow comparison via the subword property, for cross-checking ``leq``.

    Materializes the lower interval of v, so it refuses to run when v is
    too long for that to be sane.
    """
    if len(u) != len(v):
        raise ValueError(f"degree mismatch: {len(u)} vs {len(v)}")
    if length(v) > max_length:
        raise CapExceeded(
            f"length {length(v)} exceeds the subword oracle cap {max_length}"
        )
    return u in _lower_interval(v)


def _transposition_covers(v: Perm) -> frozenset[Perm]:
    """Covers in the full group: one inversion more, nothing in between.

    Exchanging positions a < b with v_a < v_b is a cover exactly when no
    position between them holds a value between v_a and v_b.
    """
    m = len(v)
    out = set()
    for a in range(m):
        for b in range(a + 1, m):
            if v[a] >= v[b]:
                continue
            if any(v[a] < v[c] < v[b] for c in range(a + 1, b)):
                continue
            w = list(v)
            w[a], w[b] = w[b], w[a]
            out.add(tuple(w))
    return frozenset(out)


def covers(v: Perm, universe: frozenset[Perm] | None = None) -> frozenset[Perm]:
    """Elements covering v, in the group or in an induced subposet.

    Without ``universe``: all w with one more inversion and nothing in
    between (the transposition covers).  With ``universe``: the cover
    relation of the subposet induced on it, which is NOT the restriction
    of the group covers; inside a sparse subset a cover can jump length
    by more than one.
    """
    if universe is None:
        return _transposition_covers(v)
    if v not in universe:
        raise ValueError(f"{v} is not in the given universe")
    return frozenset(FinitePoset.from_relation(universe, leq).upper_covers(v))


def interval(u: Perm, v: Perm) -> FinitePoset:
    """The poset on {w : u <= w <= v} with its cover relation.

    An interval is order-convex, so anything strictly between two of its
    members is itself a member; the induced covers are therefore exactly
    the group covers restricted to the member set.
    """
    if not leq(u, v):
        raise ValueError(f"{u} is not below {v}; empty interval")
    members = {w for w in _lower_interval(v) if leq(u, w)}
    edges = [
        (w, c)
        for w in members
        for c in _transposition_covers(w)
        if c in members
    ]
    return FinitePoset(sorted(members), edges)


@lru_cache(maxsize=8)
def order_tables(degree: int) -> tuple[tuple[Perm, ...], dict[Perm, int], list[int], list[int]]:
    """Dense comparability tables for a whole symmetric group.

    Returns ``(elements, index, up, down)``: elements in lexicographic
    order, their index lookup, and per-element bitmasks of everything
    weakly above resp. weakly below, read off the group's
    ``FinitePoset``.  Factorial in size, so it is kept as an oracle for
    ``check_interval_property`` and the tests.
    """
    elements = tuple(all_permutations(degree))
    group = FinitePoset(elements, ((w, c) for w in elements for c in covers(w)))
    return elements, group._index, group._up, _transpose(group._up)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
