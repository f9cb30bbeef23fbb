"""
Strong (Bruhat) order on the symmetric group.

The comparison comes in two forms: the sorted-prefix test ``leq`` on
one-line words, and a subword-based check that walks a reduced word,
used only as an oracle in tests.  ``covers`` and ``interval`` build the
combinatorial structure on top of the comparison.
"""
from __future__ import annotations

import bisect
import math
from functools import lru_cache

from .poset import FinitePoset
from .symgroup import (
    DEFAULT_DEGREE_CAP,
    CapExceeded,
    Perm,
    length,
    mult_right,
    right_descents,
)

#: Largest Coxeter length the subword oracle will walk.
DEFAULT_WORD_CAP = 28

#: Most elements a lower interval may grow to: the whole group at the
#: default degree cap.  Each letter of the reduced word at most doubles
#: the set, so the work stays under twice this many elements.
INTERVAL_CAP = math.factorial(DEFAULT_DEGREE_CAP)


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
    reduced word is used does not matter.  The growth stops with
    ``CapExceeded`` as soon as the set passes ``INTERVAL_CAP``.
    """
    word = reduced_word(v)
    reach: set[Perm] = {tuple(range(1, len(v) + 1))}
    for i in word:
        extra = set()
        for w in reach:
            wi = mult_right(w, i)
            if wi not in reach:
                extra.add(wi)
        reach |= extra
        if len(reach) > INTERVAL_CAP:
            raise CapExceeded(
                f"the lower interval of a length-{len(word)} element passes "
                f"the interval cap {INTERVAL_CAP}"
            )
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


def covers(v: Perm) -> frozenset[Perm]:
    """Elements covering v in the group: one inversion more, nothing in between.

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
        for c in covers(w)
        if c in members
    ]
    return FinitePoset(sorted(members), edges)
