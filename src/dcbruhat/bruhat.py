"""
Strong (Bruhat) order on the symmetric group.

The comparison comes in two forms: the sorted-prefix test ``leq`` on
one-line words, and a lifting-property check that walks one reduced
word, kept as an independent oracle.  ``covers`` and ``interval`` build
the combinatorial structure on top of the comparison.
"""
from __future__ import annotations

import bisect
import math

from .poset import FinitePoset
from .symgroup import (
    DEFAULT_DEGREE_CAP,
    CapExceeded,
    Perm,
    identity,
    length,
    mult_right,
    right_descents,
)

#: Largest Coxeter length the subword oracle will walk.
DEFAULT_WORD_CAP = 28

#: Most products an interval's growth may hold: the whole group at the
#: default degree cap.  Only products that can still reach the bottom's
#: length count, and each letter at most doubles them.
INTERVAL_CAP = math.factorial(DEFAULT_DEGREE_CAP)

#: Most members an interval's poset may hold.  Its reachability masks
#: take members² bits, which ``weights.ORBIT_MEMBER_CAP`` bounds at 7!
#: for the same masks; the whole group at degree 8 would take 614 MiB.
_MEMBER_CAP = math.factorial(7)


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


def leq_subword_oracle(u: Perm, v: Perm, max_length: int = DEFAULT_WORD_CAP) -> bool:
    """Comparison by the lifting property, for cross-checking ``leq``.

    Walks one reduced word of v from the right, clearing each letter from
    u when it is a right descent of u: u <= v iff u ends as the identity
    (Bjorner-Brenti, Prop. 2.2.7).
    """
    if len(u) != len(v):
        raise ValueError(f"degree mismatch: {len(u)} vs {len(v)}")
    if length(v) > max_length:
        raise CapExceeded(
            f"length {length(v)} exceeds the subword oracle cap {max_length}"
        )
    for i in reversed(reduced_word(v)):
        if u[i - 1] > u[i]:
            u = mult_right(u, i)
    return u == identity(len(u))


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
    the group covers restricted to the member set.  An interval of more
    than ``_MEMBER_CAP`` members is refused before its poset is built.
    """
    if not leq(u, v):
        raise ValueError(f"{u} is not below {v}; empty interval")
    # Each member is the product of a reduced subword of v's word, grown
    # letter by letter through ascents; a product that the remaining
    # letters cannot lift to the length of u leads to no member.
    word = reduced_word(v)
    floor = length(u)
    grown = {identity(len(v)): 0}
    for rest, i in zip(range(len(word) - 1, -1, -1), word):
        step = {w: n for w, n in grown.items() if n + rest >= floor}
        for w, n in grown.items():
            if w[i - 1] < w[i] and n + 1 + rest >= floor:
                step[mult_right(w, i)] = n + 1
        grown = step
        if len(grown) > INTERVAL_CAP:
            raise CapExceeded(f"growing the interval passes the interval cap {INTERVAL_CAP}")
    members = {w for w in grown if leq(u, w)}
    if len(members) > _MEMBER_CAP:
        raise CapExceeded(
            f"the interval has {len(members)} members, over the member cap {_MEMBER_CAP}"
        )
    edges = [
        (w, c)
        for w in members
        for c in covers(w)
        if c in members
    ]
    return FinitePoset(sorted(members), edges)
