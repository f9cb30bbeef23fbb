"""
Orbits of weight vectors under coordinate permutation, the step order on
an orbit, and the comparison against dominance.

A weight is a tuple of exact rationals whose length is the degree; the
group acts by moving the entry in position i to position w(i).  Starting
from a weakly decreasing ("dominant") vector theta, swapping any two
entries that sit in strictly descending order is one upward step; the
transitive closure is the orbit order, with theta its unique minimum.
Dominance runs the other way: higher in the step order means dominated.

The ``restriction`` variant keeps only orbit members that are sorted
along a given genset, and only steps whose result stays inside.

``is_tight`` asks whether the step order is exactly inverse dominance on
the orbit; ``tight_scan`` sweeps all staircase shapes for one degree and
compares against the closed-form rule.

The step order is Bruhat order on a parabolic quotient, so it has the
sorted-prefix test of ``bruhat.leq``, and dominance is a test on prefix
sums; both read only the class of each prefix, its entries as a
multiset.  ``step_leq`` applies the first test to two weights.
``is_tight`` walks one member from theta down without listing the orbit,
carries the prefix classes the other member can have as bitmasks over
the sub-multisets of theta's entries, and stops at the first
disagreement.  Neither builds the orbit's reachability; ``orbit_poset``
builds it, with the covers.

Internally an orbit runs on the ranks of theta's entries among its
distinct values, which keep the member order, the step order and the
restriction; the values come back only for prefix sums and for what the
public functions return.

``fractions`` (which loads ``decimal`` and ``numbers``) is imported
inside the two functions that build a ``Fraction``: ``check_weight``,
which ``parse_weight`` calls, and ``dominant_shape``.  So importing this
module, as every CLI start does, does not load it.  The orbit command
pays for it; the tightness command does not, since ``tight_scan`` works
on int staircases throughout.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from collections import namedtuple
from typing import TYPE_CHECKING, Iterable, Sequence

from . import bruhat
from .parabolic import COSET_CAP, coset_bound
from .poset import FinitePoset
from .symgroup import (
    CapExceeded,
    GenSet,
    Perm,
    check_genset,
    format_genset,
    json_text,
)

if TYPE_CHECKING:
    from fractions import Fraction

Weight = tuple["Fraction", ...]


def check_weight(values: Sequence) -> Weight:
    from fractions import Fraction

    if not values:
        raise ValueError("empty weight")
    # Text whose exponent reaches the digits the interpreter prints would
    # take minutes to build, and its value could not be printed.  Before
    # Python 3.10.7 there is no such limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for x in values:
        e = x.lower().partition("e")[2].strip() if isinstance(x, str) else ""
        if limit and e.lstrip("+-").replace("_", "").isdigit() and abs(int(e)) >= limit:
            raise ValueError(f"exponent of {x!r} reaches the {limit}-digit limit")
    return tuple(Fraction(x) for x in values)


def check_dominant(values: Sequence) -> Weight:
    """Validate a weakly decreasing weight.

    >>> check_dominant([2, 1, 1, 0])
    (Fraction(2, 1), Fraction(1, 1), Fraction(1, 1), Fraction(0, 1))
    """
    theta = check_weight(values)
    if any(a < b for a, b in zip(theta, theta[1:])):
        raise ValueError(f"weight is not weakly decreasing: {format_weight(theta)}")
    return theta


def parse_weight(text: str) -> Weight:
    """
    >>> parse_weight("2,1,1,0")
    (Fraction(2, 1), Fraction(1, 1), Fraction(1, 1), Fraction(0, 1))
    """
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(not p for p in parts):
        raise ValueError(f"bad weight text: {text!r}")
    try:
        return check_weight(parts)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad weight text: {text!r}") from None


def format_weight(mu: Weight) -> str:
    return ",".join(str(x) for x in mu)


def apply_perm(w: Perm, mu: Weight) -> Weight:
    """The entry at position i moves to position w(i).

    >>> apply_perm((2, 3, 1), check_weight([5, 0, 7]))
    (Fraction(7, 1), Fraction(5, 1), Fraction(0, 1))
    """
    if len(w) != len(mu):
        raise ValueError(f"degree mismatch: {len(w)} vs {len(mu)}")
    out = [mu[0]] * len(mu)
    for i, x in enumerate(mu):
        out[w[i] - 1] = x
    return tuple(out)


def stabilizer_genset(theta: Sequence) -> GenSet:
    """Simple indices fixing a dominant weight: adjacent equal entries.

    >>> sorted(stabilizer_genset(check_dominant([1, 0, 0, 0])))
    [2, 3]
    """
    return _stabilizer(check_dominant(theta))


def _stabilizer(t: Sequence) -> GenSet:
    """``stabilizer_genset`` of a weight already checked to be dominant."""
    return frozenset(i for i in range(1, len(t)) if t[i - 1] == t[i])


def _rearrangements(values: Sequence, gens: Iterable[int] = ()) -> list[tuple]:
    """Distinct rearrangements of values, in increasing lexicographic order.

    Only those weakly decreasing across every index in the genset are
    kept.  Both rules prune the growing prefix, so the work follows the
    number of results rather than m!.  At a tied position a value is
    skipped unless enough values at or below it are left for the rest
    of the tied block, so no prefix dead-ends inside a block.

    >>> _rearrangements((1, 0, 0))
    [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    >>> _rearrangements((1, 0, 0), {1})
    [(0, 0, 1), (1, 0, 0)]
    """
    distinct = sorted(set(values))
    counts = [0] * len(distinct)
    for x in values:
        counts[distinct.index(x)] += 1
    gens = set(gens)
    # rest[pos]: at a position tied to the one before, how many positions
    # after it its tied block still holds; -1 at an untied position
    rest = [-1] * (len(values) + 1)
    for pos in range(len(values) - 1, 0, -1):
        if pos in gens:
            rest[pos] = rest[pos + 1] + 1
    every = range(len(distinct))
    out: list[tuple] = []
    prefix: list = []

    def extend(pos: int, last: int) -> None:
        if pos == len(values):
            out.append(tuple(prefix))
            return
        after = rest[pos]
        if after < 0:
            ks = every
        else:  # from the lowest value with enough left at or below it
            low, below = 0, counts[0]
            while below <= after:
                low += 1
                below += counts[low]
            ks = range(low, last + 1)
        for k in ks:
            if counts[k]:
                counts[k] -= 1
                prefix.append(distinct[k])
                extend(pos + 1, k)
                prefix.pop()
                counts[k] += 1

    extend(0, len(distinct) - 1)
    return out


def orbit(theta: Sequence) -> frozenset[Weight]:
    """All distinct rearrangements, refused up front beyond ``COSET_CAP`` of them."""
    t = check_weight(theta)
    size = _multinomial(t)
    if size > COSET_CAP:
        raise CapExceeded(f"an orbit of {size} members exceeds the listing cap {COSET_CAP}")
    return frozenset(_rearrangements(t))


def orbit_size(theta: Sequence) -> int:
    """Number of distinct rearrangements: a multinomial coefficient.

    >>> orbit_size([2, 1, 1, 0])
    12
    """
    return _multinomial(check_weight(theta))


def _multinomial(t: tuple) -> int:
    return math.factorial(len(t)) // math.prod(math.factorial(t.count(x)) for x in set(t))


def respects(mu: Weight, gens: Iterable[int]) -> bool:
    """Whether mu is weakly decreasing across every index in the genset."""
    return all(mu[i - 1] >= mu[i] for i in gens)


def dominant_shape(degree: int, jc: Iterable[int]) -> Weight:
    """The staircase whose entry i counts the given indices at or beyond i.

    Weakly decreasing, with descents exactly at the given indices, so
    its stabilizer genset is their complement.

    >>> [int(x) for x in dominant_shape(6, [2, 4])]
    [2, 2, 1, 1, 0, 0]
    """
    from fractions import Fraction

    return tuple(Fraction(x) for x in _staircase(degree, jc))


def _staircase(degree: int, jc: Iterable[int]) -> tuple[int, ...]:
    """``dominant_shape`` as an int tuple."""
    jcs = set(jc)
    if not all(1 <= j <= degree - 1 for j in jcs):
        raise ValueError(f"indices {sorted(jcs)!r} out of range for degree {degree}")
    return tuple(sum(1 for j in jcs if j >= i) for i in range(1, degree + 1))


#: The most members ``orbit_poset`` may build.  Its reachability masks
#: take members² bits; 7! members, the generic orbit at degree 7, take
#: about 0.3 s to build and 0.7 s and 49 MiB peak to print as JSON from
#: the command line (2 cores, Python 3.11), while 8! would need
#: gigabytes.  ``is_tight`` and ``tight_scan`` build no such masks and
#: answer to ``TIGHT_BIT_CAP``.
ORBIT_MEMBER_CAP = math.factorial(7)


def _ranked(t: Sequence) -> tuple[list, tuple[int, ...]]:
    """The distinct values of t in increasing order, and each entry's rank among them.

    >>> _ranked((5, 2, 2, -1))
    ([-1, 2, 5], (2, 1, 1, 0))
    """
    values = sorted(set(t))
    rank = {v: x for x, v in enumerate(values)}
    return values, tuple(rank[v] for v in t)


def step_leq(nu: Weight, mu: Weight, restriction: GenSet | None = None) -> bool:
    """Whether mu is reachable upward from nu (nu below mu in the orbit order).

    The step order is Bruhat order on a parabolic quotient, so it has
    the tableau criterion of ``bruhat.leq`` (Björner–Brenti, Combinatorics
    of Coxeter Groups, Thm 2.6.3): mu is above nu iff for every k the
    sorted first k entries of mu are entrywise at most those of nu.  On
    a restricted orbit the step order is the induced one, so both weights
    need only respect the restriction.  No orbit is built.
    """
    if len(nu) != len(mu):
        raise ValueError(f"degree mismatch: {len(nu)} vs {len(mu)}")
    nu, mu = check_weight(nu), check_weight(mu)
    if sorted(nu) != sorted(mu):
        return False
    if restriction is not None:
        gens = check_genset(restriction, len(mu))
        if not (respects(nu, gens) and respects(mu, gens)):
            return False
    return bruhat.leq(mu, nu)


def dominance_leq(nu: Weight, mu: Weight) -> bool:
    """Prefix-sum comparison: every prefix of mu - nu is nonnegative.

    Only defined within one ambient space and total, hence the equal-sum
    requirement.

    >>> a = check_weight([2, 0]); b = check_weight([1, 1])
    >>> dominance_leq(b, a), dominance_leq(a, b)
    (True, False)
    """
    if len(nu) != len(mu):
        raise ValueError(f"degree mismatch: {len(nu)} vs {len(mu)}")
    if sum(nu) != sum(mu):
        raise ValueError(f"coordinate sums differ: {sum(nu)} vs {sum(mu)}")
    run = 0
    for a, b in zip(mu, nu):
        run += a - b
        if run < 0:
            return False
    return True


class OrbitPoset(namedtuple("OrbitPoset", "theta restriction members poset")):
    """A (restricted) weight orbit together with its step order.

    Fields: ``theta: Weight``, ``restriction: GenSet | None``,
    ``members: tuple[Weight, ...]`` and ``poset: FinitePoset``.
    """

    __slots__ = ()


def orbit_poset(theta: Sequence, restriction: GenSet | None = None) -> OrbitPoset:
    """Build the step order on the (restricted) orbit of a dominant weight.

    The members are built on ranks in increasing lexicographic order, so
    theta comes last, with two masks per member: bit j of ``covers[i]``
    says member j covers member i, and bit j of ``up[i]`` that member j
    is reachable from member i by steps staying inside the member set.
    A step strictly drops in the lexicographic order, so in one forward
    pass a member's step targets all come before it.  Every cover is one
    step, and a target is a cover when it lies above no other target.
    The member count is at most the number of double cosets of the
    restriction and the stabilizer of theta, so the call refuses up
    front when ``coset_bound`` exceeds ``ORBIT_MEMBER_CAP``.
    """
    t = check_dominant(theta)
    gens = None if restriction is None else check_genset(restriction, len(t))
    bound = coset_bound(len(t), gens or frozenset(), _stabilizer(t))
    if bound > ORBIT_MEMBER_CAP:
        raise CapExceeded(
            f"an orbit of up to {bound} members exceeds the member cap {ORBIT_MEMBER_CAP}"
        )
    values, ranks = _ranked(t)
    members = _rearrangements(ranks, gens or ())
    index = {mu: i for i, mu in enumerate(members)}
    pairs = list(itertools.combinations(range(len(t)), 2))
    covers: list[int] = []
    up: list[int] = []
    for mu in members:
        targets = above = 0
        for a, b in pairs:
            if mu[a] > mu[b]:
                nu = list(mu)
                nu[a], nu[b] = nu[b], nu[a]
                j = index.get(tuple(nu))
                if j is not None:
                    bit = 1 << j
                    targets |= bit
                    above |= up[j] ^ bit
        covers.append(targets & ~above)
        up.append(targets | above | 1 << len(up))
    elements = [tuple(values[x] for x in mu) for mu in members]
    return OrbitPoset(t, gens, tuple(reversed(elements)), FinitePoset.from_cover_masks(elements, covers))


def is_tight(theta: Sequence, restriction: GenSet | None = None) -> tuple[bool, tuple[Weight, Weight] | None]:
    """Does the step order equal inverse dominance on this orbit?

    Climbing a step always moves down in dominance; that direction is a
    standing invariant, not a tightness question, so its failure is an
    internal error.  The converse can genuinely fail; the first pair
    (mu, nu) with nu dominated by mu yet mu not below nu in the step
    order is returned as the witness, scanning mu and then nu from
    theta downward in the lexicographic order.  The call refuses up
    front when its masks could exceed ``TIGHT_BIT_CAP``.
    """
    t = check_dominant(theta)
    gens = None if restriction is None else check_genset(restriction, len(t))
    _check_tight_bits(t, gens)
    witness = _tight_witness(t, gens)
    return witness is None, witness


#: The most mask bits ``is_tight`` may take, counted as classes of sorted
#: prefixes × members: its walk visits at most degree × members prefixes.
#: The whole group at degree 8 takes 254 classes × 8! members, about
#: 10.2M bits, and ``tight_scan(8, cap=8)`` about 0.04 s; degree 9 would
#: take 510 × 9!, about 185M bits, and ``tight_scan(9, cap=9)`` about
#: 0.1 s and 15 MiB with the cap lifted (2 cores, Python 3.11).  With d
#: distinct entries there are at least 2^d - 2 classes, so fewer than 25
#: distinct entries pass.
#:
#: The count does not bound the walk's memory.  Its masks have one bit
#: per sub-multiset of theta's entries, all of them, and it keeps a few
#: per rank and per class of the members' prefixes, so an orbit with
#: few members and many sub-multisets pays for the whole box: with 22,
#: 23 and 24 distinct entries tied into one member, ``is_tight`` peaks
#: at about 100, 190 and 390 MiB; with one value n times, at about 2n²
#: bits (260 MiB peak at n = 30000).
TIGHT_BIT_CAP = 1 << 24


def _check_tight_bits(t: tuple, gens: GenSet | None) -> None:
    """Refuse an orbit whose prefix-class masks could exceed ``TIGHT_BIT_CAP``.

    Before any member is built: the members are at most the double cosets
    of the restriction and theta's stabilizer, and the classes of prefixes
    of lengths 1 to d - 1 at most the sub-multisets of theta's entries
    other than the empty and the full one.
    """
    members = coset_bound(len(t), gens or frozenset(), _stabilizer(t))
    classes = math.prod(t.count(x) + 1 for x in set(t)) - 2
    if classes * members > TIGHT_BIT_CAP:
        raise CapExceeded(
            f"an orbit of up to {members} members in {classes} prefix classes exceeds "
            f"the member cap of is_tight: {classes * members} mask bits, cap {TIGHT_BIT_CAP}"
        )


def _tile(pattern: int, period: int, copies: int) -> int:
    """The given number of copies of a bit pattern, one every ``period`` bits.

    >>> bin(_tile(0b01, 2, 3))
    '0b10101'
    """
    out = shift = 0
    while copies:
        if copies & 1:
            out |= pattern << shift
            shift += period
        pattern |= pattern << period
        period *= 2
        copies >>= 1
    return out


def _dominance_tables(scaled: list[int], count: list[int], weight: list[int], need: list[int]) -> list[dict[int, int]]:
    """Per prefix length k, from each sum to the classes of members' k-prefixes of at most that sum.

    A class is a sub-multiset B of the ranks, kept at bit sum(B[x] *
    weight[x]), and its sum is taken over ``scaled``.  A breadth-first
    pass over prefixes builds the classes, keyed at a position tied to
    the one before by the last rank as well, and keeps a prefix only
    while the ``need[k]`` positions left in its tied block can still take
    ranks at most its last, so a restricted orbit with few members lists
    few classes, however many sub-multisets theta has.
    """
    r, d = len(count), len(need) - 1
    level = {(0, r - 1): 0}  # (class, highest rank next) -> sum
    tables = [{0: 1}]
    for k in range(1, d + 1):
        grown: dict[tuple[int, int], int] = {}
        for (c, top), s in level.items():
            rest = 0  # the entries of rank at most z that the class has still to take
            for z in range(top + 1):
                n = count[z] - c // weight[z] % (count[z] + 1)
                rest += n
                if not n or rest <= need[k]:
                    continue
                key = c + weight[z], z if need[k] else r - 1
                if key not in grown:
                    grown[key] = s + scaled[z]
        level = grown
        tables.append(_cumulative((s, 1 << c) for (c, _), s in level.items()))
    return tables


def _cumulative(pairs: Iterable[tuple[int, int]]) -> dict[int, int]:
    """From (key, mask) pairs to each key's OR of the masks of keys at most it."""
    by_key: dict[int, int] = {}
    for key, mask in pairs:
        by_key[key] = by_key.get(key, 0) | mask
    acc = 0
    for key in sorted(by_key):
        acc |= by_key[key]
        by_key[key] = acc
    return by_key


def _tight_witness(t: tuple, gens: GenSet | None) -> tuple[tuple, tuple] | None:
    """``is_tight``'s witness on a dominant weight, or None when tight.

    Member nu is above member mu exactly when, for each prefix length k,
    the sorted k-prefix of nu is entrywise at most that of mu (see
    ``step_leq``), and mu dominates nu exactly when each k-prefix sum of
    nu is at most that of mu.  Both tests read only the classes of the
    two k-prefixes, so each class of mu's prefixes gets two masks of
    classes, the second nested in the first.

    mu walks the members depth first from theta down, in decreasing
    lexicographic order, and the orbit is never listed.  Along the walk,
    the classes of nu's k-prefixes are carried as two masks: R, those
    some nu can have while its prefix sums stayed at most mu's at every
    length so far, and T within R, those whose sorted prefix has also
    failed at some length to be entrywise at most mu's.  One position
    shifts both by each rank's weight where a class has room for the
    rank, and ANDs them with the masks of mu's new class.  Where the next
    position is tied to the last, they are kept per last rank.  The first
    mu whose T is nonempty at full length is the witness's mu, and nu is
    the largest member in that T: one greedy pass from the top reads it
    against masks of the prefixes from which such a nu can be completed,
    built backward along mu's classes.

    The members and the classes are built on ranks (see ``_ranked``),
    and the prefix sums and the witness read the values back.
    """
    values, ranks = _ranked(t)
    d, r = len(t), len(values)
    count = [ranks.count(x) for x in range(r)]
    weight = [1]
    for n in count:
        weight.append(weight[-1] * (n + 1))
    box = weight[-1]
    # steps[x]: the classes with fewer entries of rank x than theta, twice
    # (R and T travel as one int, T above R, so one shift serves both),
    # and the weight of rank x
    steps = []
    for n, w, p in zip(count, weight, weight[1:]):
        room = _tile((1 << n * w) - 1, p, box // p)
        steps.append((room | room << box, w))
    # need[k]: when position k is tied to the one before, the positions
    # from k to the end of its tied block; 0 otherwise
    need = [0] * (d + 1)
    for k in range(d - 1, 0, -1):
        if gens and k in gens:
            need[k] = need[k + 1] + 1
    # the values on a common integer scale, for the prefix sums
    scale = math.lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (scale // v.denominator) for v in values]
    tables = _dominance_tables(scaled, count, weight, need)
    # every[k]: the classes of members' k-prefixes
    every = [functools.reduce(operator.or_, table.values(), 0) for table in tables]

    def settle(g, dom, fail):
        """R and T shifted to length k + 1, cut down by mu's new class.

        R keeps what the class dominates; T keeps that too, and gains
        the classes of R not below the class in the step order.
        """
        R = g & dom
        return R | (g >> box & dom | R & fail) << box

    # class of mu's prefix -> the classes it dominates, those of them not
    # below it in the step order, and the classes below it in the step order
    full = box - 1
    masks = {0: (1, 0, 1), full: (1 << full, 0, 1 << full)}
    # An untied last position only adds the one rank left, which every
    # class of (d - 1)-prefixes has room for, so T is settled a length early.
    stop = d if need[d - 1] else d - 1
    mu = [0] * d
    left = count.copy()  # the ranks mu has still to place
    at = [0] * (d + 1)  # the class of mu's k-prefix
    sums = [0] * (d + 1)  # and its sum
    state: list = [1] * (d + 1)  # nu's masks at length k
    nxt = [r - 1] * (d + 1)  # the next rank mu tries at position k
    k = 0
    while k >= 0:
        z = nxt[k]
        while z >= 0 and (not left[z] or need[k + 1] and sum(left[: z + 1]) <= need[k + 1]):
            z -= 1
        if z < 0:
            k -= 1
            if k >= 0:
                left[mu[k]] += 1
            continue
        nxt[k] = z - 1
        mu[k] = z
        left[z] -= 1
        c = at[k + 1] = at[k] + weight[z]
        s = sums[k + 1] = sums[k] + scaled[z]
        if c not in masks:
            # The sorted classes at most mu's after rank z are those at
            # most mu's before it, with one rank at most z added.
            below = masks[at[k]][2]
            up = 0
            for h, w in steps[: z + 1]:
                up |= (below & h) << w
            dom = tables[k + 1][s]
            if up & every[k + 1] & ~dom:
                raise RuntimeError(
                    f"step order escaped dominance below {[values[x] for x in mu[: k + 1]]}; this is a bug"
                )
            masks[c] = dom, dom & ~up, up
        dom, fail, _ = masks[c]
        RT = state[k]
        if need[k]:  # the next rank is at most the last: OR the masks from the top rank down
            RT = list(itertools.accumulate(RT[::-1], operator.or_))[::-1]
            grown = [(RT[x] & h) << w for x, (h, w) in enumerate(steps)]
        else:
            grown = [(RT & h) << w for h, w in steps]
        if need[k + 1]:  # kept per last rank
            state[k + 1] = [settle(g, dom, fail) for g in grown]
        else:
            state[k + 1] = settle(functools.reduce(operator.or_, grown), dom, fail)
        if k + 1 < stop:
            k += 1
            nxt[k] = z if need[k] else r - 1
        elif state[stop] >> box:
            break
        else:
            left[z] += 1
    else:
        return None
    if stop < d:
        mu[-1] = left.index(1)
        at[d] = full

    nu = _largest_nu([masks[at[j]][:2] for j in range(1, d + 1)], need, count, steps)
    return tuple(values[x] for x in mu), tuple(values[x] for x in nu)


def _largest_nu(along: list[tuple[int, int]], need: list[int], count: list[int], steps: list) -> list[int]:
    """The ranks of the largest nu that mu dominates while nu is not above mu.

    ``along[j - 1]`` holds two masks for the class of mu's j-prefix: the
    classes it dominates, and those of them not below it in the step
    order.  Backward from the full class, ``ok[j][f]`` gets the classes of
    j-prefixes from which nu completes to such a member when it arrives
    with the flag f, set once an earlier prefix failed the step order;
    they are kept per last rank where position j is tied.  One greedy
    pass from the top then takes at each position the largest rank that
    keeps a completion.  ``steps`` pairs each rank's room mask, twice
    as wide as the box (see ``_tight_witness``), with its weight.
    """
    d, r = len(along), len(count)
    full = along[-1][0]
    done = [0, full]  # at full length, by flag
    ok: list = [None] * (d + 1)
    for j in range(d, 0, -1):
        dom, fail = along[j - 1]
        keep = dom & ~fail
        if need[j]:
            ok[j] = [keep & a | fail & b for a, b in zip(*done)], [dom & b for b in done[1]]
        else:
            ok[j] = keep & done[0] | fail & done[1], dom & done[1]
        done = []
        for f in ok[j]:
            back = [h & (f[z] if need[j] else f) >> w for z, (h, w) in enumerate(steps)]
            done.append(list(itertools.accumulate(back, operator.or_)) if need[j - 1] else functools.reduce(operator.or_, back))
    nu: list[int] = []
    c = flag = 0
    have = [0] * r
    for j in range(1, d + 1):
        fits = ok[j][flag]
        top = nu[-1] if need[j - 1] else r - 1
        z = next(
            z for z in range(top, -1, -1)
            if have[z] < count[z] and (fits[z] if need[j] else fits) >> c + steps[z][1] & 1
        )
        c += steps[z][1]
        have[z] += 1
        nu.append(z)
        flag |= along[j - 1][1] >> c & 1
    return nu


def rule_predicts_tight(degree: int, jc: Iterable[int]) -> bool:
    """Closed-form prediction for the staircase of a given descent set.

    Rank at most two is always tight, as are empty, singleton and
    adjacent-pair descent sets.
    """
    jcs = sorted(set(jc))
    if degree <= 3:
        return True
    if len(jcs) <= 1:
        return True
    return len(jcs) == 2 and jcs[1] == jcs[0] + 1


class TightRow(
    namedtuple("TightRow", "j_complement theta orbit_size tight rule_tight witness")
):
    """One staircase of a tightness scan.

    Fields: ``j_complement: tuple[int, ...]``, ``theta: Weight``,
    ``orbit_size: int``, ``tight: bool``, ``rule_tight: bool`` and
    ``witness: tuple[Weight, Weight] | None``.
    """

    __slots__ = ()

    @property
    def match(self) -> bool:
        return self.tight == self.rule_tight


class TightScanReport(namedtuple("TightScanReport", "degree rows")):
    """A tightness scan of one degree.

    Fields: ``degree: int`` and ``rows: tuple[TightRow, ...]``.
    """

    __slots__ = ()

    @property
    def all_match(self) -> bool:
        return all(r.match for r in self.rows)

    def to_json(self) -> str:
        return json_text(
            {
                "degree": self.degree,
                "all_match": self.all_match,
                "rows": [
                    {
                        "J_complement": list(r.j_complement),
                        "theta": format_weight(r.theta),
                        "orbit_size": r.orbit_size,
                        "tight": r.tight,
                        "rule_tight": r.rule_tight,
                        "witness": None
                        if r.witness is None
                        else [format_weight(r.witness[0]), format_weight(r.witness[1])],
                    }
                    for r in self.rows
                ],
            }
        ) + "\n"

    def to_table(self) -> str:
        lines = [
            f"degree {self.degree}  shapes={len(self.rows)}  all_match={self.all_match}",
            "",
            "J-complement    theta           orbit  tight  rule   witness (dominated, unreachable)",
        ]
        for r in self.rows:
            wit = (
                "-"
                if r.witness is None
                else f"{format_weight(r.witness[1])} under {format_weight(r.witness[0])}"
            )
            lines.append(
                f"{format_genset(r.j_complement):<14}  {format_weight(r.theta):<14}  "
                f"{r.orbit_size:>5}  {str(r.tight):<5}  {str(r.rule_tight):<5}  {wit}"
            )
        return "\n".join(lines) + "\n"


def _check_scan_bits(degree: int) -> None:
    """Refuse a degree whose whole group exceeds ``TIGHT_BIT_CAP``, before building a weight.

    The whole group's bound, (2^n - 2)·n!, grows with n, so it is grown
    one degree at a time.  A degree within the cap passes; past it, the
    refusal is ``_check_tight_bits``'s own line on the whole group's
    weight, unless the bound reaches 4300 digits, the interpreter's
    default limit for printing an int, where a line without the numbers
    is given instead.
    """
    bound, factorial, printable = 0, 1, 10**4300
    for n in range(1, degree + 1):
        factorial *= n
        bound = ((1 << n) - 2) * factorial
        if bound >= printable:
            raise CapExceeded(
                f"degree {degree} exceeds the member cap of is_tight: its whole group "
                f"takes over 10^4300 mask bits, cap {TIGHT_BIT_CAP}"
            )
    if bound > TIGHT_BIT_CAP:
        _check_tight_bits(tuple(range(degree - 1, -1, -1)), None)


#: The default degree cap of ``tight_scan``.
TIGHT_SCAN_CAP = 6


def tight_scan(degree: int, cap: int = TIGHT_SCAN_CAP) -> TightScanReport:
    """Compare tightness with the rule for every descent pattern at one degree.

    One staircase per descent set; the busiest orbit is the whole group,
    so the degree is capped harder than elsewhere, and a degree whose
    whole group exceeds ``TIGHT_BIT_CAP`` is refused before any row.
    The staircases are integral, so ``theta`` and the witness are int
    tuples; they equal, with equal hashes, the ``Fraction`` tuples of
    ``dominant_shape`` and ``is_tight``, and print the same.
    """
    if degree > cap:
        raise CapExceeded(f"degree {degree} exceeds the tight-scan cap {cap}")
    if degree < 1:
        raise ValueError(f"degree must be at least 1, got {degree}")
    _check_scan_bits(degree)
    indices = range(1, degree)
    rows = []
    for r in range(0, degree):
        for jc in itertools.combinations(indices, r):
            theta = _staircase(degree, jc)
            witness = _tight_witness(theta, None)
            rows.append(
                TightRow(
                    j_complement=jc,
                    theta=theta,
                    orbit_size=_multinomial(theta),
                    tight=witness is None,
                    rule_tight=rule_predicts_tight(degree, jc),
                    witness=witness,
                )
            )
    return TightScanReport(degree, tuple(rows))
