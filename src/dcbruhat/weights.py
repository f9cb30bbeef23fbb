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
sums.  ``step_leq`` applies the first test to two weights, and
``is_tight`` compares the two through masks of members by prefix class,
so neither builds the orbit's reachability; ``orbit_poset`` builds it,
with the covers.

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

import itertools
import math
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
    number of results rather than m!.

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
    tied = [i in gens for i in range(len(values))]
    out: list[tuple] = []
    prefix: list = []

    def extend(pos: int, last: int) -> None:
        if pos == len(values):
            out.append(tuple(prefix))
            return
        for k in range(last + 1 if tied[pos] else len(distinct)):
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


#: The most mask bits ``is_tight`` may build: for each prefix length, one
#: mask as wide as the orbit per class of sorted prefixes.  The whole
#: group at degree 8 takes 254 classes × 8! members, about 10.2M bits,
#: and 0.1 s, and ``tight --degree 8`` about 1 s in all; degree 9 would
#: take 510 × 9!, about 185M bits, and ``tight --degree 9`` about 20 s and
#: 105 MiB (2 cores, Python 3.11).  With d distinct entries there are at
#: least 2^d - 2 classes, so fewer than 25 distinct entries pass.
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


def _dominance_masks(by_sum: dict[int, int]) -> dict[int, int]:
    """From members by prefix sum to members whose prefix sum is at most each value."""
    acc = 0
    at_most = {}
    for v in sorted(by_sum):
        acc |= by_sum[v]
        at_most[v] = acc
    return at_most


def _tight_witness(t: tuple, gens: GenSet | None) -> tuple[tuple, tuple] | None:
    """``is_tight``'s witness on a dominant weight, or None when tight.

    Member j is above member i exactly when, for each prefix length k
    from 1 to d - 1, the sorted k-prefix of j is entrywise at most that
    of i (see ``step_leq``), and i dominates j exactly when each k-prefix
    sum of j is at most that of i.  So both orders are ANDs over k of
    masks over all members, kept per class of sorted k-prefixes:
    - the members of a k-prefix class are those of a (k-1)-prefix class
      that hold the missing value at position k; that position's column
      of the members gives one bit string per value;
    - a member's up mask at k ORs the classes entrywise at most its own,
      and its dominance mask the classes of prefix sum at most its own.
    The scan runs from theta down and stops at the first mismatch.
    Members sharing a k-prefix are consecutive, so a member's masks
    cost one AND per prefix it does not share with the member before,
    and the OR for a class is built when a scanned member first needs it.

    The members are built on ranks (see ``_ranked``), and the prefix
    sums and the witness read the values back.  ``TIGHT_BIT_CAP`` keeps
    the ranks under 25, so a column of ranks is a ``bytes`` string.
    """
    values, ranks = _ranked(t)
    members = _rearrangements(ranks, gens or ())
    n, d = len(members), len(t)
    # ones[x] translates rank x to the digit 1 and every other rank to 0
    ones = [b"0" * x + b"1" + b"0" * (255 - x) for x in range(len(values))]
    classes = [{(): (1 << n) - 1}]  # per prefix length: sorted prefix -> members
    for column in itertools.islice(zip(*members), d - 1):
        digits = bytes(reversed(column))  # member 0 last: the lowest bit
        holding = [int(digits.translate(one), 2) for one in ones]
        level: dict[tuple[int, ...], int] = {}
        for c, mask in classes[-1].items():
            for x, bits in enumerate(holding):
                bits &= mask
                if bits:
                    key = tuple(sorted(c + (x,)))
                    level[key] = level.get(key, 0) | bits
        classes.append(level)
    sum_of: dict[tuple[int, ...], int] = {}  # sorted prefix -> its sum
    below = [{}]
    for level in classes[1:]:
        by_sum: dict[int, int] = {}
        for c, bits in level.items():
            v = sum_of[c] = sum(values[x] for x in c)
            by_sum[v] = by_sum.get(v, 0) | bits
        below.append(_dominance_masks(by_sum))

    memo: list[dict[tuple[int, ...], tuple[int, int]]] = [{} for _ in range(d)]
    up = [(1 << n) - 1] * d
    dom = up.copy()
    last = members[-1]
    for i in range(n - 1, -1, -1):
        mu = members[i]
        p = 0
        if i < n - 1:
            while mu[p] == last[p]:
                p += 1
        last = mu
        for k in range(p + 1, d):
            c = tuple(sorted(mu[:k]))
            masks = memo[k].get(c)
            if masks is None:
                above = 0
                for other, bits in classes[k].items():
                    if all(a <= b for a, b in zip(other, c)):
                        above |= bits
                masks = memo[k][c] = (above, below[k][sum_of[c]])
            up[k] = up[k - 1] & masks[0]
            dom[k] = dom[k - 1] & masks[1]
        mismatch = up[-1] ^ dom[-1]
        if mismatch:
            j = mismatch.bit_length() - 1
            mu, nu = (tuple(values[x] for x in members[m]) for m in (i, j))
            if up[-1] >> j & 1:
                raise RuntimeError(
                    f"step order escaped dominance: {mu} climbs to {nu}; this is a bug"
                )
            return mu, nu
    return None


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
    indices = range(1, degree)
    _check_tight_bits(_staircase(degree, indices), None)
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
