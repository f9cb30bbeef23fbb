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

Internally a weight is first scaled to integers by the lcm of its
denominators.  A positive scaling keeps both the step order and
dominance, so orbits, reachability masks and prefix sums all run on
plain int tuples; values map back to the caller's ``Fraction`` entries
only for what the public functions return.

``fractions`` (which loads ``decimal`` and ``numbers``) is imported
inside the three functions that build a ``Fraction``: ``check_weight``,
``parse_weight`` and ``dominant_shape``.  So importing this module, as
every CLI start does, does not load it, and only the orbit and tightness
commands pay for it.
"""
from __future__ import annotations

import itertools
import math
from collections import namedtuple
from typing import TYPE_CHECKING, Iterable, Sequence

from .parabolic import coset_bound
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
    from fractions import Fraction

    parts = [p.strip() for p in text.split(",")]
    if not parts or any(not p for p in parts):
        raise ValueError(f"bad weight text: {text!r}")
    try:
        return tuple(Fraction(p) for p in parts)
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
    t = check_dominant(theta)
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
    """All distinct rearrangements."""
    return frozenset(_rearrangements(check_weight(theta)))


def orbit_size(theta: Sequence) -> int:
    """Number of distinct rearrangements: a multinomial coefficient.

    >>> orbit_size([2, 1, 1, 0])
    12
    """
    t = check_weight(theta)
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

    jcs = set(jc)
    if not all(1 <= j <= degree - 1 for j in jcs):
        raise ValueError(f"indices {sorted(jcs)!r} out of range for degree {degree}")
    return tuple(Fraction(sum(1 for j in jcs if j >= i)) for i in range(1, degree + 1))


#: The most members an orbit may have.  Reachability and dominance masks
#: take members² bits each; 7! members, the generic orbit at degree 7,
#: take about 0.3 s to build and 0.7 s and 49 MiB peak to print as JSON
#: from the command line (2 cores, Python 3.11), while 8! would need
#: gigabytes.
ORBIT_MEMBER_CAP = math.factorial(7)


def _check_members(bound: int) -> None:
    if bound > ORBIT_MEMBER_CAP:
        raise CapExceeded(
            f"an orbit of up to {bound} members exceeds the member cap {ORBIT_MEMBER_CAP}"
        )


def _integral(theta: Sequence) -> tuple[int, ...]:
    """theta times the lcm of its denominators.

    >>> _integral(check_weight(["3/2", 1, "-1/3"]))
    (9, 6, -2)
    """
    scale = math.lcm(*(x.denominator for x in theta))
    return tuple(x.numerator * (scale // x.denominator) for x in theta)


def _as_weight(mu: tuple[int, ...], back: dict[int, Fraction]) -> Weight:
    return tuple(back[x] for x in mu)


def _orbit(
    theta: Sequence, restriction: GenSet | None
) -> tuple[Weight, GenSet | None, list[tuple[int, ...]], dict[tuple[int, ...], int], list[int], list[int]]:
    """The (restricted) orbit of a dominant weight, with its covers and reachability.

    Returns theta and the restriction as checked, the members as integer
    tuples in increasing lexicographic order (so theta is last), their
    index, and two masks per member: bit j of ``covers[i]`` says member
    j covers member i, and bit j of ``up[i]`` that member j is reachable
    from member i by steps staying inside the member set.  A step
    strictly drops in the lexicographic order, so in one forward pass a
    member's step targets all come before it.  Every cover is one step,
    and a target is a cover when it lies above no other target.  The
    member count is at most the number of double
    cosets of the restriction and the stabilizer of theta, so the call
    refuses up front when ``coset_bound`` exceeds ``ORBIT_MEMBER_CAP``.
    """
    t = check_dominant(theta)
    gens = None if restriction is None else check_genset(restriction, len(t))
    _check_members(coset_bound(len(t), gens or frozenset(), stabilizer_genset(t)))
    members = _rearrangements(_integral(t), gens or ())
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
    return t, gens, members, index, covers, up


def _dominated_masks(members: Sequence[tuple[int, ...]]) -> list[int]:
    """Bit j of mask i is set when members[i] dominates members[j].

    One cumulative mask "prefix_k <= v" per coordinate k and value v;
    member i's mask is the AND over k of the masks at its own prefixes.
    Members share their coordinate sum, so the last prefix is skipped.
    """
    n = len(members)
    prefixes = [tuple(itertools.accumulate(mu)) for mu in members]
    dom = [(1 << n) - 1] * n
    for k in range(len(members[0]) - 1):
        column = [p[k] for p in prefixes]
        at_most: dict[int, int] = {}
        for j, v in enumerate(column):
            at_most[v] = at_most.get(v, 0) | (1 << j)
        acc = 0
        for v in sorted(at_most):
            acc |= at_most[v]
            at_most[v] = acc
        for i, v in enumerate(column):
            dom[i] &= at_most[v]
    return dom


def step_leq(nu: Weight, mu: Weight, restriction: GenSet | None = None) -> bool:
    """Whether mu is reachable upward from nu (nu below mu in the orbit order)."""
    if len(nu) != len(mu):
        raise ValueError(f"degree mismatch: {len(nu)} vs {len(mu)}")
    if sorted(nu) != sorted(mu):
        return False
    _, _, _, index, _, up = _orbit(sorted(mu, reverse=True), restriction)
    # nu and mu share theta's entries, and so its scale to integers
    i = index.get(_integral(check_weight(nu)))
    j = index.get(_integral(check_weight(mu)))
    if i is None or j is None:
        return False
    return bool(up[i] >> j & 1)


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
    """Build the step order on the (restricted) orbit of a dominant weight."""
    t, gens, members, _, covers, _ = _orbit(theta, restriction)
    back = dict(zip(members[-1], t))
    elements = [_as_weight(mu, back) for mu in members]
    return OrbitPoset(t, gens, tuple(reversed(elements)), FinitePoset.from_cover_masks(elements, covers))


def is_tight(theta: Sequence, restriction: GenSet | None = None) -> tuple[bool, tuple[Weight, Weight] | None]:
    """Does the step order equal inverse dominance on this orbit?

    Climbing a step always moves down in dominance; that direction is a
    standing invariant, not a tightness question, so its failure is an
    internal error.  The converse can genuinely fail; the first pair
    (mu, nu) with nu dominated by mu yet mu not below nu in the step
    order is returned as the witness, scanning mu and then nu from
    theta downward in the lexicographic order.
    """
    t, _, members, _, _, up = _orbit(theta, restriction)
    del _  # the cover masks, unread here; free them before the dominance masks
    dom = _dominated_masks(members)
    for i in range(len(members) - 1, -1, -1):
        mismatch = up[i] ^ dom[i]
        if mismatch:
            j = mismatch.bit_length() - 1
            back = dict(zip(members[-1], t))
            mu, nu = _as_weight(members[i], back), _as_weight(members[j], back)
            if up[i] >> j & 1:
                raise RuntimeError(
                    f"step order escaped dominance: {mu} climbs to {nu}; this is a bug"
                )
            return False, (mu, nu)
    return True, None


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
    whole group exceeds ``ORBIT_MEMBER_CAP`` is refused before any row.
    """
    if degree > cap:
        raise CapExceeded(f"degree {degree} exceeds the tight-scan cap {cap}")
    if degree < 1:
        raise ValueError(f"degree must be at least 1, got {degree}")
    _check_members(math.factorial(degree))
    rows = []
    indices = range(1, degree)
    for r in range(0, degree):
        for jc in itertools.combinations(indices, r):
            theta = dominant_shape(degree, jc)
            tight, witness = is_tight(theta)
            rows.append(
                TightRow(
                    j_complement=jc,
                    theta=theta,
                    orbit_size=orbit_size(theta),
                    tight=tight,
                    rule_tight=rule_predicts_tight(degree, jc),
                    witness=witness,
                )
            )
    return TightScanReport(degree, tuple(rows))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
