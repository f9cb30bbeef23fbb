"""Brute-force oracles that the tests compare the package against.

Each builds what no command needs: a Hasse diagram reduced from a whole
relation, the order tables of a whole symmetric group, a coset's members
found by closing one member under generator moves, a coset's longest
member walked from its table's rows, every coset of a pair checked
against those tables, the catalogue's side conditions as first written,
one classifier over every (left index, right complement) pair, family
membership decided by isomorphism against the templates, each
catalogued case checked on its own labelled poset, and tightness by
masks over every orbit member.
With them live the small helpers that only tests call: left
multiplication, left descents and ascents, and the rejected bottom
length of the diamond analysis.  Test files import them from here and
keep no copies of their own.
"""

import itertools
from functools import lru_cache
from math import comb

from dcbruhat.bruhat import covers
from dcbruhat.parabolic import decompose
from dcbruhat.poset import (
    CHAIN,
    LADDER_A,
    LADDER_B,
    LADDER_C,
    LADDER_D,
    LADDER_TAGS,
    POINT,
    STRETCHED_DIAMOND,
    FinitePoset,
    NotAPartialOrder,
    ShapeClass,
    _ladder_param,
    _transpose,
    are_isomorphic,
    classify_shape,
    shape_template,
)
from dcbruhat.spherical import (
    TAG_CONSECUTIVE,
    TAG_DIAMOND,
    TAG_GRASSMANNIAN,
    TAG_PROJECTIVE,
    CaseResult,
    NoClosedFormBottom,
    VerificationReport,
    build_xplus_poset,
    predicted_bottom,
    shape_in_family,
    spherical_pairs,
)
from dcbruhat.symgroup import (
    all_permutations,
    check_genset,
    inverse,
    longest_element,
    mult_right,
    right_ascents,
    right_descents,
)
from dcbruhat.weights import _ranked, _rearrangements


def simple_transposition(degree, i):
    if not 1 <= i <= degree - 1:
        raise ValueError(f"simple transposition index {i} out of range for degree {degree}")
    w = list(range(1, degree + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def mult_left(w, i):
    """The simple transposition with index i times w (swaps the values i, i+1)."""
    if not 1 <= i <= len(w) - 1:
        raise ValueError(f"simple transposition index {i} out of range for degree {len(w)}")
    return tuple(i + 1 if x == i else i if x == i + 1 else x for x in w)


def left_descents(w):
    """Indices whose transposition shortens w when applied on the left."""
    return right_descents(inverse(w))


def left_ascents(w):
    """Indices whose transposition lengthens w when applied on the left."""
    return right_ascents(inverse(w))


def alt_bottom_length(q, n):
    """Length of the rejected bottom candidate in the diamond analysis.

    The diamond minimum could a priori start with the long descending
    run instead of with "2 1"; this is that word's inversion count.
    Comparing it against 1 + C(n-1, 2), the length of the chosen
    candidate, certifies the choice.
    """
    if not 3 < q < n:
        raise ValueError(f"need 3 < q < n, got q={q}, n={n}")
    return comb(n + 1, 2) + 1 - (n + 1 - q) - (n + 2 - q)


def hasse_reduction(up):
    r"""Cover masks of a reflexive relation given by its up masks.

    The covers of i are ``up[i] \ {i}`` minus the union of
    ``up[j] \ {j}`` over j in that set.  Raises ``NotAPartialOrder``
    when the relation is not transitive.
    """
    strict = [mask & ~(1 << i) for i, mask in enumerate(up)]
    out = []
    for i, mask in enumerate(up):
        above = 0
        m = strict[i]
        while m:
            low = m & -m
            m ^= low
            above |= strict[low.bit_length() - 1]
        if above & ~mask:
            raise NotAPartialOrder("relation is not transitive")
        out.append(strict[i] & ~above)
    return out


def poset_from_up_masks(elements, up):
    """The poset whose order has the given up masks, in the given element order.

    Bit j of ``up[i]`` says ``elements[i] <= elements[j]``.  The masks
    are reduced to covers, and the poset rebuilt from them must have the
    same up masks: that one comparison fails on any relation that is not
    a partial order.
    """
    poset = FinitePoset.from_cover_masks(elements, hasse_reduction(up))
    if poset._up != list(up):
        raise NotAPartialOrder("relation is not a partial order")
    return poset


def poset_from_relation(elements, relation):
    """The poset of a comparison callable, on the sorted elements.

    The relation is evaluated on all pairs, so keep the element set small.
    """
    elts = sorted(elements)
    up = [sum(1 << j for j, y in enumerate(elts) if relation(x, y)) for x in elts]
    return poset_from_up_masks(elts, up)


@lru_cache(maxsize=8)
def order_tables(degree):
    """Dense comparability tables for a whole symmetric group.

    Returns ``(elements, index, up, down)``: elements in lexicographic
    order, their index lookup, and per-element bitmasks of everything
    weakly above resp. weakly below, read off the group's
    ``FinitePoset``.  The enumeration keeps the degree cap.
    """
    elements = tuple(all_permutations(degree))
    group = FinitePoset(elements, ((w, c) for w in elements for c in covers(w)))
    return elements, group._index, group._up, _transpose(group._up)


def coset_members(w, left_gens, right_gens):
    """All members of the double coset of w, by generator moves from w."""
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


def longest_member(rows, table):
    """The longest member of one table's coset, walked row block by row block.

    Entry (a, b) of the table counts the positions of right block b that
    hold values of left block a.  The longest member hands each left
    block's values out in decreasing order, to the right blocks from
    left to right, and lists each right block decreasing.
    """
    high = list(itertools.accumulate(rows))
    longest = []
    upward = range(len(rows) - 1, -1, -1)
    for column in zip(*table):
        for a in upward:
            m = column[a]
            if m:
                h = high[a]
                longest += range(h, h - m, -1)
                high[a] = h - m
    return tuple(longest)


def linking_genset(w, left_gens, right_gens):
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


def check_interval_property(degree, left_gens, right_gens):
    """Whether every double coset equals the full order interval between its ends."""
    elements, index, up, down = order_tables(degree)
    for entry in decompose(degree, left_gens, right_gens).entries:
        between = up[index[entry.min_rep]] & down[index[entry.max_rep]]
        members = 0
        for w in coset_members(entry.min_rep, left_gens, right_gens):
            members |= 1 << index[w]
        if between != members:
            return False
    return True


def _mirror_index(i: int, degree: int) -> int:
    return degree - i


def _classify(degree: int, i: int, jc: tuple[int, ...]):
    """Tag a left-singleton pair, or None when it is not in the catalogue.

    Returns (tag, predicted_shape, norm, mirrored).
    """
    n = degree - 1
    if len(jc) == 1:
        return TAG_GRASSMANNIAN, ShapeClass(CHAIN), None, False
    if len(jc) == 2 and jc[1] == jc[0] + 1:
        return TAG_CONSECUTIVE, ShapeClass(CHAIN), None, False
    if i in (1, n):
        return TAG_PROJECTIVE, ShapeClass(CHAIN), None, False
    if len(jc) == 2 and i in (2, n - 1):
        p, q = jc
        if 1 < p and p + 1 < q and q < n:
            if i == 2:
                return TAG_DIAMOND, ShapeClass(STRETCHED_DIAMOND), (p, q), False
            return (
                TAG_DIAMOND,
                ShapeClass(STRETCHED_DIAMOND),
                (_mirror_index(q, degree), _mirror_index(p, degree)),
                True,
            )
    if len(jc) == 2 and 2 <= i <= n - 1:
        mirrored = None
        if jc[0] == 1 and 2 < jc[1] < n - 1:
            mirrored = False
            istar, jstar = i, jc[1]
        elif jc[1] == n and 2 < jc[0] < n - 1:
            mirrored = True
            istar, jstar = _mirror_index(i, degree), _mirror_index(jc[0], degree)
        if mirrored is not None:
            below = istar + jstar - 2 < n
            if jstar <= istar:
                tag = LADDER_A if below else LADDER_B
            else:
                tag = LADDER_C if below else LADDER_D
            return tag, ShapeClass(tag), (istar, jstar), mirrored
    return None


def matches_family(poset, shape):
    """Membership in the predicted family, by isomorphism with a template.

    A prediction with ``param=None`` accepts any member of the family;
    the concrete parameter is read off the poset's size.
    """
    if shape.tag == POINT:
        return len(poset) == 1
    if shape.tag == CHAIN:
        return poset.is_chain() and (shape.param is None or len(poset) == shape.param)
    if shape.tag == STRETCHED_DIAMOND:
        return len(poset) == 6 and are_isomorphic(poset, shape_template(shape))
    if shape.tag in LADDER_TAGS:
        if shape.param is not None:
            return are_isomorphic(poset, shape_template(shape))
        m = _ladder_param(shape.tag, len(poset))
        return m is not None and are_isomorphic(
            poset, shape_template(ShapeClass(shape.tag, m))
        )
    return False


def labelled_verify_case(case):
    """``verify_case`` on one labelled ``FinitePoset`` built for this case alone."""
    poset = build_xplus_poset(case.degree, case.i_complement, case.j_complement)
    lattice_ok, lattice_witness = poset.is_lattice()
    actual_shape = classify_shape(poset)
    shape_ok = shape_in_family(actual_shape, case.predicted_shape)
    mins = poset.minimal_elements()
    maxs = poset.maximal_elements()
    bounds_ok = (
        len(mins) == 1
        and len(maxs) == 1
        and maxs[0] == longest_element(case.degree)
    )
    actual_min = mins[0] if len(mins) == 1 else None
    try:
        pred = predicted_bottom(case)
        bottom_ok = pred == actual_min
    except NoClosedFormBottom:
        pred = None
        bottom_ok = None
    height_ok = None
    merge_ok = None
    if case.tag in LADDER_TAGS:
        n = case.degree - 1
        istar, jstar = case.norm
        height_ok = poset.height() <= jstar
        if len(maxs) == 1:
            meets_below = len(poset.lower_covers(maxs[0])) == 1
            merge_ok = meets_below == (n + 1 - (jstar - 1) > istar)
        else:
            merge_ok = False
    return CaseResult(
        case=case,
        size=len(poset),
        actual_shape=actual_shape,
        lattice_ok=lattice_ok,
        lattice_witness=lattice_witness,
        shape_ok=shape_ok,
        bounds_ok=bounds_ok,
        height=poset.height(),
        predicted_min=pred,
        actual_min=actual_min,
        bottom_ok=bottom_ok,
        height_ok=height_ok,
        merge_ok=merge_ok,
    )


def labelled_verify_theorem(degree):
    """``verify_theorem`` by ``labelled_verify_case``, one poset per case."""
    return VerificationReport(degree, tuple(map(labelled_verify_case, spherical_pairs(degree))))


def dominance_masks(by_sum):
    """From members by prefix sum to members whose prefix sum is at most each value."""
    acc = 0
    at_most = {}
    for v in sorted(by_sum):
        acc |= by_sum[v]
        at_most[v] = acc
    return at_most


def prefix_class_witness(t, gens):
    """``is_tight``'s witness on a dominant weight by masks over all members, or None.

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
        level = {}
        for c, mask in classes[-1].items():
            for x, bits in enumerate(holding):
                bits &= mask
                if bits:
                    key = tuple(sorted(c + (x,)))
                    level[key] = level.get(key, 0) | bits
        classes.append(level)
    sum_of = {}  # sorted prefix -> its sum
    below = [{}]
    for level in classes[1:]:
        by_sum = {}
        for c, bits in level.items():
            v = sum_of[c] = sum(values[x] for x in c)
            by_sum[v] = by_sum.get(v, 0) | bits
        below.append(dominance_masks(by_sum))

    memo = [{} for _ in range(d)]
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
