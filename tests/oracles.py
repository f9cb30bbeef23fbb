"""Brute-force oracles that the tests compare the package against.

Each builds what no command needs: a Hasse diagram reduced from a whole
relation, the order tables of a whole symmetric group, a coset's members
found by closing one member under generator moves, every coset of a pair
checked against those tables, and family membership decided by
isomorphism against the templates.  Test files import them from here
and keep no copies of their own.
"""

from functools import lru_cache

from dcbruhat.bruhat import covers
from dcbruhat.parabolic import decompose
from dcbruhat.poset import (
    CHAIN,
    LADDER_TAGS,
    POINT,
    STRETCHED_DIAMOND,
    FinitePoset,
    NotAPartialOrder,
    ShapeClass,
    _ladder_param,
    _transpose,
    are_isomorphic,
    shape_template,
)
from dcbruhat.symgroup import all_permutations, check_genset, inverse, mult_left, mult_right


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
