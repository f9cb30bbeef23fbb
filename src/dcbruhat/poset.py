"""
Finite posets given by their Hasse diagrams, plus the small zoo of
shapes our coset posets are classified against.

A ``FinitePoset`` is immutable once built.  The constructor takes the
covering relation and validates it outright (acyclic, transitively
reduced); ``from_relation`` builds the covers from a raw comparison
instead.  Reachability is kept as per-element bitmasks over the element
list, which makes ``leq``, height and the lattice check cheap at the
sizes we care about (a few thousand elements at most).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

import networkx as nx


class NotAPartialOrder(ValueError):
    """The input relation fails one of the partial order axioms."""


class FinitePoset:
    """A finite poset, stored as elements plus covering pairs."""

    __slots__ = ("elements", "covers", "_index", "_adj", "_radj", "_topo", "_up", "_down", "_level")

    def __init__(self, elements: Sequence[Hashable], covers: Iterable[tuple[Hashable, Hashable]]):
        elts = tuple(elements)
        if len(set(elts)) != len(elts):
            raise NotAPartialOrder("duplicate elements")
        index = {x: i for i, x in enumerate(elts)}
        n = len(elts)
        cover_pairs = []
        adj = [0] * n
        radj = [0] * n
        seen = set()
        for lo, hi in covers:
            if lo not in index or hi not in index:
                raise NotAPartialOrder(f"cover endpoint not an element: {(lo, hi)!r}")
            if lo == hi:
                raise NotAPartialOrder(f"self-cover at {lo!r}")
            pair = (index[lo], index[hi])
            if pair in seen:
                continue
            seen.add(pair)
            cover_pairs.append((lo, hi))
            adj[pair[0]] |= 1 << pair[1]
            radj[pair[1]] |= 1 << pair[0]

        # Kahn's algorithm; a leftover node means a cycle.
        indeg = [bin(radj[i]).count("1") for i in range(n)]
        queue = [i for i in range(n) if indeg[i] == 0]
        topo: list[int] = []
        while queue:
            i = queue.pop()
            topo.append(i)
            mask = adj[i]
            while mask:
                j = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
        if len(topo) != n:
            raise NotAPartialOrder("covering relation contains a cycle")

        up = [0] * n
        for i in reversed(topo):
            mask = 1 << i
            m = adj[i]
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                mask |= up[j]
            up[i] = mask
        down = [0] * n
        for i in range(n):
            m = up[i]
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                down[j] |= 1 << i

        # Transitive reducedness: no cover may also be reachable through
        # an intermediate element.
        for lo, hi in cover_pairs:
            i, j = index[lo], index[hi]
            between = up[i] & down[j] & ~(1 << i) & ~(1 << j)
            if between:
                raise NotAPartialOrder(f"cover {(lo, hi)!r} is implied by shorter covers")

        level = [0] * n
        for i in topo:
            m = adj[i]
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                level[j] = max(level[j], level[i] + 1)

        self.elements = elts
        self.covers = tuple(cover_pairs)
        self._index = index
        self._adj = adj
        self._radj = radj
        self._topo = topo
        self._up = up
        self._down = down
        self._level = level

    @classmethod
    def from_relation(
        cls,
        elements: Iterable[Hashable],
        relation: Callable[[Hashable, Hashable], bool],
    ) -> "FinitePoset":
        """Build from a comparison callable, checking the order axioms.

        The relation is evaluated on all pairs, so keep the element set
        small.  Elements are sorted when they admit it, to make the
        stored order deterministic.
        """
        elts = list(elements)
        try:
            elts.sort()
        except TypeError:
            pass
        n = len(elts)
        if len(set(elts)) != n:
            raise NotAPartialOrder("duplicate elements")
        rel = [0] * n
        for i, x in enumerate(elts):
            for j, y in enumerate(elts):
                if relation(x, y):
                    rel[i] |= 1 << j
        for i in range(n):
            if not rel[i] & (1 << i):
                raise NotAPartialOrder(f"relation is not reflexive at {elts[i]!r}")
            for j in range(n):
                if i != j and rel[i] & (1 << j) and rel[j] & (1 << i):
                    raise NotAPartialOrder(
                        f"relation is not antisymmetric on {elts[i]!r}, {elts[j]!r}"
                    )
        for i in range(n):
            m = rel[i] & ~(1 << i)
            acc = 0
            mm = m
            while mm:
                j = (mm & -mm).bit_length() - 1
                mm &= mm - 1
                acc |= rel[j]
            if acc & ~rel[i]:
                raise NotAPartialOrder("relation is not transitive")
        covers = []
        for i in range(n):
            m = rel[i] & ~(1 << i)
            mm = m
            while mm:
                j = (mm & -mm).bit_length() - 1
                mm &= mm - 1
                # j covers i when nothing else sits strictly between.
                if not any(
                    k != i and k != j and rel[i] & (1 << k) and rel[k] & (1 << j)
                    for k in range(n)
                ):
                    covers.append((elts[i], elts[j]))
        return cls(elts, covers)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: Hashable) -> bool:
        return x in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self.elements == other.elements and set(self.covers) == set(other.covers)

    def __hash__(self) -> int:
        return hash((self.elements, frozenset(self.covers)))

    def __repr__(self) -> str:
        return f"FinitePoset({len(self.elements)} elements, {len(self.covers)} covers)"

    def leq(self, x: Hashable, y: Hashable) -> bool:
        return bool(self._up[self._index[x]] & (1 << self._index[y]))

    def lt(self, x: Hashable, y: Hashable) -> bool:
        return x != y and self.leq(x, y)

    def upper_covers(self, x: Hashable) -> list[Hashable]:
        out = []
        m = self._adj[self._index[x]]
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            out.append(self.elements[j])
        return out

    def lower_covers(self, x: Hashable) -> list[Hashable]:
        out = []
        m = self._radj[self._index[x]]
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            out.append(self.elements[j])
        return out

    def minimal_elements(self) -> list[Hashable]:
        return [x for i, x in enumerate(self.elements) if not self._radj[i]]

    def maximal_elements(self) -> list[Hashable]:
        return [x for i, x in enumerate(self.elements) if not self._adj[i]]

    def bottom(self) -> Hashable:
        mins = self.minimal_elements()
        if len(mins) != 1:
            raise ValueError(f"no unique minimum: {len(mins)} minimal elements")
        return mins[0]

    def top(self) -> Hashable:
        maxs = self.maximal_elements()
        if len(maxs) != 1:
            raise ValueError(f"no unique maximum: {len(maxs)} maximal elements")
        return maxs[0]

    def height(self) -> int:
        """Length of a longest chain, counted in covers (elements minus one)."""
        return max(self._level, default=0)

    def level_of(self, x: Hashable) -> int:
        """Length of a longest chain from a minimal element up to x."""
        return self._level[self._index[x]]

    def is_chain(self) -> bool:
        n = len(self.elements)
        full = (1 << n) - 1
        return all((self._up[i] | self._down[i]) == full for i in range(n))

    def is_lattice(self) -> tuple[bool, tuple[Hashable, Hashable] | None]:
        """Check unique joins and meets; returns a witness pair on failure."""
        n = len(self.elements)
        for i in range(n):
            for j in range(i + 1, n):
                common_up = self._up[i] & self._up[j]
                minimal = 0
                m = common_up
                while m:
                    k = (m & -m).bit_length() - 1
                    m &= m - 1
                    if not (self._down[k] & common_up & ~(1 << k)):
                        minimal |= 1 << k
                if bin(minimal).count("1") != 1:
                    return False, (self.elements[i], self.elements[j])
                common_down = self._down[i] & self._down[j]
                maximal = 0
                m = common_down
                while m:
                    k = (m & -m).bit_length() - 1
                    m &= m - 1
                    if not (self._up[k] & common_down & ~(1 << k)):
                        maximal |= 1 << k
                if bin(maximal).count("1") != 1:
                    return False, (self.elements[i], self.elements[j])
        return True, None

    def to_dot(self, label: Callable[[Hashable], str] = str) -> str:
        """Graphviz source for the Hasse diagram, bottom to top."""
        lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=plaintext];"]
        nodes = sorted(
            (self._level[self._index[x]], label(x), x) for x in self.elements
        )
        names = {}
        for k, (_, text, x) in enumerate(nodes):
            names[x] = f"n{k}"
            lines.append(f'  n{k} [label="{text}"];')
        for lvl in sorted(set(self._level)):
            group = [names[x] for _, _, x in nodes if self._level[self._index[x]] == lvl]
            lines.append("  { rank=same; " + "; ".join(group) + "; }")
        for lo, hi in sorted(self.covers, key=lambda p: (names[p[0]], names[p[1]])):
            lines.append(f"  {names[lo]} -> {names[hi]};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self, label: Callable[[Hashable], str] = str) -> str:
        import json

        idx = self._index
        return json.dumps(
            {
                "elements": [label(x) for x in self.elements],
                "covers": sorted([idx[lo], idx[hi]] for lo, hi in self.covers),
            },
            sort_keys=True,
            indent=2,
        ) + "\n"


def are_isomorphic(p: FinitePoset, q: FinitePoset, cap: int = 10000) -> bool:
    """Poset isomorphism via digraph isomorphism of the Hasse diagrams.

    Cheap invariants first; the matcher only runs on agreeing pairs.
    """
    if len(p) != len(q):
        return False
    if len(p) > cap:
        raise ValueError(f"poset size {len(p)} exceeds the isomorphism cap {cap}")
    if len(p.covers) != len(q.covers):
        return False

    def profile(r: FinitePoset):
        degs = sorted(
            (bin(r._adj[i]).count("1"), bin(r._radj[i]).count("1"))
            for i in range(len(r))
        )
        levels = sorted(r._level)
        return degs, levels

    if profile(p) != profile(q):
        return False
    gp = nx.DiGraph()
    gp.add_nodes_from(range(len(p)))
    gp.add_edges_from((p._index[a], p._index[b]) for a, b in p.covers)
    gq = nx.DiGraph()
    gq.add_nodes_from(range(len(q)))
    gq.add_edges_from((q._index[a], q._index[b]) for a, b in q.covers)
    return nx.algorithms.isomorphism.DiGraphMatcher(gp, gq).is_isomorphic()


# --- the shape zoo ---------------------------------------------------------

POINT = "point"
CHAIN = "chain"
STRETCHED_DIAMOND = "stretched-diamond"
LADDER_A = "ladder-a"
LADDER_B = "ladder-b"
LADDER_C = "ladder-c"
LADDER_D = "ladder-d"
UNRECOGNIZED = "unrecognized"

LADDER_TAGS = (LADDER_A, LADDER_B, LADDER_C, LADDER_D)


@dataclass(frozen=True)
class ShapeClass:
    """A shape family tag plus its size parameter, if the family has one.

    For chains the parameter is the number of elements; for ladders it
    is the rung count of either rail.
    """

    tag: str
    param: int | None = None

    def __str__(self) -> str:
        return self.tag if self.param is None else f"{self.tag}({self.param})"


def _ladder_template(tag: str, m: int) -> FinitePoset:
    """Two rails of m nodes with diagonals, plus the tag's own neck and crown.

    All four families share the rail block: covers within either rail,
    and a diagonal from each left node to the next right node.  They
    differ in whether the two rails hang off a common stem node above
    the bottom (a, b) and whether they merge strictly below the top (a, c).
    """
    if m < 1:
        raise ValueError(f"ladder parameter must be at least 1, got {m}")
    has_stem = tag in (LADDER_A, LADDER_B)
    has_mid = tag in (LADDER_A, LADDER_C)
    left = [f"l{k:02d}" for k in range(1, m + 1)]
    right = [f"r{k:02d}" for k in range(1, m + 1)]
    elements = (
        ["a-bot"]
        + (["b-stem"] if has_stem else [])
        + left
        + right
        + (["x-mid"] if has_mid else [])
        + ["z-top"]
    )
    neck = "b-stem" if has_stem else "a-bot"
    covers: list[tuple[str, str]] = []
    if has_stem:
        covers.append(("a-bot", "b-stem"))
    covers += [(neck, left[0]), (neck, right[0])]
    for k in range(m - 1):
        covers.append((left[k], left[k + 1]))
        covers.append((right[k], right[k + 1]))
        covers.append((left[k], right[k + 1]))
    crown = "x-mid" if has_mid else "z-top"
    covers += [(left[-1], crown), (right[-1], crown)]
    if has_mid:
        covers.append(("x-mid", "z-top"))
    return FinitePoset(elements, covers)


def shape_template(shape: ShapeClass) -> FinitePoset:
    """A concrete poset of the given shape, on synthetic string labels."""
    tag, m = shape.tag, shape.param
    if tag == POINT:
        return FinitePoset(["q0"], [])
    if tag == CHAIN:
        if m is None or m < 1:
            raise ValueError(f"chain needs a positive length parameter, got {m}")
        names = [f"q{k}" for k in range(m)]
        return FinitePoset(names, list(zip(names, names[1:])))
    if tag == STRETCHED_DIAMOND:
        names = [f"q{k}" for k in range(6)]
        return FinitePoset(
            names,
            [("q0", "q1"), ("q1", "q2"), ("q1", "q3"), ("q2", "q4"), ("q3", "q4"), ("q4", "q5")],
        )
    if tag in LADDER_TAGS:
        if m is None:
            raise ValueError(f"ladder shape needs a rung parameter, got {shape}")
        return _ladder_template(tag, m)
    raise ValueError(f"no template for shape {shape}")


def _ladder_param(tag: str, size: int) -> int | None:
    """Rung count implied by the poset size, if the size fits the family."""
    extra = {LADDER_A: 4, LADDER_B: 3, LADDER_C: 3, LADDER_D: 2}[tag]
    m, rem = divmod(size - extra, 2)
    return m if rem == 0 and m >= 1 else None


def classify_shape(p: FinitePoset) -> ShapeClass:
    """Match a poset against the zoo, most specific family first.

    The families overlap at small parameters (a one-rung ladder of the
    first kind is exactly the stretched diamond), so the order of the
    checks is part of the contract: point, chain, stretched diamond,
    then the ladders in family order.
    """
    if len(p) == 1:
        return ShapeClass(POINT)
    if p.is_chain():
        return ShapeClass(CHAIN, len(p))
    if len(p) == 6 and are_isomorphic(p, shape_template(ShapeClass(STRETCHED_DIAMOND))):
        return ShapeClass(STRETCHED_DIAMOND)
    for tag in LADDER_TAGS:
        m = _ladder_param(tag, len(p))
        if m is not None and are_isomorphic(p, _ladder_template(tag, m)):
            return ShapeClass(tag, m)
    return ShapeClass(UNRECOGNIZED)
