"""
Finite posets given by their Hasse diagrams, plus the small zoo of
shapes our coset posets are classified against.

A ``FinitePoset`` is immutable once built, and it is built only from
its covering relation: cover pairs through the constructor, or covers
already held as index bitmasks through ``from_cover_masks``.  Both
validate the covers outright (acyclic, transitively reduced).  Covers,
lower covers and up-sets are kept as per-element bitmasks over element
indices, so an element is hashed once, into the index lookup, and
``leq``, height and the exports stay cheap.  One pass in reverse
topological order builds the up-sets and finds implied covers; only
the lattice check needs down-sets, and it transposes the up-sets.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .symgroup import json_text


class NotAPartialOrder(ValueError):
    """The input relation fails one of the partial order axioms."""


def _indexed(elements: Iterable[Hashable]) -> tuple[tuple, dict]:
    """The elements as a tuple and their index lookup, hashing each once."""
    elts = tuple(elements)
    index = {x: i for i, x in enumerate(elts)}
    if len(index) != len(elts):
        raise NotAPartialOrder("duplicate elements")
    return elts, index


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _pairs(masks: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Every (i, j) with bit j set in ``masks[i]``, in ascending order."""
    return ((i, j) for i, m in enumerate(masks) for j in _bits(m))


def _transpose(masks: Sequence[int]) -> list[int]:
    """The masks of the converse relation: bit i of ``out[j]`` for bit j of ``masks[i]``."""
    out = [0] * len(masks)
    for i, m in enumerate(masks):
        bit = 1 << i
        while m:
            low = m & -m
            m ^= low
            out[low.bit_length() - 1] |= bit
    return out


class FinitePoset:
    """A finite poset, stored as elements plus cover bitmasks over their indices."""

    __slots__ = ("elements", "_index", "_adj", "_radj", "_up", "_level")

    def __init__(self, elements: Sequence[Hashable], covers: Iterable[tuple[Hashable, Hashable]]):
        elts, index = _indexed(elements)
        adj = [0] * len(elts)
        for lo, hi in covers:
            i, j = index.get(lo), index.get(hi)
            if i is None or j is None:
                raise NotAPartialOrder(f"cover endpoint not an element: {(lo, hi)!r}")
            if i == j:
                raise NotAPartialOrder(f"self-cover at {lo!r}")
            adj[i] |= 1 << j
        self._build(elts, index, adj)

    def _build(self, elts: tuple, index: dict, adj: list[int]) -> None:
        """Check cover masks for cycles and implied covers, then fill every field.

        One pass in reverse topological order closes the covers into
        up-sets.  A cover of i is implied exactly when another cover of
        i reaches it, so the same pass collects the implied covers.
        """
        n = len(elts)
        radj = _transpose(adj)

        # Kahn's algorithm; a leftover node means a cycle.  A node's
        # lower covers all come before it, so its level is final when
        # it leaves the queue.
        indeg = [bin(m).count("1") for m in radj]
        queue = [i for i in range(n) if indeg[i] == 0]
        topo: list[int] = []
        level = [0] * n
        while queue:
            i = queue.pop()
            topo.append(i)
            nxt = level[i] + 1
            m = adj[i]
            while m:
                low = m & -m
                m ^= low
                j = low.bit_length() - 1
                if level[j] < nxt:
                    level[j] = nxt
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
        if len(topo) != n:
            raise NotAPartialOrder("covering relation contains a cycle")

        up = [0] * n
        implied = [0] * n
        for i in reversed(topo):
            above = 0
            m = a = adj[i]
            while m:
                low = m & -m
                m ^= low
                above |= up[low.bit_length() - 1] ^ low
            implied[i] = a & above
            up[i] = a | above | 1 << i
        bad = next(_pairs(implied), None)
        if bad is not None:
            i, j = bad
            raise NotAPartialOrder(f"cover {(elts[i], elts[j])!r} is implied by shorter covers")

        self.elements = elts
        self._index = index
        self._adj = adj
        self._radj = radj
        self._up = up
        self._level = level

    @classmethod
    def from_cover_masks(cls, elements: Sequence[Hashable], covers: Sequence[int]) -> "FinitePoset":
        """Build from cover masks over element indices, checking them outright.

        Bit j of ``covers[i]`` says ``elements[j]`` covers ``elements[i]``.
        The masks get the same checks as the constructor's cover pairs.

        >>> p = FinitePoset.from_cover_masks("abc", [0b010, 0b100, 0])
        >>> p.covers
        (('a', 'b'), ('b', 'c'))
        >>> p.leq("a", "c"), p.height()
        (True, 2)
        >>> FinitePoset.from_cover_masks("abc", [0b110, 0b100, 0])
        Traceback (most recent call last):
            ...
        dcbruhat.poset.NotAPartialOrder: cover ('a', 'c') is implied by shorter covers
        """
        elts, index = _indexed(elements)
        n = len(elts)
        if len(covers) != n:
            raise ValueError(f"{len(covers)} masks for {n} elements")
        for i, mask in enumerate(covers):
            if mask >> n:
                raise NotAPartialOrder(f"cover endpoint not an element above {elts[i]!r}")
            if mask >> i & 1:
                raise NotAPartialOrder(f"self-cover at {elts[i]!r}")
        poset = cls.__new__(cls)
        poset._build(elts, index, list(covers))
        return poset

    @property
    def covers(self) -> tuple[tuple[Hashable, Hashable], ...]:
        """Covering pairs (lower, upper) of elements."""
        e = self.elements
        return tuple((e[i], e[j]) for i, j in _pairs(self._adj))

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: Hashable) -> bool:
        return x in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self.elements == other.elements and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.elements, tuple(self._adj)))

    def __repr__(self) -> str:
        n_covers = sum(bin(m).count("1") for m in self._adj)
        return f"FinitePoset({len(self.elements)} elements, {n_covers} covers)"

    def leq(self, x: Hashable, y: Hashable) -> bool:
        return bool(self._up[self._index[x]] & (1 << self._index[y]))

    def upper_covers(self, x: Hashable) -> list[Hashable]:
        return [self.elements[j] for j in _bits(self._adj[self._index[x]])]

    def lower_covers(self, x: Hashable) -> list[Hashable]:
        return [self.elements[j] for j in _bits(self._radj[self._index[x]])]

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
        """Whether every two elements compare: a longest chain holds them all (or none)."""
        return self.height() >= len(self.elements) - 1

    def is_lattice(self) -> tuple[bool, tuple[Hashable, Hashable] | None]:
        """Check unique joins and meets; returns a witness pair on failure.

        x and y have a join exactly when their common up-set is the
        up-set of some element (the join), and dually for meets.  Pairs
        are scanned as (i, j) with i < j in element order, so the
        witness is the first pair lacking a join or a meet.
        """
        up = self._up
        down = _transpose(up)
        ups, downs = set(up), set(down)
        n = len(up)
        for i in range(n):
            for j in range(i + 1, n):
                if up[i] & up[j] not in ups or down[i] & down[j] not in downs:
                    return False, (self.elements[i], self.elements[j])
        return True, None

    def to_dot(self, label: Callable[[Hashable], str] = str) -> str:
        """Graphviz source for the Hasse diagram, bottom to top."""
        lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=plaintext];"]
        texts = [label(x) for x in self.elements]
        order = sorted(
            range(len(texts)), key=lambda i: (self._level[i], texts[i], self.elements[i])
        )
        names = [""] * len(texts)
        ranks: dict[int, list[str]] = {}
        for k, i in enumerate(order):
            names[i] = f"n{k}"
            ranks.setdefault(self._level[i], []).append(names[i])
            lines.append(f'  n{k} [label="{texts[i]}"];')
        for lvl in sorted(ranks):
            lines.append("  { rank=same; " + "; ".join(ranks[lvl]) + "; }")
        edges = sorted((names[i], names[j]) for i, j in _pairs(self._adj))
        lines.extend(f"  {lo} -> {hi};" for lo, hi in edges)
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self, label: Callable[[Hashable], str] = str) -> str:
        return json_text(
            {
                "elements": [label(x) for x in self.elements],
                "covers": [[i, j] for i, j in _pairs(self._adj)],
            }
        ) + "\n"


def are_isomorphic(p: FinitePoset, q: FinitePoset, cap: int = 10000) -> bool:
    """Poset isomorphism by matching Hasse diagrams level by level.

    Cheap invariants first; the matcher only runs on agreeing pairs.  It
    visits p's elements by (level, out-degree, in-degree) and maps each
    to an unused element of q with the same key whose lower covers are
    exactly the images of its own.  Lower covers sit on strictly lower
    levels, so they are already mapped, and each cover is checked once,
    at its upper end.  Backtracking keeps an explicit stack, so the cap,
    not the recursion limit, bounds the size.
    """
    if len(p) != len(q):
        return False
    if len(p) > cap:
        raise ValueError(f"poset size {len(p)} exceeds the isomorphism cap {cap}")

    def profile(r: FinitePoset):
        degs = sorted(
            (bin(r._adj[i]).count("1"), bin(r._radj[i]).count("1"))
            for i in range(len(r))
        )
        levels = sorted(r._level)
        return degs, levels

    if profile(p) != profile(q):
        return False

    def key(r: FinitePoset, i: int) -> tuple[int, int, int]:
        return r._level[i], bin(r._adj[i]).count("1"), bin(r._radj[i]).count("1")

    n = len(p)
    order = sorted(range(n), key=lambda i: key(p, i))
    pool: dict[tuple[int, int, int], list[int]] = {}
    for j in range(n):
        pool.setdefault(key(q, j), []).append(j)
    options = [pool.get(key(p, i), []) for i in order]
    image = [0] * n  # image[i]: the bit of the element of q that i maps to
    tried = [-1] * n  # tried[k]: the option last taken at depth k
    used = 0
    k = 0
    while k < n:
        i = order[k]
        used &= ~image[i]
        want = 0
        for b in _bits(p._radj[i]):
            want |= image[b]
        cands = options[k]
        c = tried[k] + 1
        while c < len(cands) and (used >> cands[c] & 1 or q._radj[cands[c]] != want):
            c += 1
        if c == len(cands):
            tried[k] = -1
            image[i] = 0
            k -= 1
            if k < 0:
                return False
            continue
        tried[k] = c
        image[i] = 1 << cands[c]
        used |= image[i]
        k += 1
    return True


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


class ShapeClass(namedtuple("ShapeClass", "tag param", defaults=(None,))):
    """A shape family tag plus its size parameter, if the family has one.

    For chains the parameter is the number of elements; for ladders it
    is the rung count of either rail.

    Fields: ``tag: str`` and ``param: int | None = None``.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return self.tag if self.param is None else f"{self.tag}({self.param})"


@lru_cache(maxsize=128)
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


@lru_cache(maxsize=128)
def shape_template(shape: ShapeClass) -> FinitePoset:
    """A concrete poset of the given shape, on synthetic string labels.

    Memoised: posets are immutable, so every caller can share one.
    """
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
    """Match a poset against the zoo with at most one isomorphism test.

    Past a point and a chain, every family has a unique bottom and top.
    Whether the bottom has one upper cover (a stem) and the top one
    lower cover (a merge below the top) picks the one ladder family to
    try; its one-rung ladder of the first kind is the stretched diamond.
    """
    if len(p) == 1:
        return ShapeClass(POINT)
    if p.is_chain():
        return ShapeClass(CHAIN, len(p))
    mins, maxs = p.minimal_elements(), p.maximal_elements()
    if len(mins) != 1 or len(maxs) != 1:
        return ShapeClass(UNRECOGNIZED)
    stem, mid = len(p.upper_covers(mins[0])) == 1, len(p.lower_covers(maxs[0])) == 1
    tag = (LADDER_A if mid else LADDER_B) if stem else (LADDER_C if mid else LADDER_D)
    m = _ladder_param(tag, len(p))
    if m is None or not are_isomorphic(p, _ladder_template(tag, m)):
        return ShapeClass(UNRECOGNIZED)
    return ShapeClass(STRETCHED_DIAMOND) if (tag, m) == (LADDER_A, 1) else ShapeClass(tag, m)
