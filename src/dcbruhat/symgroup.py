"""
Arithmetic for permutations of {1, ..., m} in one-line notation.

A permutation w is stored as a tuple of ints ``(w(1), ..., w(m))`` with
1-based values, so ``w[i - 1]`` is the image of ``i`` and the degree m
is ``len(w)``.  The simple transposition with index i, for i in
``1..m-1``, exchanges i and i+1; generating sets ("gensets") of simple
transpositions are frozensets of such indices.

Everything here is an immutable value and every function is pure, so
results can be cached and shared freely.

Text formats, shared by the CLI and the serializers:

* permutation: space-separated values, ``"2 1 6 5 4 3"``
* genset: comma-separated indices in braces, ``"{2,4}"`` (empty: ``"{}"``)
* report documents: indented JSON with sorted keys, from ``json_text``
"""
from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

try:
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter built without the C accelerator
    from json.encoder import encode_basestring_ascii

Perm = tuple[int, ...]
GenSet = frozenset[int]

#: Largest degree the enumeration helpers accept unless told otherwise.
DEFAULT_DEGREE_CAP = 8


class CapExceeded(RuntimeError):
    """An operation would enumerate past its configured resource cap."""


def check_word(word: Sequence[int]) -> Perm:
    """Validate one-line notation: each of 1..m must occur exactly once.

    >>> check_word([2, 1, 3])
    (2, 1, 3)
    """
    w = tuple(word)
    if len(w) < 1 or sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation word: {format_perm(w)}")
    return w


def identity(degree: int) -> Perm:
    if degree < 1:
        raise ValueError(f"degree must be at least 1, got {degree}")
    return tuple(range(1, degree + 1))


def longest_element(degree: int) -> Perm:
    """The order-reversing permutation, the unique one of maximal length.

    >>> longest_element(4)
    (4, 3, 2, 1)
    """
    if degree < 1:
        raise ValueError(f"degree must be at least 1, got {degree}")
    return tuple(range(degree, 0, -1))


def length(w: Perm) -> int:
    """Coxeter length: the number of inversions of the word.

    The straightforward O(m^2) count, fine at the degrees we enumerate.

    >>> length((1, 2, 3))
    0
    >>> length((2, 1, 6, 5, 4, 3))
    7
    """
    return sum(
        1
        for a in range(len(w))
        for b in range(a + 1, len(w))
        if w[a] > w[b]
    )


def compose(u: Perm, v: Perm) -> Perm:
    """The product u after v: ``compose(u, v)(i) = u(v(i))``.

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    if len(u) != len(v):
        raise ValueError(f"degree mismatch: {len(u)} vs {len(v)}")
    return tuple(u[x - 1] for x in v)


def inverse(w: Perm) -> Perm:
    """
    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    out = [0] * len(w)
    for pos, val in enumerate(w):
        out[val - 1] = pos + 1
    return tuple(out)


def mult_right(w: Perm, i: int) -> Perm:
    """w times the simple transposition with index i (swaps positions i, i+1)."""
    if not 1 <= i <= len(w) - 1:
        raise ValueError(f"simple transposition index {i} out of range for degree {len(w)}")
    out = list(w)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def right_descents(w: Perm) -> GenSet:
    """Indices i with w_i > w_{i+1}, i.e. right multiplication drops the length.

    >>> sorted(right_descents((2, 1, 6, 5, 4, 3)))
    [1, 3, 4, 5]
    """
    return frozenset(i for i in range(1, len(w)) if w[i - 1] > w[i])


def right_ascents(w: Perm) -> GenSet:
    """Indices i with w_i < w_{i+1}.

    >>> sorted(right_ascents((2, 1, 6, 5, 4, 3)))
    [2]
    """
    return frozenset(i for i in range(1, len(w)) if w[i - 1] < w[i])


def all_permutations(degree: int, cap: int | None = DEFAULT_DEGREE_CAP) -> Iterator[Perm]:
    """All of S_degree in lexicographic order of one-line words.

    Refuses degrees above the cap; the enumeration is factorial-sized.

    >>> list(all_permutations(3))[0]
    (1, 2, 3)
    >>> list(all_permutations(3))[-1]
    (3, 2, 1)
    """
    if degree < 1:
        raise ValueError(f"degree must be at least 1, got {degree}")
    if cap is not None and degree > cap:
        raise CapExceeded(f"degree {degree} exceeds the enumeration cap {cap}")
    return iter(itertools.permutations(range(1, degree + 1)))


def full_genset(degree: int) -> GenSet:
    """All simple transposition indices for the given degree."""
    if degree < 1:
        raise ValueError(f"degree must be at least 1, got {degree}")
    return frozenset(range(1, degree))


def check_genset(gens: Iterable[int], degree: int) -> GenSet:
    s = frozenset(gens)
    bad = [i for i in s if not (isinstance(i, int) and 1 <= i <= degree - 1)]
    if bad:
        raise ValueError(f"genset members {sorted(bad)!r} out of range for degree {degree}")
    return s


def genset_complement(gens: Iterable[int], degree: int) -> GenSet:
    """Complement within the full genset; an involution.

    >>> sorted(genset_complement({2, 4}, 6))
    [1, 3, 5]
    """
    return full_genset(degree) - check_genset(gens, degree)


def parse_perm(text: str) -> Perm:
    """Parse space-separated one-line notation.

    >>> parse_perm("2 1 6 5 4 3")
    (2, 1, 6, 5, 4, 3)
    """
    parts = text.split()
    if not parts:
        raise ValueError("empty permutation text")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"bad permutation text: {text!r}") from None
    return check_word(values)


def format_perm(w: Perm) -> str:
    """
    >>> format_perm((2, 1, 6, 5, 4, 3))
    '2 1 6 5 4 3'
    """
    return " ".join(str(x) for x in w)


def parse_genset(text: str) -> GenSet:
    """Parse brace-and-comma genset notation.

    >>> sorted(parse_genset("{2,4}"))
    [2, 4]
    >>> parse_genset("{}")
    frozenset()
    """
    stripped = text.strip()
    if not (stripped.startswith("{") and stripped.endswith("}")):
        raise ValueError(f"bad genset text: {text!r}")
    body = stripped[1:-1].strip()
    if not body:
        return frozenset()
    try:
        return frozenset(int(p.strip()) for p in body.split(","))
    except ValueError:
        raise ValueError(f"bad genset text: {text!r}") from None


def format_genset(gens: Iterable[int]) -> str:
    """
    >>> format_genset({4, 2})
    '{2,4}'
    """
    return "{" + ",".join(str(i) for i in sorted(gens)) + "}"


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def json_text(obj) -> str:
    """Exactly ``json.dumps(obj, sort_keys=True, indent=2)``, without its Python encoder.

    With ``indent`` set the standard library encodes in pure Python;
    this writer dispatches on exact types and escapes strings with the
    C helper ``_json.encode_basestring_ascii``, the very function
    ``json.encoder`` re-exports, so importing it does not load the
    ``json`` package (``json.encoder``'s copy serves where ``_json`` is
    missing).  It accepts only what the reports emit (dicts with string
    keys, lists, strings, ints, bools and None) and raises ``TypeError``
    on anything else, floats and tuples included, so its output cannot
    drift from the standard encoder's.

    >>> print(json_text({"b": [1, None], "a": {}}))
    {
      "a": {},
      "b": [
        1,
        null
      ]
    }
    """
    parts: list[str] = []
    _json_parts(obj, "\n", parts)
    return "".join(parts)


def _json_parts(obj, newline: str, out: list[str]) -> None:
    """Append the pieces of obj's text to out; newline carries the indent."""
    kind = type(obj)
    if kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is bool or obj is None:
        out.append(_JSON_CONSTANTS[obj])
    elif kind is list:
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            sep = "," + inner
            kind = type(item)
            if kind is int:
                out.append(int.__repr__(item))
            elif kind is str:
                out.append(encode_basestring_ascii(item))
            else:
                _json_parts(item, inner, out)
        out.append(newline + "]")
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        if any(type(key) is not str for key in obj):
            raise TypeError("json_text takes only string keys")
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep)
            sep = "," + inner
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            value = obj[key]
            kind = type(value)
            if kind is int:
                out.append(int.__repr__(value))
            elif kind is str:
                out.append(encode_basestring_ascii(value))
            elif kind is bool or value is None:
                out.append(_JSON_CONSTANTS[value])
            else:
                _json_parts(value, inner, out)
        out.append(newline + "}")
    else:
        raise TypeError(f"json_text cannot encode {kind.__name__}")
