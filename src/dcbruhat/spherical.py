"""
The catalogue of generator-complement pairs whose coset posets have a
known shape, the closed-form bottom elements, and the end-to-end
verifier that rebuilds every catalogued poset and checks the claims.

Throughout, ``degree`` is the number of symbols and n = degree - 1 the
number of simple transpositions.  The catalogue is normalized so the
left complement has at most one index; instances whose natural
parameters sit at the far end of the index range are handled by the
order-reversing relabeling i -> n+1-i of the indices, which conjugates
one-line words by the longest element.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb

from .parabolic import decompose
from .poset import (
    CHAIN,
    LADDER_A,
    LADDER_B,
    LADDER_C,
    LADDER_D,
    POINT,
    STRETCHED_DIAMOND,
    FinitePoset,
    ShapeClass,
    classify_shape,
    shape_template,
    are_isomorphic,
    _ladder_param,
)
from .symgroup import (
    GenSet,
    Perm,
    check_word,
    format_genset,
    format_perm,
    full_genset,
    longest_element,
)

TAG_TRIVIAL = "trivial"
TAG_GRASSMANNIAN = "grassmannian-pair"
TAG_CONSECUTIVE = "consecutive-pair"
TAG_DIAMOND = "diamond"
TAG_PROJECTIVE = "projective-factor"

LADDER_CASE_TAGS = (LADDER_A, LADDER_B, LADDER_C, LADDER_D)


class NoClosedFormBottom(ValueError):
    """The case has no explicit bottom-element formula."""


@dataclass(frozen=True)
class SphericalCase:
    """One catalogued pair, with its tag and predicted shape.

    ``norm`` holds the normalized parameters the side conditions were
    evaluated on: (p, q) for diamonds, (i, j) for ladders, None
    otherwise.  ``mirrored`` records whether the instance was brought to
    normal form by the index-reversing relabeling.
    """

    degree: int
    i_complement: tuple[int, ...]
    j_complement: tuple[int, ...]
    tag: str
    predicted_shape: ShapeClass
    norm: tuple[int, int] | None = None
    mirrored: bool = False

    def key(self) -> str:
        return (
            f"degree {self.degree} "
            f"ic={format_genset(self.i_complement)} jc={format_genset(self.j_complement)}"
        )


def _mirror_index(i: int, degree: int) -> int:
    return degree - i


def _mirror_word(w: Perm) -> Perm:
    """Conjugation by the longest element: reverse and complement values."""
    m = len(w)
    return tuple(m + 1 - w[m - 1 - k] for k in range(m))


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


def spherical_pairs(degree: int) -> list[SphericalCase]:
    """All catalogued pairs for one degree, left complement of size <= 1.

    Pairs where either genset is everything give a single coset and are
    tagged trivial; the remaining catalogue rows have a singleton left
    complement and are classified by their side conditions.  Pairs
    matching no case are outside the catalogue and are not produced.
    """
    if degree < 2:
        raise ValueError(f"degree must be at least 2, got {degree}")
    n = degree - 1
    indices = range(1, n + 1)
    cases: list[SphericalCase] = []
    point = ShapeClass(POINT)

    def subsets():
        for mask in range(1 << n):
            yield tuple(i for i in indices if mask >> (i - 1) & 1)

    for jc in subsets():
        cases.append(SphericalCase(degree, (), jc, TAG_TRIVIAL, point))
    for i in indices:
        cases.append(SphericalCase(degree, (i,), (), TAG_TRIVIAL, point))
        for jc in subsets():
            if not jc:
                continue
            hit = _classify(degree, i, jc)
            if hit is None:
                continue
            tag, shape, norm, mirrored = hit
            cases.append(SphericalCase(degree, (i,), jc, tag, shape, norm, mirrored))
    cases.sort(key=lambda c: (c.i_complement, c.j_complement))
    return cases


def _descending(hi: int, lo: int) -> list[int]:
    """Values hi, hi-1, ..., lo; empty when hi < lo."""
    return list(range(hi, lo - 1, -1))


def predicted_bottom(case: SphericalCase) -> Perm:
    """The closed-form minimum of X+ for diamond and ladder cases.

    The formulas are written for the normalized parameters; mirrored
    instances conjugate the normalized word by the longest element.
    """
    n = case.degree - 1
    if case.tag == TAG_DIAMOND:
        p, _q = case.norm
        word = _descending(n + 1, n - p + 4) + [2, 1] + _descending(n - p + 3, 3)
    elif case.tag in LADDER_CASE_TAGS:
        i, j = case.norm
        if j <= i:
            word = (
                _descending(i, i - j + 1)
                + _descending(n + 1, i + 1)
                + _descending(i - j, 1)
            )
        else:
            word = (
                [i]
                + _descending(n + 1, n + 2 - (j - i))
                + _descending(i - 1, 1)
                + _descending(n + 1 - (j - i), i + 1)
            )
    else:
        raise NoClosedFormBottom(f"no bottom formula for case tag {case.tag!r}")
    bottom = check_word(word)
    return _mirror_word(bottom) if case.mirrored else bottom


def alt_bottom_length(q: int, n: int) -> int:
    """Length of the rejected bottom candidate in the diamond analysis.

    The diamond minimum could a priori start with the long descending
    run instead of with "2 1"; this is that word's inversion count.
    Comparing it against 1 + C(n-1, 2), the length of the chosen
    candidate, certifies the choice.
    """
    if not 3 < q < n:
        raise ValueError(f"need 3 < q < n, got q={q}, n={n}")
    return comb(n + 1, 2) + 1 - (n + 1 - q) - (n + 2 - q)


def matches_family(poset: FinitePoset, shape: ShapeClass) -> bool:
    """Membership in the predicted family, with open parameters allowed.

    A prediction with ``param=None`` accepts any member of the family;
    the concrete parameter is read off the constructed poset.
    """
    if shape.tag == POINT:
        return len(poset) == 1
    if shape.tag == CHAIN:
        return poset.is_chain() and (shape.param is None or len(poset) == shape.param)
    if shape.tag == STRETCHED_DIAMOND:
        return len(poset) == 6 and are_isomorphic(poset, shape_template(shape))
    if shape.tag in LADDER_CASE_TAGS:
        if shape.param is not None:
            return are_isomorphic(poset, shape_template(shape))
        m = _ladder_param(shape.tag, len(poset))
        return m is not None and are_isomorphic(
            poset, shape_template(ShapeClass(shape.tag, m))
        )
    return False


def _family_form(shape: ShapeClass) -> ShapeClass:
    """The shape in the families ``matches_family`` accepts it under.

    A point is the one-element chain and the stretched diamond is the
    one-rung ladder of the first kind.
    """
    if shape.tag == POINT:
        return ShapeClass(CHAIN, 1)
    if shape.tag == STRETCHED_DIAMOND:
        return ShapeClass(LADDER_A, 1)
    return shape


def shape_in_family(actual: ShapeClass, predicted: ShapeClass) -> bool:
    """``matches_family`` decided from the shape ``classify_shape`` returned.

    Saves running the isomorphism test a second time per case.
    """
    actual, predicted = _family_form(actual), _family_form(predicted)
    return actual.tag == predicted.tag and predicted.param in (None, actual.param)


@dataclass(frozen=True)
class CaseResult:
    """All verification outcomes for one catalogued pair.

    Three-state checks use None for "not applicable to this case".
    """

    case: SphericalCase
    size: int
    actual_shape: ShapeClass
    lattice_ok: bool
    shape_ok: bool
    bounds_ok: bool
    height: int
    predicted_min: Perm | None
    actual_min: Perm | None
    bottom_ok: bool | None
    height_ok: bool | None
    merge_ok: bool | None

    @property
    def passed(self) -> bool:
        hard = self.lattice_ok and self.shape_ok and self.bounds_ok
        soft = [x for x in (self.bottom_ok, self.height_ok, self.merge_ok) if x is not None]
        return hard and all(soft)

    def notes(self) -> str:
        bad = []
        if not self.lattice_ok:
            bad.append("not a lattice")
        if not self.shape_ok:
            bad.append(f"shape {self.actual_shape} not in predicted family")
        if not self.bounds_ok:
            bad.append("extremes wrong")
        if self.bottom_ok is False:
            bad.append(
                f"minimum {format_perm(self.actual_min)} differs from "
                f"formula {format_perm(self.predicted_min)}"
            )
        if self.height_ok is False:
            bad.append(f"height {self.height} exceeds the claimed bound")
        if self.merge_ok is False:
            bad.append("merge-below-top rule violated")
        return "; ".join(bad) if bad else "ok"


@dataclass(frozen=True)
class VerificationReport:
    degree: int
    rows: tuple[CaseResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def failures(self) -> list[CaseResult]:
        return [r for r in self.rows if not r.passed]

    def to_json(self) -> str:
        def word(w):
            return None if w is None else list(w)

        return json.dumps(
            {
                "degree": self.degree,
                "all_pass": self.all_pass,
                "cases": [
                    {
                        "I_complement": list(r.case.i_complement),
                        "J_complement": list(r.case.j_complement),
                        "tag": r.case.tag,
                        "size": r.size,
                        "predicted_shape": str(r.case.predicted_shape),
                        "actual_shape": str(r.actual_shape),
                        "lattice": r.lattice_ok,
                        "shape_match": r.shape_ok,
                        "bounds": r.bounds_ok,
                        "height": r.height,
                        "predicted_min": word(r.predicted_min),
                        "actual_min": word(r.actual_min),
                        "bottom_match": r.bottom_ok,
                        "height_bound": r.height_ok,
                        "merge_rule": r.merge_ok,
                        "passed": r.passed,
                        "notes": r.notes(),
                    }
                    for r in self.rows
                ],
            },
            sort_keys=True,
            indent=2,
        ) + "\n"

    def to_table(self) -> str:
        n_fail = len(self.failures())
        lines = [
            f"degree {self.degree}  cases={len(self.rows)}  "
            f"failures={n_fail}  all_pass={self.all_pass}",
            "",
            f"{'Ic':<10} {'Jc':<14} {'tag':<18} {'size':>4} {'shape':<16} "
            f"{'ok':<3} notes",
        ]
        for r in self.rows:
            lines.append(
                f"{format_genset(r.case.i_complement):<10} "
                f"{format_genset(r.case.j_complement):<14} "
                f"{r.case.tag:<18} {r.size:>4} {str(r.actual_shape):<16} "
                f"{'yes' if r.passed else 'NO':<3} {r.notes()}"
            )
        return "\n".join(lines) + "\n"


def build_xplus_poset(degree: int, i_complement, j_complement) -> FinitePoset:
    """The longest-representative set under the group order.

    This is the coset table's poset: ``decompose`` already orders the
    cosets by their longest members.
    """
    full = full_genset(degree)
    left = full - frozenset(i_complement)
    right = full - frozenset(j_complement)
    return decompose(degree, left, right).poset()


def verify_case(case: SphericalCase) -> CaseResult:
    poset = build_xplus_poset(case.degree, case.i_complement, case.j_complement)
    lattice_ok, _ = poset.is_lattice()
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
    if case.tag in LADDER_CASE_TAGS:
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
        shape_ok=shape_ok,
        bounds_ok=bounds_ok,
        height=poset.height(),
        predicted_min=pred,
        actual_min=actual_min,
        bottom_ok=bottom_ok,
        height_ok=height_ok,
        merge_ok=merge_ok,
    )


def verify_theorem(degree: int) -> VerificationReport:
    """Rebuild every catalogued poset at one degree and check all claims.

    Failures are recorded in the report, never raised.
    """
    rows = tuple(verify_case(case) for case in spherical_pairs(degree))
    return VerificationReport(degree, rows)
