"""The catalogue of spherical pairs and its structural predictions."""

import itertools
import json

import pytest

from dcbruhat import spherical
from dcbruhat.bruhat import leq
from dcbruhat.parabolic import max_representatives
from dcbruhat.poset import UNRECOGNIZED, FinitePoset, ShapeClass, classify_shape
from dcbruhat.spherical import (
    NoClosedFormBottom,
    SphericalCase,
    _coset_table,
    _family_rows,
    _structure,
    build_xplus_poset,
    predicted_bottom,
    shape_in_family,
    spherical_pairs,
    verify_case,
    verify_theorem,
)
from dcbruhat.symgroup import full_genset, longest_element, parse_perm
from oracles import (
    _classify,
    alt_bottom_length,
    labelled_verify_case,
    labelled_verify_theorem,
    matches_family,
    poset_from_relation,
)


def by_complements(degree):
    return {(c.i_complement, c.j_complement): c for c in spherical_pairs(degree)}


def test_catalogue_sizes():
    assert len(spherical_pairs(4)) == 30
    assert len(spherical_pairs(5)) == 64
    assert len(spherical_pairs(6)) == 134
    assert len(spherical_pairs(7)) == 262


def all_subsets_pairs(degree):
    """``spherical_pairs`` as first written: every right complement for every index."""
    n = degree - 1
    point = ShapeClass("point")
    subsets = [tuple(i for i in range(1, n + 1) if mask >> (i - 1) & 1) for mask in range(1 << n)]
    cases = [SphericalCase(degree, (), jc, "trivial", point) for jc in subsets]
    for i in range(1, n + 1):
        cases.append(SphericalCase(degree, (i,), (), "trivial", point))
        for jc in subsets[1:]:
            hit = _classify(degree, i, jc)
            if hit is not None:
                cases.append(SphericalCase(degree, (i,), jc, *hit))
    cases.sort(key=lambda c: (c.i_complement, c.j_complement))
    return cases


def test_spherical_pairs_matches_the_all_subsets_oracle():
    for degree in range(2, 17):
        assert spherical_pairs(degree) == all_subsets_pairs(degree), degree


@pytest.mark.slow
@pytest.mark.parametrize("degree", range(17, 20))
def test_spherical_pairs_matches_the_all_subsets_oracle_degrees_17_to_19(degree):
    assert spherical_pairs(degree) == all_subsets_pairs(degree)


@pytest.mark.parametrize("degree", range(20, 41))
def test_family_rows_match_the_classifier(degree):
    # every right complement the families can take has one or two
    # indices; the trivial and projective rows are listed by subsets
    indices = range(1, degree)
    one_or_two = [jc for r in (1, 2) for jc in itertools.combinations(indices, r)]
    expected = set()
    for i, jc in itertools.product(indices, one_or_two):
        hit = _classify(degree, i, jc)
        if hit is not None and hit[0] != "projective-factor":
            expected.add(SphericalCase(degree, (i,), jc, *hit))
    rows = list(_family_rows(degree))
    assert len(rows) == len(set(rows))
    assert set(rows) == expected


def test_trivial_rows():
    cases = by_complements(5)
    assert cases[((), (1, 3))].tag == "trivial"
    assert cases[((2,), ())].tag == "trivial"
    assert cases[((), ())].tag == "trivial"
    assert ((1, 2), (1,)) not in cases  # two missing left indices is not spherical


def test_tags_for_degree_six():
    cases = by_complements(6)
    assert cases[((2,), (3,))].tag == "grassmannian-pair"
    assert cases[((4,), (2, 3))].tag == "consecutive-pair"
    assert cases[((1,), (2, 4))].tag == "projective-factor"
    assert cases[((2,), (2, 4))].tag == "diamond"
    assert cases[((4,), (2, 4))].tag == "diamond"
    # the one ladder family column at this degree
    assert cases[((2,), (1, 3))].tag == "ladder-c"
    assert cases[((3,), (1, 3))].tag == "ladder-a"
    assert cases[((4,), (1, 3))].tag == "ladder-b"
    assert cases[((2,), (3, 5))].tag == "ladder-b"
    assert cases[((3,), (3, 5))].tag == "ladder-a"
    assert cases[((4,), (3, 5))].tag == "ladder-c"


def test_tags_for_degree_seven():
    cases = by_complements(7)
    expected = {
        (1, 3): {2: "ladder-c", 3: "ladder-a", 4: "ladder-a", 5: "ladder-b"},
        (1, 4): {2: "ladder-c", 3: "ladder-c", 4: "ladder-b", 5: "ladder-b"},
        (3, 6): {2: "ladder-b", 3: "ladder-b", 4: "ladder-c", 5: "ladder-c"},
        (4, 6): {2: "ladder-b", 3: "ladder-a", 4: "ladder-a", 5: "ladder-c"},
    }
    for jc, column in expected.items():
        for i, tag in column.items():
            assert cases[((i,), jc)].tag == tag, ((i,), jc)
    for pq in ((2, 4), (2, 5), (3, 5)):
        assert cases[((2,), pq)].tag == "diamond"
        assert cases[((5,), pq)].tag == "diamond"


def test_mirrored_cases_normalize():
    cases = by_complements(7)
    direct = cases[((3,), (1, 4))]
    assert not direct.mirrored and direct.norm == (3, 4)
    flipped = cases[((4,), (3, 6))]
    assert flipped.mirrored and flipped.norm == (3, 4)
    mirrored_diamond = cases[((5,), (2, 4))]
    assert mirrored_diamond.mirrored and mirrored_diamond.norm == (3, 5)


def test_predicted_bottom_values():
    cases6 = by_complements(6)
    cases7 = by_complements(7)
    cases8 = by_complements(8)
    expected = [
        (cases6, ((2,), (2, 4)), "2 1 6 5 4 3"),
        (cases6, ((4,), (2, 4)), "4 3 2 1 6 5"),
        (cases6, ((3,), (1, 3)), "3 2 1 6 5 4"),
        (cases7, ((3,), (1, 4)), "3 7 2 1 6 5 4"),
        (cases7, ((4,), (1, 3)), "4 3 2 7 6 5 1"),
        (cases7, ((4,), (3, 6)), "4 3 2 7 6 1 5"),
        (cases7, ((5,), (2, 4)), "5 4 3 2 7 6 1"),
        (cases7, ((5,), (3, 5)), "5 4 3 2 1 7 6"),
        (cases8, ((4,), (1, 5)), "4 8 3 2 1 7 6 5"),
    ]
    for cases, key, word in expected:
        assert predicted_bottom(cases[key]) == parse_perm(word), key


def test_predicted_bottom_only_for_closed_forms():
    cases = by_complements(5)
    with pytest.raises(NoClosedFormBottom):
        predicted_bottom(cases[((2,), (3,))])
    with pytest.raises(NoClosedFormBottom):
        predicted_bottom(cases[((), ())])


def test_alt_bottom_length():
    assert alt_bottom_length(4, 5) == 11
    assert alt_bottom_length(5, 6) == 17
    with pytest.raises(ValueError):
        alt_bottom_length(3, 5)
    with pytest.raises(ValueError):
        alt_bottom_length(5, 5)


def test_figure_case_poset():
    p = build_xplus_poset(6, (2,), (2, 4))
    assert len(p) == 6
    assert p.bottom() == (2, 1, 6, 5, 4, 3)
    assert p.top() == longest_element(6)
    assert classify_shape(p) == ShapeClass("stretched-diamond")
    assert set(p.covers) == {
        ((2, 1, 6, 5, 4, 3), (6, 2, 5, 1, 4, 3)),
        ((6, 2, 5, 1, 4, 3), (6, 2, 5, 4, 3, 1)),
        ((6, 2, 5, 1, 4, 3), (6, 5, 2, 1, 4, 3)),
        ((6, 2, 5, 4, 3, 1), (6, 5, 4, 2, 3, 1)),
        ((6, 5, 2, 1, 4, 3), (6, 5, 4, 2, 3, 1)),
        ((6, 5, 4, 2, 3, 1), (6, 5, 4, 3, 2, 1)),
    }


def test_one_rung_ladders_by_hand():
    # same right pair, three left columns, three different families
    kite = build_xplus_poset(6, (2,), (1, 3))
    assert set(kite.elements) == {
        (2, 6, 1, 5, 4, 3),
        (6, 2, 1, 5, 4, 3),
        (2, 6, 5, 4, 3, 1),
        (6, 5, 2, 4, 3, 1),
        (6, 5, 4, 3, 2, 1),
    }
    assert classify_shape(kite) == ShapeClass("ladder-c", 1)
    b1 = build_xplus_poset(6, (4,), (1, 3))
    assert set(b1.elements) == {
        (4, 3, 2, 6, 5, 1),
        (4, 6, 3, 5, 2, 1),
        (6, 4, 3, 5, 2, 1),
        (4, 6, 5, 3, 2, 1),
        (6, 5, 4, 3, 2, 1),
    }
    assert classify_shape(b1) == ShapeClass("ladder-b", 1)
    # the a-family at its smallest parameter coincides with the diamond
    a1 = build_xplus_poset(6, (3,), (1, 3))
    assert classify_shape(a1) == ShapeClass("stretched-diamond")
    assert a1.height() == 4


def test_matches_family_accepts_the_small_overlap():
    cases = by_complements(6)
    a1 = build_xplus_poset(6, (3,), (1, 3))
    assert matches_family(a1, cases[((3,), (1, 3))].predicted_shape)
    kite = build_xplus_poset(6, (2,), (1, 3))
    assert matches_family(kite, cases[((2,), (1, 3))].predicted_shape)
    assert not matches_family(kite, cases[((4,), (1, 3))].predicted_shape)


def test_verify_case_figure():
    cases = by_complements(6)
    result = verify_case(cases[((2,), (2, 4))])
    assert result.size == 6
    assert result.lattice_ok and result.shape_ok and result.bounds_ok
    assert result.bottom_ok
    assert result.passed


def test_lattice_witness_is_named_only_on_failure():
    cases = by_complements(6)
    ok = verify_case(cases[((2,), (2, 4))])
    assert ok.lattice_witness is None
    assert "lattice" not in ok.notes()
    bad = ok._replace(lattice_ok=False, lattice_witness=((2, 1, 6, 5, 4, 3), (6, 5, 4, 3, 2, 1)))
    assert not bad.passed
    assert bad.notes() == (
        "not a lattice: 2 1 6 5 4 3 and 6 5 4 3 2 1 lack a join or a meet"
    )


def test_verify_case_keeps_the_witness_of_a_non_lattice():
    # outside the catalogue: two missing left indices.  The two pairs
    # share one Hasse diagram, so the second reads the first's verdict
    # from the memo and maps it onto its own elements.
    cases = [
        SphericalCase(4, ic, ic, "uncatalogued", ShapeClass(UNRECOGNIZED))
        for ic in ((1, 2), (2, 3))
    ]
    for case in cases:
        table = _coset_table(4, case.i_complement, case.j_complement)
        assert table.cover_masks == (6, 24, 24, 32, 32, 64, 0)
    _structure.cache_clear()
    first, second = map(verify_case, cases)
    assert _structure.cache_info()[:2] == (1, 1)  # (hits, misses)
    assert not first.lattice_ok and not second.lattice_ok
    assert first.lattice_witness == ((1, 4, 3, 2), (2, 1, 4, 3))
    assert first.notes().startswith("not a lattice: 1 4 3 2 and 2 1 4 3 lack a join or a meet")
    assert second.lattice_witness == ((2, 1, 4, 3), (3, 2, 1, 4))
    assert second.notes().startswith("not a lattice: 2 1 4 3 and 3 2 1 4 lack a join or a meet")
    assert [first, second] == [labelled_verify_case(case) for case in cases]


def test_verify_case_builds_only_the_longest_members_it_reads(monkeypatch):
    built = []
    read_longest, verify = spherical._read_longest, spherical.verify_case

    def counted_read(rows, flat):
        built[-1] += 1
        return read_longest(rows, flat)

    def counted_verify(case):
        built.append(0)
        return verify(case)

    monkeypatch.setattr(spherical, "_read_longest", counted_read)
    monkeypatch.setattr(spherical, "verify_case", counted_verify)
    report = spherical.verify_theorem(6)
    assert len(built) == len(report.rows) == len(spherical_pairs(6))
    for row, count in zip(report.rows, built):
        # the bottom and the top, plus a witness pair on a non-lattice
        assert count == 2 if row.lattice_ok else count <= 4, row.case
    # two uncatalogued non-lattices: the witness, the bottom and the top
    built.clear()
    for ic in ((1, 2), (2, 3)):
        counted_verify(SphericalCase(4, ic, ic, "uncatalogued", ShapeClass(UNRECOGNIZED)))
    assert built == [4, 4]


def assert_report_matches_the_labelled_oracle(degree):
    report, expected = verify_theorem(degree), labelled_verify_theorem(degree)
    assert report.to_json() == expected.to_json()
    assert report.to_table() == expected.to_table()


@pytest.mark.parametrize("degree", range(2, 10))
def test_verify_theorem_matches_the_labelled_oracle(degree):
    assert_report_matches_the_labelled_oracle(degree)


@pytest.mark.slow
@pytest.mark.parametrize("degree", range(10, 14))
def test_verify_theorem_matches_the_labelled_oracle_degrees_10_to_13(degree):
    assert_report_matches_the_labelled_oracle(degree)


def test_a_sweep_over_degrees_4_to_8_builds_19_diagrams():
    _structure.cache_clear()
    for degree in range(4, 9):
        verify_theorem(degree)
    assert _structure.cache_info().misses == 19


def test_the_structure_memo_keeps_no_poset():
    verdict = _structure(_coset_table(6, (2,), (2, 4)).cover_masks)
    assert verdict == (True, None, ShapeClass("stretched-diamond"), (0,), (5,), 4, 1)
    assert not any(isinstance(x, FinitePoset) for x in verdict)


def test_verify_theorem_small_degrees_pass():
    for degree in (4, 5):
        report = verify_theorem(degree)
        assert report.all_pass
        assert not report.failures()


def test_verify_theorem_detects_the_tall_ladders():
    report = verify_theorem(6)
    assert not report.all_pass
    failing = {(r.case.i_complement, r.case.j_complement) for r in report.failures()}
    assert failing == {((3,), (1, 3)), ((3,), (3, 5))}
    for r in report.failures():
        assert r.case.tag == "ladder-a"
        assert r.height_ok is False  # only the height claim breaks
        assert r.lattice_ok and r.shape_ok and r.bounds_ok and r.bottom_ok
        assert r.height == 4


def test_verify_report_json():
    report = verify_theorem(4)
    doc = json.loads(report.to_json())
    assert doc["degree"] == 4
    assert doc["all_pass"] is True
    assert len(doc["cases"]) == 30
    row = doc["cases"][0]
    assert row["I_complement"] == []
    assert row["tag"] == "trivial"
    assert row["passed"] is True


def test_taller_ladder_at_degree_eight():
    # first parameter where the d-family appears
    cases = by_complements(8)
    case = cases[((4,), (1, 5))]
    assert case.tag == "ladder-d"
    p = build_xplus_poset(8, (4,), (1, 5))
    assert classify_shape(p).tag == "ladder-d"
    assert p.bottom() == predicted_bottom(case)
    assert p.top() == longest_element(8)


@pytest.mark.parametrize("degree", [4, 5, 6, 7, 8])
def test_shape_in_family_agrees_with_matches_family(degree):
    for case in spherical_pairs(degree):
        poset = build_xplus_poset(degree, case.i_complement, case.j_complement)
        expected = matches_family(poset, case.predicted_shape)
        assert shape_in_family(classify_shape(poset), case.predicted_shape) == expected, case.key()


def pairwise_xplus_poset(degree, ic, jc):
    """X+ as first built: the longest members, compared pairwise by ``leq``."""
    full = full_genset(degree)
    return poset_from_relation(max_representatives(degree, full - ic, full - jc), leq)


def assert_xplus_matches_pairwise_build(degree):
    complements = [
        frozenset(s) for r in range(degree) for s in itertools.combinations(range(1, degree), r)
    ]
    for ic, jc in itertools.product(complements, repeat=2):
        built = build_xplus_poset(degree, ic, jc)
        expected = pairwise_xplus_poset(degree, ic, jc)
        assert built.elements == expected.elements, (ic, jc)
        assert set(built.covers) == set(expected.covers), (ic, jc)


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_xplus_matches_pairwise_build_on_every_pair(degree):
    assert_xplus_matches_pairwise_build(degree)


@pytest.mark.slow
def test_xplus_matches_pairwise_build_on_every_pair_degree6():
    assert_xplus_matches_pairwise_build(6)
