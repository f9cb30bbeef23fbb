"""The report records: immutable NamedTuples compared, hashed and shown by field."""

import pytest

from dcbruhat import parabolic, poset, spherical, weights
from dcbruhat.symgroup import json_text

_TABLE = parabolic.decompose(5, frozenset({1, 3, 4}), frozenset({1, 4}))
_REPORT = spherical.verify_theorem(5)
_SCAN = weights.tight_scan(4)

#: One instance of each record type of the package.
RECORDS = [
    _REPORT.rows[0].actual_shape,
    _TABLE.entries[0],
    _TABLE,
    _REPORT.rows[0].case,
    _REPORT.rows[0],
    _REPORT,
    weights.orbit_poset((2, 1, 0)),
    _SCAN.rows[0],
    _SCAN,
]

RECORD_TYPES = {
    poset.ShapeClass,
    parabolic.CosetEntry,
    parabolic.DoubleCosetTable,
    spherical.SphericalCase,
    spherical.CaseResult,
    spherical.VerificationReport,
    weights.OrbitPoset,
    weights.TightRow,
    weights.TightScanReport,
}

by_type = pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)


def test_every_record_type_is_covered():
    assert {type(r) for r in RECORDS} == RECORD_TYPES


@by_type
def test_fields_refuse_assignment(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@by_type
def test_equal_fields_give_equal_records_and_hashes(record):
    twin = type(record)(**record._asdict())
    assert twin is not record
    assert twin == record
    assert hash(twin) == hash(record)
    first = record._fields[0]
    assert record._replace(**{first: None}) != record


@by_type
def test_repr_names_every_field(record):
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"


@by_type
def test_json_text_refuses_a_record(record):
    with pytest.raises(TypeError):
        json_text(record)


def test_shape_templates_stay_shared():
    for shape in (poset.ShapeClass(poset.CHAIN, 3), poset.ShapeClass(poset.LADDER_B, 2)):
        again = poset.ShapeClass(shape.tag, shape.param)
        assert poset.shape_template(again) is poset.shape_template(shape)


def test_coset_table_is_a_plain_record():
    table = parabolic.DoubleCosetTable(**_TABLE._asdict())
    assert not hasattr(table, "__dict__")
    assert table.entries == _TABLE.entries
    for name in ("entries", "label"):
        with pytest.raises(AttributeError):
            setattr(table, name, None)
