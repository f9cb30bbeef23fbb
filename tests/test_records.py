"""The records: immutable named tuples compared, hashed and shown by field."""

import pytest

from dcbruhat import cli, parabolic, poset, spherical, weights
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
    cli.COMMANDS["cosets"][2][0],
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
    cli.Option,
}

#: Each record type's name, fields in order and field defaults, as they
#: stood when the records were ``typing.NamedTuple`` classes.
RECORD_SHAPES = [
    (poset.ShapeClass, "ShapeClass", ("tag", "param"), {"param": None}),
    (parabolic.CosetEntry, "CosetEntry", ("min_rep", "max_rep", "size"), {}),
    (parabolic.DoubleCosetTable, "DoubleCosetTable",
     ("degree", "left_gens", "right_gens", "max_reps", "tables", "cover_masks"), {}),
    (spherical.SphericalCase, "SphericalCase",
     ("degree", "i_complement", "j_complement", "tag", "predicted_shape", "norm", "mirrored"),
     {"norm": None, "mirrored": False}),
    (spherical.CaseResult, "CaseResult",
     ("case", "size", "actual_shape", "lattice_ok", "lattice_witness", "shape_ok",
      "bounds_ok", "height", "predicted_min", "actual_min", "bottom_ok", "height_ok",
      "merge_ok"), {}),
    (spherical.VerificationReport, "VerificationReport", ("degree", "rows"), {}),
    (weights.OrbitPoset, "OrbitPoset", ("theta", "restriction", "members", "poset"), {}),
    (weights.TightRow, "TightRow",
     ("j_complement", "theta", "orbit_size", "tight", "rule_tight", "witness"), {}),
    (weights.TightScanReport, "TightScanReport", ("degree", "rows"), {}),
    (cli.Option, "Option",
     ("flag", "dest", "kind", "required", "default", "choices", "help"),
     {"kind": str, "required": False, "default": None, "choices": None, "help": None}),
]

by_type = pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)


def test_every_record_type_is_covered():
    assert {type(r) for r in RECORDS} == RECORD_TYPES
    assert {cls for cls, *_ in RECORD_SHAPES} == RECORD_TYPES


@pytest.mark.parametrize(
    "cls,name,fields,defaults", RECORD_SHAPES, ids=[name for _, name, *_ in RECORD_SHAPES]
)
def test_record_shape_is_pinned(cls, name, fields, defaults):
    assert cls.__name__ == name
    assert cls._fields == fields
    assert cls._field_defaults == defaults


@by_type
def test_fields_refuse_assignment(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@by_type
def test_records_have_no_instance_dict(record):
    # Each class sets ``__slots__ = ()``, so no record grows attributes.
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.label = None


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
