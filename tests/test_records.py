"""The frozen-record contract of every value record in the package."""

import functools
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import bchbound
from bchbound.bounds import (
    ApparentDistanceReport,
    certify_equality,
    code_apparent_distance,
)
from bchbound.codes import CyclicCode, bch_code
from bchbound.errors import NotCosetClosed, OrderUnavailable, RootMismatch
from bchbound.forge import primitive_family
from bchbound.galois import RootOfUnity, build_field, root_from_x
from bchbound.modring import CosetPartition, cyclotomic_cosets
from bchbound.polyring import QuotientPoly, factor_xn
from bchbound.records import Record, replace
from bchbound.spectral import dft
from bchbound.tables import golden_rows
from bchbound.wtdist import min_distance

ROOT = root_from_x(build_field(2, 4, (1, 1, 0, 0, 1)), 15)
CODE = bch_code(ROOT, 5, 1)
WORD = QuotientPoly.from_ints(ROOT.spec, 15, [1, 1, 0, 1])
RECORDS = [
    code_apparent_distance(CODE),
    certify_equality(CODE),
    CODE,
    primitive_family(ROOT)[0],
    ROOT,
    cyclotomic_cosets(15, 2),
    WORD,
    factor_xn(15, ROOT),
    dft(WORD, ROOT),
    golden_rows("n15")[0],
    min_distance(CODE),
]


def _values(record):
    return tuple(getattr(record, name) for name in record.__match_args__)


def test_every_record_class_is_covered():
    assert {type(r) for r in RECORDS} == set(Record.__subclasses__())
    assert len(RECORDS) == 11


@pytest.fixture(params=RECORDS, ids=lambda r: type(r).__name__)
def record(request):
    return request.param


def test_equal_fields_give_equal_records(record):
    twin = type(record)(*_values(record))
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert {twin, record} == {record}
    assert pickle.loads(pickle.dumps(record)) == record


def test_a_record_equals_no_tuple_and_no_other_class(record):
    values = _values(record)
    assert record != values and values != record

    class Twin(type(record)):
        pass

    assert record != Twin(*values) and Twin(*values) != record
    assert all(record != other for other in RECORDS if type(other) is not type(record))
    with pytest.raises(TypeError):
        iter(record)
    with pytest.raises(TypeError):
        record < record  # noqa: B015


def test_fields_can_be_neither_assigned_nor_deleted(record):
    name = record.__match_args__[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is before


def test_repr_names_each_field(record):
    body = ", ".join(f"{name}={getattr(record, name)!r}"
                     for name in record.__match_args__)
    assert repr(record) == f"{type(record).__name__}({body})"


def test_repr_matches_the_dataclass_form():
    assert (repr(ApparentDistanceReport(3, (1, 7)))
            == "ApparentDistanceReport(overall=3, optimal_reps=(1, 7))")
    assert repr(CosetPartition(3, 2, ((0,), (1, 2)))) == (
        "CosetPartition(n=3, q=2, cosets=((0,), (1, 2)))")


@pytest.mark.parametrize("cls,attr,make", [
    (RootOfUnity, "powers", lambda: RootOfUnity(ROOT.spec, ROOT.value, 15)),
    (CyclicCode, "generator", lambda: CyclicCode(ROOT, CODE.defining_set)),
    (CosetPartition, "label", lambda: CosetPartition(*_values(cyclotomic_cosets(15, 2)))),
], ids=["RootOfUnity.powers", "CyclicCode.generator", "CosetPartition.label"])
def test_derived_values_are_computed_once(monkeypatch, cls, attr, make):
    calls = []
    original = getattr(cls, attr).func

    def counted(self):
        calls.append(self)
        return original(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(cls, attr)
    monkeypatch.setattr(cls, attr, prop)
    fresh, twin = make(), make()
    first = getattr(fresh, attr)
    assert getattr(fresh, attr) is first and len(calls) == 1
    # a cached value takes no part in equality, hashing or the repr
    assert fresh == twin and hash(fresh) == hash(twin)
    assert repr(fresh) == repr(twin)


def test_replace_changes_fields_and_keeps_the_rest():
    row = golden_rows("n15")[0]
    bumped = replace(row, min_distance=row.min_distance + 1, flag="x")
    assert (bumped.min_distance, bumped.flag) == (row.min_distance + 1, "x")
    assert _values(bumped)[:4] == _values(row)[:4]
    assert replace(row) == row
    with pytest.raises(TypeError):
        replace(row, distance=3)


def test_replace_runs_each_records_checks():
    with pytest.raises(NotCosetClosed):
        replace(CODE, defining_set=frozenset({1}))
    with pytest.raises(TypeError, match="frozenset"):
        replace(CODE, defining_set=set(CODE.defining_set))
    with pytest.raises(OrderUnavailable):
        replace(ROOT, value=1)
    with pytest.raises(RootMismatch):
        replace(dft(WORD, ROOT), n=5)


def test_start_up_imports_neither_dataclasses_nor_inspect():
    src = pathlib.Path(bchbound.__file__).parents[1]
    probe = ("import sys, bchbound.cli, bchbound.tables; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.strip() == "[]"

