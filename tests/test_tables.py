import importlib.util
import io
import pathlib

import pytest

from bchbound import tables
from bchbound.errors import UnknownTable


def test_golden_row_counts():
    counts = {"small-codes": 59, "n15": 4, "n21": 6, "n45": 3, "n33": 2,
              "n41": 1, "n17": 1, "bose21": 1}
    for table, count in counts.items():
        assert len(tables.golden_rows(table)) == count


def test_unknown_table():
    with pytest.raises(UnknownTable):
        tables.golden_rows("n99")


def test_small_codes_flags():
    rows = tables.golden_rows("small-codes")
    flags = [r.flag for r in rows if r.flag]
    assert flags.count("dup") == 2
    assert flags.count("amended") == 4
    # the duplicated rows really are copies of earlier ones
    seen = set()
    for row in rows:
        if row.flag == "dup":
            assert row.key() in seen
        seen.add(row.key())


def test_recompute_matches_golden_everywhere():
    for table in tables.TABLE_IDS:
        golden = tables.golden_rows(table)
        fresh = tables.recompute(table)
        assert len(golden) == len(fresh)
        for want, got in zip(golden, fresh):
            assert want == got, f"{table}: {want} != {got}"


def test_write_csv_round_trips():
    rows = tables.golden_rows("n45")
    buf = io.StringIO()
    tables.write_csv(rows, buf)
    text = buf.getvalue()
    assert text.splitlines()[0].startswith("n,q,complement_defining_set")
    assert "45,2,0;5;7;9;15;21,29,5,5,5," in text


def test_dimension_is_complement_size():
    for table in tables.TABLE_IDS:
        for row in tables.golden_rows(table):
            from bchbound.modring import coset_closure
            comp = coset_closure(row.complement_reps, row.n, row.q)
            assert row.dimension == len(comp)


def test_golden_files_regenerate_byte_for_byte():
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts/regen_golden.py"
    spec = importlib.util.spec_from_file_location("regen_golden", script)
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    names = []
    for name, header, rows, comments in regen.golden_tables():
        names.append(name)
        shipped = (regen.GOLDEN / f"{name}.csv").read_text()
        assert regen.render(header, rows, comments) == shipped, name
    assert len(names) == len(tables.TABLE_IDS) == 8
