import collections
import functools
import importlib.util
import io
import pathlib
import sys

import pytest

from bchbound import galois, polyring, spectral, tables
from bchbound.codes import code_from_defining_set
from bchbound.errors import UnknownTable
from bchbound.galois import build_field, nth_root, root_from_x
from bchbound.modring import coset_closure


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


def test_recompute_builds_each_roots_powers_once(monkeypatch):
    galois.nth_root.cache_clear()
    galois.root_from_x.cache_clear()
    # coset products are cached by equal roots: a warm cache would let a
    # table build no powers at all
    polyring._coset_product.cache_clear()
    built = collections.Counter()
    original = galois.RootOfUnity.powers.func

    def counted(root):
        built[root] += 1
        return original(root)

    powers = functools.cached_property(counted)
    powers.__set_name__(galois.RootOfUnity, "powers")
    monkeypatch.setattr(galois.RootOfUnity, "powers", powers)
    rows = tables.recompute("small-codes")
    assert len({(row.n, row.q) for row in rows}) > 1
    assert built and set(built.values()) == {1}


@pytest.mark.parametrize("n,m", [(21, 6), (33, 10)])
def test_roots_under_other_moduli_stay_distinct(n, m):
    # the reference modulus and the default one give GF(2^m) two bases, and
    # the two roots two different minimal polynomials
    fixed_spec = build_field(2, m, tables._MIN_POLY[n])
    default_spec = build_field(2, m)
    assert fixed_spec != default_spec
    default = nth_root(default_spec, n)
    fixed = root_from_x(fixed_spec, n)
    assert fixed != default
    assert nth_root(fixed_spec, n).spec == fixed_spec
    assert tables._root_for(n, 2) == fixed
    d = coset_closure([1], n, 2)
    generators = {code_from_defining_set(n, 2, root, d).generator.coeffs
                  for root in (fixed, default)}
    assert len(generators) == 2


def test_coset_tables_build_no_idempotent(monkeypatch):
    # a row needs the generator, the runs of each a*D and the distance; the
    # idempotent (one idft per code) is built only when something reads it
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    original = spectral.idft
    for name, module in list(sys.modules.items()):
        if name.startswith("bchbound") and getattr(module, "idft", None) is original:
            monkeypatch.setattr(module, "idft", counted)
    rows = tables.recompute("small-codes")
    assert len(rows) == 59 and calls == []
