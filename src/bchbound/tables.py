"""Registry of the published reference tables and their recomputation.

Every table row is rebuilt: its code, Bose distance and exact minimum
distance, whose search reports the BCH bound it starts from. Rows of one
length share their root, cosets and minimal polynomials. The golden CSV
files shipped under ``bchbound/golden/`` hold the expected values;
``recompute`` produces fresh rows in the same order so the two can be
diffed field by field.

Rows flagged ``dup`` repeat an earlier row of the source table and are
deduplicated before recomputation. Rows flagged ``amended`` differ from the
source table, which is internally inconsistent at those entries; the stored
values are the recomputed ones and any mismatch against them is still a real
failure.
"""

from __future__ import annotations

import csv

from .codes import CyclicCode, bch_code, bose_distance
from .errors import UnknownTable
from .forge import bch_windows, construct_from_quotient
from .galois import build_field, nth_root, root_from_x
from .modring import coset_closure, cyclotomic_cosets, multiplicative_order
from .polyring import factor_xn
from .records import Record, replace
from .wtdist import min_distance

TABLE_IDS = ("small-codes", "n15", "n21", "n45", "n33", "n41", "n17", "bose21")

# Moduli fixing the same minimal polynomial of the primitive root that the
# reference computations use. Tables built over other roots give identical
# dimensions, distances and bounds, but these keep generator words exact.
_MIN_POLY = {
    15: (1, 1, 0, 0, 1),                          # x^4 + x + 1
    21: (1, 0, 1, 0, 1, 1, 1),                    # x^6 + x^5 + x^4 + x^2 + 1
    33: (1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1),        # x^10 + x^7 + x^5 + x^3 + 1
    45: (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),  # x^12 + x^3 + 1
}


class ReportRow(Record):
    """One line of a reference table, in the complement (non-zero) convention."""

    def __init__(self, n: int, q: int, complement_reps: tuple, dimension: int,
                 min_distance: int, bch_bound: int, bose_distance: int | None,
                 flag: str = ""):
        self.__dict__.update(n=n, q=q, complement_reps=complement_reps,
                             dimension=dimension, min_distance=min_distance,
                             bch_bound=bch_bound, bose_distance=bose_distance,
                             flag=flag)

    def key(self):
        return (self.n, self.q, self.complement_reps)

    def values(self):
        return (self.dimension, self.min_distance, self.bch_bound,
                self.bose_distance)


def _root_for(n: int, q: int):
    if q == 2 and n in _MIN_POLY:
        mod = _MIN_POLY[n]
        return root_from_x(build_field(2, len(mod) - 1, mod), n)
    m = multiplicative_order(q, n)
    return nth_root(build_field(q, m), n)


def _complement_reps(n, q, complement):
    part = cyclotomic_cosets(n, q)
    return tuple(sorted(c[0] for c in part.cosets if c[0] in complement))


def _row_from_code(code):
    res = min_distance(code)
    return ReportRow(code.n, code.q,
                     _complement_reps(code.n, code.q, code.complement()),
                     code.dimension, res.distance, res.bch_bound,
                     bose_distance(code))


def _coset_code(n, q, reps):
    root = _root_for(n, q)
    complement = coset_closure(reps, n, q)
    return CyclicCode(root, frozenset(range(n)) - complement)


def _recompute_coset_rows(golden):
    """Rebuild each distinct row from (n, q, complement reps), on shared roots."""
    cache = {}
    for row in golden:
        if row.key() not in cache:
            cache[row.key()] = _row_from_code(_coset_code(*row.key()))
    return [replace(cache[row.key()], flag=row.flag) for row in golden]


def _anchored_bch_code(rec):
    """The BCH code of the window rec's divisor anchors, extend_to_bch(rec)'s
    first, with no record built for the other windows."""
    return bch_code(rec.code.root, rec.bch_bound, bch_windows(rec)[0])


def _recompute_n15():
    # without the factor of C(5), C(1) or C(7) x^15 - 1 has a rational shift,
    # without that of C(3) none; (0, 7) leaves m1 m3 m5
    factors = factor_xn(15, _root_for(15, 2))
    recs = [construct_from_quotient(factors, [rep]) for rep in (5, 1, 7)]
    recs.append(construct_from_quotient(factors, (0, 7), 0))
    return [_row_from_code(rec.code) for rec in recs]


def _recompute_n21():
    factors = factor_xn(21, _root_for(21, 2))
    recs = [construct_from_quotient(factors, [rep]) for rep in (7, 3, 9, 5, 1)]
    recs.append(construct_from_quotient(factors, (7, 9)))
    return [_row_from_code(rec.code) for rec in recs]


def _recompute_n45():
    root = _root_for(45, 2)
    rec = construct_from_quotient(factor_xn(45, root), (0, 3))
    subcode = CyclicCode(root, coset_closure([1, 3, 9], 45, 2))
    return [_row_from_code(rec.code), _row_from_code(subcode),
            _row_from_code(_anchored_bch_code(rec))]


def _recompute_n33():
    # m1 m3 m5 = x^22 + x^11 + 1 = (x^33 - 1) / (x^11 - 1)
    root = _root_for(33, 2)
    rec = construct_from_quotient(factor_xn(33, root), (0, 11), 0)
    return [_row_from_code(rec.code),
            _row_from_code(_anchored_bch_code(rec))]


_BUILDERS = {
    "n15": _recompute_n15,
    "n21": _recompute_n21,
    "n45": _recompute_n45,
    "n33": _recompute_n33,
}


def golden_rows(table_id):
    """Parse the packaged golden CSV for a table."""
    if table_id not in TABLE_IDS:
        raise UnknownTable(f"unknown table {table_id!r}; "
                           f"choose one of {', '.join(TABLE_IDS)}")
    # imported here: from Python 3.12 on, importlib.resources imports inspect,
    # which costs every command's start-up
    from importlib import resources

    name = table_id.replace("-", "_") + ".csv"
    text = resources.files("bchbound.golden").joinpath(name).read_text()
    rows = []
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    for rec in csv.DictReader(lines):
        bose = rec["bose_distance"]
        rows.append(ReportRow(
            n=int(rec["n"]),
            q=int(rec["q"]),
            complement_reps=tuple(int(t) for t in
                                  rec["complement_defining_set"].split(";")),
            dimension=int(rec["dimension"]),
            min_distance=int(rec["min_distance"]),
            bch_bound=int(rec["bch_bound"]),
            bose_distance=None if bose == "-" else int(bose),
            flag=rec.get("flag", "") or "",
        ))
    return rows


def recompute(table_id):
    """Rebuild every row of a table from scratch, in golden order."""
    if table_id in _BUILDERS:
        return _BUILDERS[table_id]()
    return _recompute_coset_rows(golden_rows(table_id))


def write_csv(rows, stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["n", "q", "complement_defining_set", "dimension",
                     "min_distance", "bch_bound", "bose_distance", "flag"])
    for row in rows:
        writer.writerow([
            row.n, row.q, ";".join(str(r) for r in row.complement_reps),
            row.dimension, row.min_distance, row.bch_bound,
            "-" if row.bose_distance is None else row.bose_distance,
            row.flag,
        ])
