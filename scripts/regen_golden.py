#!/usr/bin/env python3
"""Regenerate the golden CSV tables under src/bchbound/golden/.

The coset-table inputs below are transcribed from the source tables; every
numeric column is recomputed from scratch, so rerunning this script must
reproduce the shipped files byte for byte.
"""

import io
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from bchbound import tables
from bchbound.tables import ReportRow

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "src/bchbound/golden"

# (n, complement reps, flag, comment). Comments become provenance lines in
# the CSV; flags mark duplicated and amended source rows.
SMALL = [
    (7, (3,), "", "source table, n=7 block"),
    (7, (1,), "", ""),
    (7, (0, 3), "", ""),
    (7, (0, 1), "", ""),
    (9, (3,), "", "source table, n=9 block"),
    (9, (0, 3), "", ""),
    (9, (1,), "", ""),
    (15, (5,), "", "source table, n=15 block"),
    (15, (0, 5), "", ""),
    (15, (1,), "", ""),
    (15, (7,), "", ""),
    (15, (0, 3), "", ""),
    (15, (0, 7), "", ""),
    (15, (0, 1), "", ""),
    (15, (3, 5), "", ""),
    (15, (0, 5, 7), "", ""),
    (15, (1, 3), "", ""),
    (15, (3, 7), "", ""),
    (15, (3, 7), "dup", "repeated verbatim in the source table"),
    (15, (1, 5, 7), "", ""),
    (21, (7,), "", "source table, n=21 block"),
    (21, (3,), "", ""),
    (21, (9,), "", ""),
    (21, (0, 7), "", ""),
    (21, (0, 3), "", ""),
    (21, (0, 9), "", ""),
    (21, (3, 7), "", ""),
    (21, (7, 9), "", ""),
    (21, (0, 3, 9), "", ""),
    (21, (1, 7), "", ""),
    (21, (5, 7), "", ""),
    (21, (1, 9), "", ""),
    (21, (3, 5), "", ""),
    (21, (0, 5, 9), "", ""),
    (21, (0, 1, 3), "", ""),
    (21, (5, 7, 9), "", ""),
    (21, (0, 1, 7, 9), "", ""),
    (25, (0, 5), "amended",
     "source lists C_2(3) u C_2(5) with dim 5, d 5; C_2(3) is the full "
     "unit coset mod 25 (20 elements), so that complement cannot have "
     "dim 5. C_2(0) u C_2(5) matches the stated parameters."),
    (27, (9,), "", "source table, n=27 block"),
    (27, (3,), "amended",
     "source states dim 5, but |C_2(3)| = 6 mod 27; the recomputed "
     "dimension is 6 and the stated d = 6 checks out."),
    (27, (1,), "", ""),
    (27, (0, 9), "", ""),
    (31, (1,), "", "source table, n=31 block"),
    (31, (5,), "", ""),
    (31, (15,), "", ""),
    (31, (0, 1), "", ""),
    (31, (0, 15), "", ""),
    (31, (3, 7), "amended",
     "source states d = 6, but this code has d = 10; no complement built "
     "from two cosets at n = 31 reaches d = 6."),
    (31, (5, 11), "", ""),
    (31, (1, 3, 15), "", ""),
    (31, (1, 5, 11), "", ""),
    (31, (1, 7, 15), "", ""),
    (31, (5, 11, 15), "amended",
     "source lists C_2(5) u C_2(9) u C_2(15) with dim 15, but C_2(9) = "
     "C_2(5) mod 31; C_2(5) u C_2(11) u C_2(15) matches the stated "
     "dimension and distance."),
    (31, (0, 1, 3, 7), "", ""),
    (31, (0, 1, 11, 15), "", ""),
    (31, (0, 1, 5, 15), "", ""),
    (31, (0, 3, 5, 11), "", ""),
    (31, (0, 5, 7, 11), "", ""),
    (31, (0, 3, 5, 11), "dup", "repeated verbatim in the source table"),
]

COSET_TABLES = {
    "small_codes": (
        "Binary cyclic codes of length <= 31 whose minimum distance meets "
        "the maximum BCH bound (source table, complement convention).",
        SMALL,
    ),
    "n41": (
        "Length 41, defining set C_2(1): the BCH bound is 6 although no "
        "window of 5 consecutive zeros exists for the identity "
        "representative (source remark).",
        [(41, (0, 3), "", "complement of C_2(1) mod 41")],
    ),
    "n17": (
        "Length 17 idempotent example: non-zeros C_2(0) u C_2(1) "
        "(source example).",
        [(17, (0, 1), "", "")],
    ),
    "bose21": (
        "Length 21 code whose Bose distance (4) is strictly below its "
        "maximum BCH bound (5) (source example).",
        [(21, (0, 5, 9), "", "complement of C_2(1) u C_2(3) u C_2(7)")],
    ),
}

BUILT_TABLES = {
    "n15": ("Length 15 construction table (source example): codes generated "
            "by shifted divisors of x^15 - 1.",
            ["g = (x^15-1)/h_2, k = 1", "g = (x^15-1)/h_3, k = 1",
             "g = (x^15-1)/h_4, k = 3", "g = h_2 h_3 h_5, k = 0"]),
    "n21": ("Length 21 construction table (source example): codes generated "
            "by shifted divisors of x^21 - 1.",
            ["g = (x^21-1)/h_2, k = 1", "g = (x^21-1)/h_3, k = 0",
             "g = (x^21-1)/h_4, k = 3", "g = (x^21-1)/h_5, k = 1",
             "g = (x^21-1)/h_6, k = 5", "g = h_1 h_3 h_5 h_6, k = 0"]),
    "n45": ("Length 45 chain (source examples): divisor-built code, subcode "
            "with defining set C(1) u C(3) u C(9), and its BCH extension.",
            ["g = (x^45-1)/(m_0 m_3), k = 5",
             "defining set C_2(1) u C_2(3) u C_2(9)",
             "extension B_2(beta, 5, 1)"]),
    "n33": ("Length 33 example: code generated by x^22 + x^11 + 1 and its "
            "BCH extension B_2(alpha, 3, 31).",
            ["g = m_1 m_3 m_5, k = 0", "extension B_2(alpha, 3, 31)"]),
}


def render(header, rows, comments) -> str:
    """The text of one golden CSV: header, provenance comments and rows."""
    buf = io.StringIO()
    buf.write(f"# {header}\n")
    buf.write("# regenerate with scripts/regen_golden.py\n")
    body = io.StringIO()
    tables.write_csv(rows, body)
    lines = body.getvalue().splitlines()
    buf.write(lines[0] + "\n")
    for line, comment in zip(lines[1:], comments):
        if comment:
            buf.write(f"# {comment}\n")
        buf.write(line + "\n")
    return buf.getvalue()


def golden_tables():
    """(name, header, recomputed rows, comments) of each golden table."""
    for name, (header, spec) in COSET_TABLES.items():
        stubs = [ReportRow(n, 2, reps, 0, 0, 0, None, flag)
                 for n, reps, flag, _ in spec]
        rows = tables._recompute_coset_rows(stubs)
        yield name, header, rows, [c for _, _, _, c in spec]
    for name, (header, comments) in BUILT_TABLES.items():
        yield name, header, tables.recompute(name), comments


def main():
    for name, header, rows, comments in golden_tables():
        path = GOLDEN / f"{name}.csv"
        path.write_text(render(header, rows, comments))
        print(f"wrote {path} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
