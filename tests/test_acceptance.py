"""Acceptance suite: one test per criterion, one pass/fail line each.

The status lines are written to the real stderr so they stay visible under
pytest's capture. Every numeric check is exact.
"""

import random
import sys

from bchbound import tables
from bchbound.bounds import apparent_distance_vec, code_apparent_distance
from bchbound.codes import bose_distance, code_from_defining_set
from bchbound.forge import (
    construct_from_divisor,
    extend_to_bch,
    find_shift,
    primitive_family,
)
from bchbound.galois import build_field, nth_root, root_from_x
from bchbound.modring import coset_closure, cyclotomic_cosets
from bchbound.polyring import Poly, QuotientPoly, divisor_enumerate, factor_xn
from bchbound.spectral import Spectrum, dft, idft
from bchbound.wtdist import DEFAULT_CAP, _search, min_distance


def _report(num, desc, ok):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    print(line)
    print(line, file=sys.__stderr__)
    assert ok, line


def test_criterion_1_small_codes_table():
    golden = tables.golden_rows("small-codes")
    ok = True
    seen = set()
    for row in golden:
        if row.key() in seen:
            continue
        seen.add(row.key())
        root = tables._root_for(row.n, row.q)
        comp = coset_closure(row.complement_reps, row.n, row.q)
        code = code_from_defining_set(row.n, row.q, root,
                                      frozenset(range(row.n)) - comp)
        res = _search(code, DEFAULT_CAP, 0)   # d proven without the bound
        if not res.exhaustive or (code.dimension, res.distance) != \
                (row.dimension, row.min_distance):
            ok = False
            break
    _report(1, "length <= 31 table: dimension and proven distance "
               f"match on all {len(seen)} distinct rows", ok)


def test_criterion_2_n15_table():
    rows = tables.recompute("n15")
    got = [(r.dimension, r.min_distance, r.bch_bound) for r in rows]
    want = [(10, 2, 2), (8, 4, 4), (8, 4, 4), (7, 5, 5)]
    _report(2, "n=15 construction table: dims 10/8/8/7 with bound = d = "
               "2/4/4/5", got == want)


def test_criterion_3_n21_table():
    rows = tables.recompute("n21")
    got = [(r.dimension, r.min_distance, r.bch_bound) for r in rows]
    want = [(14, 2, 2), (12, 3, 3), (12, 3, 3), (8, 6, 6), (8, 6, 6),
            (10, 5, 5)]
    _report(3, "n=21 construction table: dims 14/12/12/8/8/10 with bound = "
               "d = 2/3/3/6/6/5", got == want)


def test_criterion_4_n45_chain():
    root = tables._root_for(45, 2)
    factors = factor_xn(45, root)
    xn1 = Poly.xn_minus_1(root.spec, 45)
    g = (xn1 // factors.factor_for_coset_rep(0)) // \
        factors.factor_for_coset_rep(3)
    k = find_shift(g, root)
    rec = construct_from_divisor(g, k, root)
    base_ok = (rec.dimension, rec.bch_bound) == (21, 5) \
        and min_distance(rec.code).distance == 5
    sub = code_from_defining_set(45, 2, root, coset_closure([1, 3, 9], 45, 2))
    sub_ok = (sub.dimension, code_apparent_distance(sub).overall) == (25, 5) \
        and min_distance(sub).distance == 5
    exts = {(e.k, e.bch_bound): e for e in extend_to_bch(rec)}
    ext_ok = {(1, 5), (16, 5)} <= set(exts)
    for key in ((1, 5), (16, 5)):
        code = exts[key].code
        delta = code_apparent_distance(code).overall
        ext_ok = ext_ok and code.dimension == 29 and delta == 5
        res = _search(code, DEFAULT_CAP, 0)   # d proven without the bound
        ext_ok = ext_ok and res.exhaustive and res.distance == 5
    _report(4, "n=45 chain: dims 21/25/29 all with bound = d = 5 "
               "(k=29 distances proven without the bound)",
            base_ok and sub_ok and ext_ok)


def test_criterion_5_n33_extension():
    root = tables._root_for(33, 2)
    from bchbound.polyring import minimal_polynomial
    g = (minimal_polynomial(root, 1) * minimal_polynomial(root, 3)
         * minimal_polynomial(root, 5))
    rec = construct_from_divisor(g, 0, root)
    word_ok = sorted(rec.generator_word.support()) == [0, 11, 22]
    first = extend_to_bch(rec)[0]
    ext_ok = (first.k, first.bch_bound, first.dimension) == (31, 3, 23)
    res = min_distance(first.code)
    _report(5, "n=33: extension B(alpha,3,31) of dim 23 generated by "
               "x^22+x^11+1, proven d = 3",
            word_ok and ext_ok and res.exhaustive and res.distance == 3)


def test_criterion_6_n41_bound():
    root = nth_root(build_field(2, 20), 41)
    code = code_from_defining_set(41, 2, root, coset_closure([1], 41, 2))
    report = code_apparent_distance(code)
    _report(6, "n=41, D = C(1): bound 6 with optimal representative 3",
            report.overall == 6 and set(report.optimal_reps) == {3})


def test_criterion_7_bose_below_bound():
    root = tables._root_for(21, 2)
    code = code_from_defining_set(21, 2, root,
                                  coset_closure([1, 3, 7], 21, 2))
    delta = code_apparent_distance(code).overall
    bose = bose_distance(code)
    _report(7, "n=21 example: Bose distance 4 against bound 5",
            (bose, delta) == (4, 5))


def test_criterion_8_primitive_family():
    ok = True
    for m, want in [(4, 2), (5, 6)]:
        records = primitive_family(nth_root(build_field(2, m), (1 << m) - 1))
        ok = ok and len(records) == want
        for rec in records:
            res = _search(rec.code, DEFAULT_CAP, 0)
            ok = ok and res.exhaustive and res.distance == rec.bch_bound \
                == code_apparent_distance(rec.code).overall
    _report(8, "primitive family sizes 2 (m=4) and 6 (m=5), each with "
               "d = bound proven without the bound", ok)


def _random_word(spec, n, q, rng):
    return QuotientPoly.from_ints(spec, n, [rng.randrange(q) for _ in range(n)])


def test_criterion_9_property_suites():
    rng = random.Random(2026)
    ok = True

    # DFT round-trip, 1000 words per ring
    setups = [(15, 2, 4), (21, 2, 6), (17, 2, 8), (11, 3, 5)]
    roots = {(n, q): nth_root(build_field(q, m), n) for n, q, m in setups}
    for (n, q), root in roots.items():
        for _ in range(1000):
            f = _random_word(root.spec, n, q, rng)
            if idft(dft(f, root)) != f:
                ok = False

    # weight identity: w(c) = n - deg gcd(spectrum, x^n - 1), 1000 codewords
    from bchbound.polyring import gcd_with_xn
    words = 0
    while words < 1000:
        n, q, m = setups[words % len(setups)]
        root = roots[n, q]
        reps = cyclotomic_cosets(n, q).representatives
        chosen = [r for r in reps if rng.random() < 0.5]
        d_set = coset_closure(chosen, n, q)
        if len(d_set) == n:
            continue
        code = code_from_defining_set(n, q, root, d_set)
        gen = QuotientPoly.from_poly(code.generator, n)
        c = gen * _random_word(root.spec, n, q, rng)
        if c.is_zero():
            continue
        words += 1
        s = dft(c, root)
        ms = QuotientPoly(root.spec, s.values)
        if c.weight() != n - gcd_with_xn(ms).degree:
            ok = False

    # apparent distance of a spectrum never exceeds the word's weight
    for i in range(1000):
        n, q, m = setups[i % len(setups)]
        root = roots[n, q]
        f = _random_word(root.spec, n, q, rng)
        if f.is_zero():
            continue
        if apparent_distance_vec(dft(f, root).values) > f.weight():
            ok = False

    # bound <= distance over every proper coset-closed defining set
    for n, q, m in [(7, 2, 3), (9, 2, 6), (15, 2, 4), (17, 2, 8), (21, 2, 6)]:
        root = roots.get((n, q)) or nth_root(build_field(q, m), n)
        reps = cyclotomic_cosets(n, q).representatives
        for mask in range(1, 1 << len(reps)):
            chosen = [r for i, r in enumerate(reps) if mask >> i & 1]
            d_set = coset_closure(chosen, n, q)
            if len(d_set) == n:
                continue
            code = code_from_defining_set(n, q, root, d_set)
            delta = code_apparent_distance(code).overall
            if _search(code, DEFAULT_CAP, 0).distance < delta:
                ok = False

    # divisor identity: d*(g) = n - deg g for every divisor of x^n - 1
    for n, q, m in [(7, 2, 3), (9, 2, 6), (13, 2, 12), (15, 2, 4),
                    (17, 2, 8), (21, 2, 6)]:
        root = roots.get((n, q)) or nth_root(build_field(q, m), n)
        factors = factor_xn(n, root)
        for g, _ in divisor_enumerate(factors):
            vec = QuotientPoly.from_poly(g, n)
            if apparent_distance_vec(vec.coeffs) != n - g.degree:
                ok = False

    _report(9, "property suites: DFT round-trip, weight identity, spectral "
               "bound, bound <= d, divisor identity (zero violations)", ok)
