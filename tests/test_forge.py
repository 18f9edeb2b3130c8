import itertools
import math

import pytest

from bchbound import forge
from bchbound.codes import bose_distance, code_from_defining_set
from bchbound.errors import NotDivisor, NotPrimitiveLength, NotRational
from bchbound.forge import (
    bch_windows,
    congruence_construct,
    construct_from_divisor,
    construct_from_quotient,
    extend_to_bch,
    find_shift,
    primitive_family,
)
from bchbound.modring import (
    coset_closure,
    cyclic_runs,
    cyclotomic_cosets,
    multiplicative_order,
    solve_linear_congruence,
    totient,
)
from bchbound.galois import build_field, nth_root
from bchbound.polyring import Poly, divisor_enumerate, factor_xn
from bchbound.records import replace
from bchbound.spectral import dft
from bchbound.wtdist import min_distance


def _quotients(root, n):
    """The factors of x^n - 1 and {r: x^n - 1 without the factor of C(r)}."""
    factors = factor_xn(n, root)
    return factors, {min(c): factors.quotient([min(c)]) for _, c in factors.factors}


def test_n15_divisor_table(root15):
    factors, quot = _quotients(root15, 15)
    expected = {
        5: (1, 10, 2, {5, 10}),
        1: (1, 8, 4, {7, 11, 13, 14}),
        7: (3, 8, 4, {1, 2, 4, 8}),
    }
    for rep, (k, dim, delta, word) in expected.items():
        g = quot[rep]
        assert find_shift(g, root15) == k
        rec = construct_from_divisor(g, k, root15).verify()
        assert (rec.dimension, rec.bch_bound) == (dim, delta)
        assert rec.generator_word.support() == word
        assert rec.verified
    # the factor with coset C(3) admits no rational shift at all
    g5 = quot[3]
    assert find_shift(g5, root15) is None
    with pytest.raises(NotRational):
        construct_from_divisor(g5, 0, root15)
    with pytest.raises(NotRational, match="no rational shift exists"):
        construct_from_quotient(factors, [3])


def test_n15_product_divisor(root15):
    factors = factor_xn(15, root15)
    h = (factors.factor_for_coset_rep(5) * factors.factor_for_coset_rep(1)
         * factors.factor_for_coset_rep(3))
    rec = construct_from_divisor(h, 0, root15).verify()
    assert (rec.dimension, rec.bch_bound) == (7, 5)


def test_n21_divisor_table(root21):
    _, quot = _quotients(root21, 21)
    expected = [(7, 1, 14, 2), (3, 0, 12, 3), (9, 3, 12, 3),
                (5, 1, 8, 6), (1, 5, 8, 6)]
    for rep, k, dim, delta in expected:
        g = quot[rep]
        assert find_shift(g, root21) == k
        rec = construct_from_divisor(g, k, root21).verify()
        assert (rec.dimension, rec.bch_bound) == (dim, delta)


@pytest.mark.parametrize("n,reps,kept,k", [
    (15, (5, 1, 7), (5, 1, 3), 0),
    (21, (7, 3, 9, 5, 1), (0, 3, 5, 1), None),
])
def test_construct_from_quotient_matches_hand_built_divisors(
        request, n, reps, kept, k):
    root = request.getfixturevalue(f"root{n}")
    factors = factor_xn(n, root)
    m = factors.factor_for_coset_rep
    xn1 = Poly.xn_minus_1(root.spec, n)
    for rep in reps:
        g = xn1 // m(rep)
        want = construct_from_divisor(g, find_shift(g, root), root)
        assert construct_from_quotient(factors, [rep]) == want
        assert construct_from_quotient(factors, [rep, rep]) == want
        assert construct_from_quotient(factors, [rep], want.k) == want
    # the table's last row, built as the product of the factors it keeps
    h = Poly.one(root.spec)
    for rep in kept:
        h = h * m(rep)
    left_out = [min(c) for _, c in factors.factors if min(c) not in kept]
    want = construct_from_divisor(h, find_shift(h, root) if k is None else k, root)
    assert construct_from_quotient(factors, left_out, k) == want


def test_congruence_route(root15):
    factors = factor_xn(15, root15)
    # h = x^2 + x + 1 (coset C(5)) satisfies the congruence at j = 5
    rec = congruence_construct(factors, 5)
    assert rec is not None
    assert rec.source == "congruence"
    assert rec.divisor == factors.quotient([5])
    assert rec.verify().verified
    # the degree-4 factor with coset C(3) fails the congruence: g(alpha^3) =
    # alpha^14, and 3k = -14 (mod 15) has no solution
    assert root15.dlog(factors.quotient([3]).eval(root15.pow(3))) == 14
    assert solve_linear_congruence(3, -14 % 15, 15) is None
    assert congruence_construct(factors, 3) is None


def test_congruence_route_fails_off_the_root_powers():
    # at n = 5 over GF(16), g = (x^5 - 1)/h(C(1)) = x + 1 and g(alpha) is
    # no power of alpha, so the route builds nothing
    root = nth_root(build_field(2, 4), 5)
    factors = factor_xn(5, root)
    assert root.dlog(factors.quotient([1]).eval(root.pow(1))) is None
    assert congruence_construct(factors, 1) is None


def test_every_coset_member_gives_the_same_record():
    # g(alpha^(Q*j)) = g(alpha^j)^Q for Q = q^d, and Q is a unit mod n, so
    # j's congruence and Q*j's have the same least k; that k is find_shift's
    for q in (2, 3, 5):
        for n in range(1, 46):
            if math.gcd(n, q) != 1:
                continue
            m = multiplicative_order(q, n)
            if q ** m > 5000:
                continue
            root = nth_root(build_field(q, m), n)
            for d in sorted({1, m}):
                factors = factor_xn(n, root, subfield_degree=d)
                for coset in cyclotomic_cosets(n, q ** d).cosets:
                    rep = congruence_construct(factors, coset[0])
                    k = find_shift(factors.quotient([coset[0]]), root)
                    assert (None if rep is None else rep.k) == k, (q, n, d, coset)
                    for j in coset[1:] + (coset[0] + n,):
                        assert congruence_construct(factors, j) == rep, (
                            q, n, d, j)


@pytest.mark.parametrize("n,q,d", [(127, 2, 1), (63, 2, 1), (26, 3, 1),
                                   (40, 3, 1), (63, 2, 2)])
def test_quotient_at_root_matches_horner_on_the_quotient(n, q, d):
    # g(alpha^j) = n alpha^(-j) / h'(alpha^j) against Horner on g itself,
    # at every member of every coset
    root = nth_root(build_field(q, multiplicative_order(q, n)), n)
    factors = factor_xn(n, root, subfield_degree=d)
    for _, coset in factors.factors:
        for j in coset:
            g = factors.quotient([j])
            assert forge.quotient_at_root(factors, j) == g.eval(root.pow(j)), j


def test_congruence_route_builds_odd_q_rational_shifts():
    # the route tests g(alpha^j)^(q - 1), not g(alpha^j), against <alpha>:
    # at (13, 3) g(alpha) is no power of alpha, yet g(alpha) * alpha^7 lies
    # in GF(3); at (5, 3), g = 1 + x + ... + x^4 is rational at k = 0
    root = nth_root(build_field(3, 3), 13)
    factors = factor_xn(13, root)
    rec = congruence_construct(factors, 1)
    assert rec.k == 7
    assert rec == replace(construct_from_quotient(factors, [1]),
                          source="congruence")
    root = nth_root(build_field(3, 4), 5)
    rec = congruence_construct(factor_xn(5, root), 0)
    assert rec.k == 0


def test_divisor_route_rejects_a_non_divisor(root15):
    # x + x^2 + x^4 + x^8 is the trace map: rational at k = 0, but x divides
    # it, so it does not divide x^15 - 1 and n - deg g = 7 is no bound
    g = Poly.from_ints(root15.spec, [0, 1, 1, 0, 1, 0, 0, 0, 1])
    assert find_shift(g, root15) == 0
    with pytest.raises(NotDivisor):
        construct_from_divisor(g, 0, root15)


def _primitive_root(m):
    return nth_root(build_field(2, m), (1 << m) - 1)


def test_primitive_family_counts():
    for m, want in [(2, 1), (4, 2), (5, 6)]:
        records = primitive_family(_primitive_root(m))
        n = (1 << m) - 1
        assert len(records) == want == totient(n) // m
        for rec in records:
            assert rec.bch_bound == n - rec.divisor.degree
            assert rec.verify().verified
    # n = 1 = 2^1 - 1 has m < 2, and n = 5 is no 2^m - 1
    for root in (_primitive_root(1), nth_root(build_field(2, 4), 5)):
        with pytest.raises(NotPrimitiveLength):
            primitive_family(root)


def test_primitive_family_checks_the_congruence_route(monkeypatch):
    # primitivity guarantees every coset a record; a route that builds
    # none must fail loudly, not shorten the family
    monkeypatch.setattr(forge, "congruence_construct", lambda factors, j: None)
    with pytest.raises(AssertionError,
                       match="congruence route failed at coset 1"):
        primitive_family(_primitive_root(3))


def test_verify_out_of_cap_is_unverified_not_a_disproof(monkeypatch):
    # its first message weighs 9, Delta = 5
    rec = primitive_family(_primitive_root(5))[1]
    with monkeypatch.context() as patch:
        patch.setattr(forge, "DEFAULT_CAP", 1)
        assert rec.verify().verified is False
    assert rec.verify().verified


def test_verify_raises_on_a_corrupted_record():
    rec = primitive_family(_primitive_root(5))[1]
    with pytest.raises(AssertionError, match="bound does not recompute"):
        replace(rec, bch_bound=rec.bch_bound + 1).verify()
    # the binary Golay code: Delta = 5 from coset 1, but d = 7
    root23 = nth_root(build_field(2, 11), 23)
    golay = code_from_defining_set(23, 2, root23, coset_closure([1], 23, 2))
    with pytest.raises(AssertionError, match="distance does not meet"):
        replace(rec, code=golay, bch_bound=5).verify()


def _extension_summary(rec):
    """(k, bch_bound, dimension) of each extension of rec, after checking
    that each contains rec's code (its defining set lies inside rec's) and
    verifies to d = its bound."""
    exts = extend_to_bch(rec)
    for ext in exts:
        assert ext.source == "extension"
        assert ext.code.defining_set <= rec.code.defining_set
        assert ext.verify().verified
    return [(e.k, e.bch_bound, e.dimension) for e in exts]


def test_extend_to_bch_n15(root15):
    factors = factor_xn(15, root15)
    rec = construct_from_quotient(factors, [1])
    assert rec.k == 1
    assert _extension_summary(rec) == [(13, 4, 10)]
    rec = construct_from_quotient(factors, [7], 3)
    assert _extension_summary(rec) == [(0, 4, 10)]
    rec = construct_from_quotient(factors, [5], 1)
    assert _extension_summary(rec) == [(0, 2, 14), (3, 2, 11)]


def test_extend_congruence_record(root15):
    rec = congruence_construct(factor_xn(15, root15), 5)
    assert _extension_summary(rec) == [(0, 2, 14), (3, 2, 11)]


def test_extend_primitive_family_n31():
    for rec in primitive_family(_primitive_root(5)):
        assert _extension_summary(rec)


def test_extend_to_bch_n33():
    from bchbound.galois import build_field, root_from_x
    from bchbound.polyring import minimal_polynomial

    root = root_from_x(build_field(2, 10, (1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1)),
                       33)
    g = (minimal_polynomial(root, 1) * minimal_polynomial(root, 3)
         * minimal_polynomial(root, 5))
    base = construct_from_divisor(g, 0, root)
    assert sorted(base.generator_word.support()) == [0, 11, 22]
    first = extend_to_bch(base)[0]
    assert bch_windows(base)[:2] == [31, 1]  # the anchored window first
    assert (first.k, first.bch_bound, first.dimension) == (31, 3, 23)
    assert first.source == "extension"
    res = min_distance(first.code)
    assert res.exhaustive and res.distance == res.bch_bound == 3


def _windows_by_fresh_scan(rec):
    """bch_windows with the runs of D scanned afresh, not read off the code."""
    code = rec.code
    anchored = (rec.divisor.degree + rec.k + 1) % code.n
    return sorted((b for b, length in cyclic_runs(code.defining_set, code.n)
                   if length == rec.bch_bound - 1),
                  key=lambda b: (b != anchored, b))


def _quotient_records(n):
    """construct_from_quotient's record for every proper nonempty set of
    coset representatives whose divisor has a rational shift."""
    factors = factor_xn(n, nth_root(build_field(2, multiplicative_order(2, n)), n))
    reps = [min(c) for _, c in factors.factors]
    for size in range(1, len(reps)):
        for chosen in itertools.combinations(reps, size):
            if find_shift(factors.quotient(chosen), factors.root) is not None:
                yield construct_from_quotient(factors, chosen)


def test_bch_windows_read_the_codes_runs():
    records = [rec for m in (5, 6) for rec in primitive_family(_primitive_root(m))]
    for n in (15, 21, 45):
        records.extend(_quotient_records(n))
    assert len(records) > 20
    for rec in records:
        assert bch_windows(rec) == _windows_by_fresh_scan(rec)


def test_extension_codes_are_bch(root15):
    rec = construct_from_quotient(factor_xn(15, root15), [1])
    for ext in extend_to_bch(rec):
        assert bose_distance(ext.code) >= ext.bch_bound


def _find_shift_by_evaluation(g, root):
    """Reference: smallest k with g(alpha^j) * alpha^(jk) in GF(p) for all j."""
    n, spec = root.n, root.spec
    values = dft(g, root).values
    nonzero = [j for j in range(n) if values[j]]
    for k in range(n):
        shifted = (spec.mul(values[j], root.powers[j * k % n]) for j in nonzero)
        if all(spec.power(v, spec.p) == v for v in shifted):
            return k
    return None


# at (7, 13) the factor x^2 + 3x + 1 of C(1) has its least rational shift
# at k = n - 1 = 6, so a scan one shift short fails that row
@pytest.mark.parametrize("n,q,m", [(15, 2, 4), (21, 2, 6), (7, 13, 2)],
                         ids=["15-4", "21-6", "7-13-2"])
@pytest.mark.parametrize("subfield_degree", [1, 2])
def test_find_shift_matches_evaluation_oracle(n, q, m, subfield_degree):
    root = nth_root(build_field(q, m), n)
    factors = factor_xn(n, root, subfield_degree=subfield_degree)
    for g, _ in divisor_enumerate(factors):
        assert find_shift(g, root) == _find_shift_by_evaluation(g, root)
