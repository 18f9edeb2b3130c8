import random

import pytest

from bchbound.errors import BudgetExceeded, CoefficientLeak, ZeroPolynomial
from bchbound.galois import build_field, nth_root
from bchbound.modring import (
    cyclotomic_coset,
    cyclotomic_cosets,
    multiplicative_order,
)
from bchbound.polyring import (
    Poly,
    QuotientPoly,
    _coset_product,
    cyclic_shift,
    divisor_enumerate,
    factor_xn,
    gcd_with_xn,
    minimal_polynomial,
)


def _random_poly(spec, rng, max_deg=8):
    return Poly(spec, [rng.randrange(spec.order) for _ in
                       range(rng.randrange(1, max_deg + 2))])


def test_ring_axioms_random():
    rng = random.Random(44)
    for p, m in [(2, 4), (3, 2)]:
        spec = build_field(p, m)
        for _ in range(60):
            a, b, c = (_random_poly(spec, rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a - a).is_zero()


def test_divmod_invariant_random():
    rng = random.Random(45)
    spec = build_field(2, 4)
    for _ in range(100):
        a = _random_poly(spec, rng, 10)
        b = _random_poly(spec, rng, 5)
        if b.is_zero():
            continue
        quo, rem = a.divmod(b)
        assert quo * b + rem == a
        assert rem.is_zero() or rem.degree < b.degree


def test_divmod_by_zero():
    spec = build_field(2, 4)
    with pytest.raises(ZeroPolynomial):
        Poly.one(spec).divmod(Poly.zero(spec))


def test_gcd_divides_both():
    rng = random.Random(46)
    spec = build_field(2, 5)
    for _ in range(50):
        a, b = _random_poly(spec, rng), _random_poly(spec, rng)
        if a.is_zero() or b.is_zero():
            continue
        g = a.gcd(b)
        assert (a.divmod(g)[1]).is_zero()
        assert (b.divmod(g)[1]).is_zero()


def test_eval_horner_matches_naive():
    rng = random.Random(47)
    spec = build_field(3, 3)
    for _ in range(40):
        f = _random_poly(spec, rng)
        pt = rng.randrange(spec.order)
        naive = 0
        for i, c in enumerate(f.coeffs):
            naive = spec.add(naive, spec.mul(c, spec.power(pt, i)))
        assert f.eval(pt) == naive


def test_minimal_polynomial_n15(root15):
    m1 = minimal_polynomial(root15, 1)
    assert m1.exponents() == [0, 1, 4]                 # x^4 + x + 1
    m3 = minimal_polynomial(root15, 3)
    assert m3.exponents() == [0, 1, 2, 3, 4]
    m5 = minimal_polynomial(root15, 5)
    assert m5.exponents() == [0, 1, 2]
    # each vanishes exactly on its coset
    for rep, m in [(1, m1), (3, m3), (5, m5)]:
        zeros = {j for j in range(15) if m.eval(root15.pow(j)) == 0}
        assert zeros == set(cyclotomic_coset(rep, 15, 2))


def _product(factors):
    out = Poly.one(factors.root.spec)
    for f, _ in factors.factors:
        out = out * f
    return out


def test_factor_xn_product_and_degrees():
    for n, p in [(15, 2), (21, 2), (31, 2), (11, 3)]:
        root = nth_root(build_field(p, multiplicative_order(p, n)), n)
        factors = factor_xn(n, root)
        assert _product(factors) == Poly.xn_minus_1(root.spec, n)
        for poly, coset in factors.factors:
            assert poly.degree == len(coset)
            poly.int_coeffs()  # factors over GF(p) must not leak upward


def _factor_xn_oracle(n, root, d):
    """factor_xn's own per-coset product loop, as it was before factor_xn
    and minimal_polynomial shared one; kept as the reference."""
    spec = root.spec
    p = spec.p
    factors = []
    for coset in cyclotomic_cosets(n, p ** d).cosets:
        f = Poly.one(spec)
        for j in coset:
            f = f * Poly(spec, [spec.neg(root.powers[j]), 1])
        for c in f.coeffs:
            assert spec.power(c, p ** d) == c  # Frobenius-fixed: in GF(p^d)
        factors.append((f, frozenset(coset)))
    factors.sort(key=lambda fc: min(fc[1]))
    return tuple(factors)


@pytest.mark.parametrize("n,p,degrees", [
    (21, 2, (1, 2, 3, 6)),
    (63, 2, (1, 2, 3)),
    (13, 3, (1, 3)),
])
def test_shared_coset_product_matches_oracle(n, p, degrees):
    root = nth_root(build_field(p, multiplicative_order(p, n)), n)
    for d in degrees:
        want = _factor_xn_oracle(n, root, d)
        assert factor_xn(n, root, subfield_degree=d).factors == want
        if d == 1:
            for f, coset in want:
                assert minimal_polynomial(root, min(coset)) == f


def test_coset_product_refuses_a_leaking_coefficient(root15):
    # x - alpha has a coefficient outside GF(2) but inside L = GF(2^4)
    with pytest.raises(CoefficientLeak, match="escapes GF\\(2\\^1\\)"):
        _coset_product(root15, (1,), 1)
    assert _coset_product(root15, (1,), 4).degree == 1


def test_minimal_polynomials_are_the_factors_of_xn(root15, root11_3):
    for root in (root15, root11_3):
        factors = factor_xn(root.n, root)
        misses = _coset_product.cache_info().misses
        for f, coset in factors.factors:
            for r in coset:
                assert minimal_polynomial(root, r) is f
        assert _coset_product.cache_info().misses == misses


def test_quotient_divides_out_each_named_coset_once(root15):
    factors = factor_xn(15, root15)
    xn1 = Poly.xn_minus_1(root15.spec, 15)
    m = factors.factor_for_coset_rep
    assert factors.quotient([]) == xn1
    assert factors.quotient([7]) * m(7) == xn1
    assert factors.quotient([0, 7]) == m(1) * m(3) * m(5)
    # 2 and 16 name C(1), which is divided out once
    assert factors.quotient([1, 2, 16]) == factors.quotient([1])


def test_factor_xn_over_subfield(root15):
    # over GF(4) the two degree-4 factors split while x^2+x+1 splits too
    coarse = factor_xn(15, root15, subfield_degree=1)
    fine = factor_xn(15, root15, subfield_degree=2)
    assert len(fine.factors) > len(coarse.factors)
    assert _product(fine) == _product(coarse) == Poly.xn_minus_1(root15.spec, 15)
    assert fine.subfield_degree == 2


def test_divisor_enumerate_counts(root15):
    factors = factor_xn(15, root15)
    all_divisors = list(divisor_enumerate(factors))
    # proper divisors: every subset of the 5 factors except the full product
    assert len(all_divisors) == 2 ** 5 - 1
    deg8 = list(divisor_enumerate(factors, target_degree=8))
    for poly, roots in deg8:
        assert poly.degree == 8
        rem = Poly.xn_minus_1(root15.spec, 15).divmod(poly)[1]
        assert rem.is_zero()
    with pytest.raises(BudgetExceeded, match="budget 3 exhausted after 3 subsets"):
        list(divisor_enumerate(factors, budget=3))


def test_divisor_budget_counts_subsets_visited():
    # x^63 - 1 has 13 factors over GF(2), so the walk visits 2^13 subsets
    root = nth_root(build_field(2, 6), 63)
    factors = factor_xn(63, root)
    assert len(factors.factors) == 13
    assert len(list(divisor_enumerate(factors, budget=2 ** 13))) == 2 ** 13 - 1
    with pytest.raises(BudgetExceeded, match="after 8191 subsets"):
        list(divisor_enumerate(factors, budget=2 ** 13 - 1))
    # a walk that emits nothing is bounded too: the one divisor of degree
    # 62, (x^63 - 1)/(x + 1), lies far past the first 100 subsets
    with pytest.raises(BudgetExceeded, match="budget 100 exhausted"):
        list(divisor_enumerate(factors, target_degree=62, budget=100))


def test_quotient_poly_and_shift():
    spec = build_field(2, 4, (1, 1, 0, 0, 1))
    f = QuotientPoly.from_ints(spec, 7, [1, 0, 1])
    g = cyclic_shift(f, 6)
    assert g.support() == {1, 6}
    assert cyclic_shift(g, 1).support() == {0, 2}
    assert f.weight() == 2


def test_gcd_with_xn_is_shift_invariant(root15):
    rng = random.Random(48)
    spec = root15.spec
    for _ in range(30):
        ints = [rng.randrange(2) for _ in range(15)]
        if not any(ints):
            continue
        f = QuotientPoly.from_ints(spec, 15, ints)
        base = gcd_with_xn(f)
        for k in (1, 4, 11):
            assert gcd_with_xn(cyclic_shift(f, k)) == base


def test_int_coeffs_leak():
    spec = build_field(2, 4)
    bad = Poly(spec, [spec.x()])
    with pytest.raises(CoefficientLeak, match="coefficient x outside"):
        bad.int_coeffs()
