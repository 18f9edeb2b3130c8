import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchbound import tables
from bchbound.errors import BudgetExceeded, CoefficientLeak, ZeroPolynomial
from bchbound.galois import build_field, nth_root, root_from_x
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


# x^4 + x^3 + x^2 + x + 1, whose x-bar has order 5 and is not primitive
NOT_PRIMITIVE = (1, 1, 1, 1, 1)


@pytest.mark.parametrize("n,p,degrees,modulus,from_x", [
    pytest.param(21, 2, (1, 2, 3, 6), None, False, id="21-2-degrees0"),
    pytest.param(63, 2, (1, 2, 3), None, False, id="63-2-degrees1"),
    pytest.param(13, 3, (1, 3), None, False, id="13-3-degrees2"),
    pytest.param(255, 2, (1,), None, False, id="255-2"),
    pytest.param(1023, 2, (1,), None, False, id="1023-2"),
    pytest.param(41, 2, (1,), None, False, id="41-2-m20"),
    pytest.param(45, 2, (1,), tables._MIN_POLY[45], True, id="45-2-table-root"),
    pytest.param(5, 2, (1, 2), NOT_PRIMITIVE, True, id="5-2-x-bar-of-order-5"),
    pytest.param(15, 2, (1, 2), NOT_PRIMITIVE, False, id="15-2-x-bar-of-order-5"),
])
def test_shared_coset_product_matches_oracle(n, p, degrees, modulus, from_x):
    if modulus is None:
        root = nth_root(build_field(p, multiplicative_order(p, n)), n)
    else:
        spec = build_field(p, len(modulus) - 1, modulus)
        root = root_from_x(spec, n) if from_x else nth_root(spec, n)
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


def test_binary_coset_product_refuses_a_set_that_is_no_coset(root15):
    # four exponents, like C(1), and alpha's dependency comes at i = 4, but
    # the set is not closed under doubling
    with pytest.raises(CoefficientLeak, match="escapes GF\\(2\\^1\\)"):
        _coset_product(root15, (1, 3, 5, 9), 1)


BINARY_LENGTHS = [n for n in range(1, 302, 2) if multiplicative_order(2, n) <= 12]


@given(st.sampled_from(BINARY_LENGTHS), st.data())
@settings(max_examples=60, deadline=None)
def test_binary_minimal_polynomial_matches_the_product_loop(n, data):
    root = nth_root(build_field(2, multiplicative_order(2, n)), n)
    s = data.draw(st.integers(0, n - 1))
    want = Poly.one(root.spec)
    for j in cyclotomic_coset(s, n, 2):
        want = want * Poly(root.spec, [root.powers[j], 1])
    assert minimal_polynomial(root, s) == want


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


@pytest.mark.parametrize("n,q,d", [(15, 2, 1), (15, 2, 2), (15, 2, 4),
                                   (21, 2, 1), (13, 3, 1), (40, 3, 1),
                                   (40, 3, 2)])
def test_factor_for_coset_rep_reads_the_coset_label(n, q, d):
    root = nth_root(build_field(q, multiplicative_order(q, n)), n)
    factors = factor_xn(n, root, subfield_degree=d)
    for rep in range(-n, 2 * n + 1):
        # oracle: the factor whose root coset holds rep mod n, by a scan
        want = next(f for f, coset in factors.factors if rep % n in coset)
        assert factors.factor_for_coset_rep(rep) is want, rep


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
    for poly, _ in deg8:
        assert poly.degree == 8
        rem = Poly.xn_minus_1(root15.spec, 15).divmod(poly)[1]
        assert rem.is_zero()
    with pytest.raises(BudgetExceeded, match="budget 3 exhausted after 3 subsets"):
        list(divisor_enumerate(factors, budget=3))


def test_divisor_enumerate_yields_factor_indices(root15, root21):
    for root in (root15, root21):
        factors = factor_xn(root.n, root)
        for g, idxs in divisor_enumerate(factors):
            assert isinstance(idxs, tuple)
            prod = Poly.one(root.spec)
            for i in idxs:
                prod = prod * factors.factors[i][0]
            assert prod == g


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


def test_from_ints_reduces_as_from_poly_does():
    spec = build_field(2, 4)
    for ints in ([0] * 15 + [1], [1, 1] + [0] * 20 + [1], [1, 0, 1]):
        assert (QuotientPoly.from_ints(spec, 15, ints)
                == QuotientPoly.from_poly(Poly.from_ints(spec, ints), 15))
    assert QuotientPoly.from_ints(spec, 15, [0] * 15 + [1]).support() == {0}


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
    with pytest.raises(CoefficientLeak, match="coefficient x outside") as poly:
        bad.int_coeffs()
    with pytest.raises(CoefficientLeak) as quotient:
        QuotientPoly.from_poly(bad, 5).int_coeffs()
    assert str(quotient.value) == str(poly.value)
    # zero padding past the degree changes neither view
    padded = QuotientPoly(spec, (0, spec.x(), 0, 1, 0, 0))
    assert padded.support() == padded.to_poly().support() == {1, 3}
    assert padded.weight() == padded.to_poly().weight() == 2


# Reference ring arithmetic on coefficient lists, with FieldSpec's add, sub,
# mul and inv only: no integer shortcut for GF(p), no skipped terms.
def _ref_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _ref_mul(spec, a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = spec.add(out[i + j], spec.mul(x, y))
    return _ref_trim(out)


def _ref_divmod(spec, a, b):
    rem, quot = list(a), [0] * max(0, len(a) - len(b) + 1)
    inv_lead = spec.inv(b[-1])
    for shift in reversed(range(len(quot))):
        c = quot[shift] = spec.mul(rem[shift + len(b) - 1], inv_lead)
        for i, y in enumerate(b):
            rem[shift + i] = spec.sub(rem[shift + i], spec.mul(c, y))
    return _ref_trim(quot), _ref_trim(rem)


def _ref_gcd(spec, a, b):
    while b:
        a, b = b, _ref_divmod(spec, a, b)[1]
    if not a:
        return a
    inv_lead = spec.inv(a[-1])
    return tuple(spec.mul(c, inv_lead) for c in a)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_poly_arithmetic_matches_the_field_reference(data):
    # GF(p)[x] operands take the integer path; one coefficient outside GF(p)
    # sends the same operation down the FieldSpec path
    p = data.draw(st.sampled_from([2, 3, 5, 7, 13]))
    spec = build_field(p, 2)
    ints = st.lists(st.integers(0, p - 1), max_size=12)
    a, b = data.draw(ints), data.draw(ints)
    if data.draw(st.booleans()):
        a = a + [0] * (1 + data.draw(st.integers(0, 12)) - len(a))
        a[data.draw(st.integers(0, len(a) - 1))] = data.draw(
            st.integers(p, p * p - 1))
        if data.draw(st.booleans()):
            a, b = b, a
    a, b = Poly(spec, a), Poly(spec, b)
    assert (a * b).coeffs == _ref_mul(spec, a.coeffs, b.coeffs)
    if not b.is_zero():
        quot, rem = a.divmod(b)
        assert (quot.coeffs, rem.coeffs) == _ref_divmod(spec, a.coeffs, b.coeffs)
    assert a.gcd(b).coeffs == _ref_gcd(spec, a.coeffs, b.coeffs)


def test_derivative():
    spec = build_field(3, 2)
    # (2 + x + x^3 + 2x^4 + x^5)' = 1 + 3x^2 + 8x^3 + 5x^4 = 1 + 2x^3 + 2x^4
    assert Poly(spec, [2, 1, 0, 1, 2, 1]).derivative() == Poly(spec, [1, 0, 0, 2, 2])
    assert Poly(spec, [spec.x()]).derivative().is_zero()
    assert Poly(spec, [0, spec.x()]).derivative() == Poly(spec, [spec.x()])
