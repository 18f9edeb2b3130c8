import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchbound import galois
from bchbound.errors import (
    InvalidSubfield,
    NotCoprime,
    OrderUnavailable,
    RejectedModulus,
)
from bchbound.galois import (
    MAX_FIELD_ORDER,
    TABLE_MAX_ORDER,
    RootOfUnity,
    _poldivmod,
    build_field,
    default_modulus,
    exceeds_field_cap,
    is_irreducible,
    is_prime,
    nth_root,
    poly_str,
    root_from_x,
)

# ---------------------------------------------------------------------------
# Reference arithmetic: a nested-loop product and a long-division reduction
# of decoded digits, both written out here.  It shares no code with
# FieldSpec's arithmetic (tables or direct), so it is the oracle for both
# here and for the transforms in test_spectral.
# ---------------------------------------------------------------------------

def _digits(spec, v):
    out = []
    for _ in range(spec.m):
        v, d = divmod(v, spec.p)
        out.append(d)
    return out


def _pack(spec, digits):
    v = 0
    for d in reversed(digits):
        v = v * spec.p + d
    return v


@functools.lru_cache(maxsize=None)
def ref_add(spec, a, b):
    return _pack(spec, [(x + y) % spec.p
                        for x, y in zip(_digits(spec, a), _digits(spec, b))])


def ref_neg(spec, a):
    return _pack(spec, [-x % spec.p for x in _digits(spec, a)])


def ref_sub(spec, a, b):
    return ref_add(spec, a, ref_neg(spec, b))


def _ref_polmul(a, b, p):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _ref_polrem(a, f, p):
    """The remainder of a by f: long division, top term first."""
    a, df = list(a), len(f) - 1
    inv_lead = pow(f[-1], -1, p)
    for top in reversed(range(df, len(a))):
        c = a[top] * inv_lead % p
        for i, fi in enumerate(f):
            a[top - df + i] = (a[top - df + i] - c * fi) % p
    return a[:df]


@functools.lru_cache(maxsize=None)
def ref_mul(spec, a, b):
    prod = _ref_polmul(_digits(spec, a), _digits(spec, b), spec.p)
    return _pack(spec, _ref_polrem(prod, spec.modulus, spec.p))


def ref_power(spec, a, e):
    if e < 0:
        a, e = ref_inv(spec, a), -e
    r = 1
    while e:
        if e & 1:
            r = ref_mul(spec, r, a)
        a = ref_mul(spec, a, a)
        e >>= 1
    return r


def ref_inv(spec, a):
    if a == 0:
        raise ZeroDivisionError
    return ref_power(spec, a, spec.order - 2)


# x^6 + x^2 + x + 1 is irreducible over GF(3), but x-bar has order 364, not
# 728, so the tables of this field are walked from generator_value()
_NOT_PRIMITIVE_3_6 = (1, 1, 1, 0, 0, 0, 1)

# (p, m, modulus or None for the default): four tabled fields, one of them
# under a modulus whose x-bar is not primitive, GF(3^11), past
# TABLE_MAX_ORDER, which computes without tables, and GF(2^8), whose
# product is the carry-less _clmulmod
TABLE_FIELDS = [(3, 5, None), (5, 3, None), (7, 2, None),
                (3, 6, _NOT_PRIMITIVE_3_6), (3, 11, None), (2, 8, None)]


def _element(spec):
    return st.one_of(st.just(0), st.integers(0, spec.order - 1))


@pytest.mark.parametrize("p,m,modulus", TABLE_FIELDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_field_arithmetic_matches_reference(p, m, modulus, data):
    spec = build_field(p, m, modulus)
    a, b = data.draw(_element(spec)), data.draw(_element(spec))
    assert spec.add(a, b) == ref_add(spec, a, b)
    assert spec.sub(a, b) == ref_sub(spec, a, b)
    assert spec.neg(a) == ref_neg(spec, a)
    assert spec.mul(a, b) == ref_mul(spec, a, b)
    e = data.draw(st.integers(-2 * spec.order, 2 * spec.order))
    assert spec.power(a, 0) == 1
    if a:
        assert spec.inv(a) == ref_inv(spec, a)
        assert spec.power(a, e) == ref_power(spec, a, e)
        assert spec.power(a, -abs(e)) == ref_power(spec, a, -abs(e))
    else:
        with pytest.raises(ZeroDivisionError):
            spec.inv(a)
        with pytest.raises(ZeroDivisionError):
            spec.power(a, -1 - abs(e))
        assert spec.power(a, 1 + abs(e)) == 0


@pytest.mark.parametrize("p,m,modulus,tabled", [
    (2, 8, None, False),                 # p = 2 keeps XOR and shift-and-add
    (3, 5, None, True),
    (3, 6, _NOT_PRIMITIVE_3_6, True),    # the largest tabled power of 3
    (1021, 1, None, True),               # the largest tabled prime
    (1031, 1, None, False),              # the first prime past TABLE_MAX_ORDER
    (3, 7, None, False),
    (3, 11, None, False),
])
def test_which_fields_carry_tables(p, m, modulus, tabled):
    spec = build_field(p, m, modulus)
    assert (spec._log is not None) == tabled
    if tabled:
        q1 = spec.order - 1
        assert spec.order <= TABLE_MAX_ORDER
        # exp runs over every nonzero element once, then repeats
        assert sorted(spec._exp[:q1]) == list(range(1, spec.order))
        assert spec._exp[q1:] == spec._exp[:q1]
        assert len(spec._log) == spec.order and len(spec._zech) == q1
    assert spec.x_is_primitive == (modulus is None)


def test_default_modulus_builds_no_tables(monkeypatch):
    # for GF(5^4) the search rejects eight irreducible candidates whose
    # x-bar is not primitive, starting with x^4 + 2; none builds tables
    built = []
    build = galois.FieldSpec._build_tables

    def counting_build(self):
        built.append(self.modulus)
        build(self)

    monkeypatch.setattr(galois.FieldSpec, "_build_tables", counting_build)
    default_modulus.cache_clear()
    galois._cached_spec.cache_clear()
    try:
        assert default_modulus(5, 4) == (2, 2, 1, 0, 1)
        assert built == []
        # and the field itself builds them once
        assert build_field(5, 4) is build_field(5, 4)
        assert built == [(2, 2, 1, 0, 1)]
    finally:
        default_modulus.cache_clear()
        galois._cached_spec.cache_clear()


def _monic(p, m):
    """Every monic polynomial of degree m over GF(p) with f(0) != 0, in the
    search order: its base-p packing (the bitmask for p = 2) and its
    little-endian coefficients."""
    for packed in range(p ** m + 1, 2 * p ** m):
        if packed % p:
            yield packed, [packed // p ** i % p for i in range(m + 1)]


def _extensions(limit):
    """Every (p, m) with p prime, m >= 2 and p^m <= limit."""
    primes = [p for p in range(2, 1 + math.isqrt(limit))
              if all(p % d for d in range(2, math.isqrt(p) + 1))]
    return [(p, m) for p in primes
            for m in range(2, limit.bit_length()) if p ** m <= limit]


def _reference_default_modulus(p, m):
    # the search before the order argument: Rabin's irreducibility test per
    # candidate, run here and not left to FieldSpec (which skips it when x-bar
    # is primitive), then x-bar's order by FieldSpec.power; callers stub out
    # _build_tables, as the search did
    for _, coeffs in _monic(p, m):
        if not is_irreducible(coeffs, p):
            continue
        spec = galois.FieldSpec(p, m, coeffs)
        primitive = spec._has_order(spec.x(), spec.order - 1)
        assert spec.x_is_primitive == primitive
        if primitive:
            return tuple(coeffs)


CAP_EDGES = [(2, 23), (2, 24), (3, 14), (3, 15), (5, 10), (7, 8), (11, 6),
             (13, 6)]


def test_default_modulus_matches_reference_search(monkeypatch):
    monkeypatch.setattr(galois.FieldSpec, "_build_tables", lambda self: None)
    pairs = _extensions(1 << 16)
    assert len(pairs) == 93
    for p, m in pairs + CAP_EDGES:
        assert default_modulus(p, m) == _reference_default_modulus(p, m), (p, m)


def test_order_of_x_decides_primitivity(monkeypatch):
    # for every monic f with f(0) != 0 and p^m <= 2^10, x has order p^m - 1
    # modulo f exactly when f is irreducible and x-bar generates GF(p^m)
    monkeypatch.setattr(galois.FieldSpec, "_build_tables", lambda self: None)
    for p, m in _extensions(1 << 10):
        n = p ** m - 1
        primes = galois._prime_factors(n)
        for packed, coeffs in _monic(p, m):
            primitive = is_irreducible(coeffs, p)
            if primitive:
                spec = galois.FieldSpec(p, m, coeffs)
                primitive = spec._has_order(spec.x(), spec.order - 1)
                assert spec.x_is_primitive == primitive
            f = packed if p == 2 else coeffs
            assert galois._x_has_order(p, f, n, primes) == primitive, (p, coeffs)


def test_is_irreducible_known_cases():
    assert is_irreducible((1, 1, 0, 0, 1), 2)          # x^4 + x + 1
    assert is_irreducible((1, 1, 1, 1, 1), 2)          # x^4 + x^3 + x^2 + x + 1
    assert not is_irreducible((1, 0, 1), 2)            # x^2 + 1 = (x + 1)^2
    assert not is_irreducible((1, 1, 1, 1), 2)         # divisible by x + 1
    assert is_irreducible((1, 1), 2)
    assert is_irreducible((2, 2, 1), 3)                # x^2 + 2x + 2, primitive


def test_default_modulus_is_irreducible_and_primitive():
    for p, m in [(2, 3), (2, 8), (3, 2), (5, 3)]:
        mod = default_modulus(p, m)
        assert len(mod) == m + 1 and mod[-1] == 1
        assert is_irreducible(mod, p)
        assert build_field(p, m, mod).x_is_primitive


def test_irreducibility_is_tested_only_when_x_is_not_primitive(monkeypatch):
    # a modulus whose x-bar is primitive is irreducible, so FieldSpec skips
    # the test; FieldSpec is built directly, past build_field's cache
    calls = []

    def counted(modulus, p):
        calls.append(modulus)
        return is_irreducible(modulus, p)

    monkeypatch.setattr(galois, "is_irreducible", counted)
    assert galois.FieldSpec(2, 8, default_modulus(2, 8)).x_is_primitive
    assert calls == []
    # x^4 + x^3 + x^2 + x + 1 is irreducible, and x-bar has order 5
    assert not galois.FieldSpec(2, 4, (1, 1, 1, 1, 1)).x_is_primitive
    assert len(calls) == 1
    with pytest.raises(RejectedModulus, match="reducible over GF"):
        galois.FieldSpec(2, 4, (1, 0, 1, 0, 1))  # (x^2 + x + 1)^2
    assert len(calls) == 2


def test_build_field_rejects_reducible_modulus():
    with pytest.raises(RejectedModulus):
        build_field(2, 2, (1, 0, 1))


def test_build_field_makes_the_modulus_monic():
    # 2x^3 + x + 2 over GF(3) is 2 * (x^3 + 2x + 1)
    assert build_field(3, 3, (2, 1, 0, 2)) == build_field(3, 3, (1, 2, 0, 1))


def test_a_modulus_needs_degree_m_and_m_at_least_1():
    with pytest.raises(RejectedModulus, match="monic of degree 4"):
        galois.FieldSpec(2, 4, (1, 1, 0, 0, 0, 1))
    with pytest.raises(RejectedModulus, match="degree must be >= 1"):
        build_field(2, 0)


def test_build_field_rejects_field_past_cap():
    # x^31 + x^3 + 1 and x^89 + x^38 + 1 are irreducible over GF(2); both
    # fields lie past the cap, and neither is factored or tested
    for m, mid in [(31, 3), (89, 38)]:
        modulus = [1] + [0] * (m - 1) + [1]
        modulus[mid] = 1
        with pytest.raises(RejectedModulus, match="field-order cap"):
            build_field(2, m, modulus)


def test_exceeds_field_cap_boundaries():
    assert MAX_FIELD_ORDER == 2 ** 24
    assert not exceeds_field_cap(2, 24)
    assert exceeds_field_cap(2, 25)
    assert not exceeds_field_cap(3, 15)  # 3^15 = 14,348,907
    assert exceeds_field_cap(3, 16)
    assert exceeds_field_cap(MAX_FIELD_ORDER, 2)
    assert exceeds_field_cap(2, 10 ** 9)  # answered without forming 2^m


def test_field_axioms_random():
    rng = random.Random(20817)
    for p, m in [(2, 6), (3, 3), (7, 2)]:
        spec = build_field(p, m)
        add, mul = spec.add, spec.mul
        elems = [rng.randrange(spec.order) for _ in range(40)]
        for i in range(0, 39, 3):
            a, b, c = elems[i], elems[i + 1], elems[i + 2]
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            assert mul(a, b) == mul(b, a)
            assert spec.sub(a, a) == 0
            if a:
                assert mul(a, spec.inv(a)) == 1
                # Lagrange: the unit group has order p^m - 1
                assert spec.power(a, spec.order - 1) == 1


def test_frobenius_is_additive():
    spec = build_field(2, 5)
    rng = random.Random(5)
    for _ in range(50):
        a, b = rng.randrange(32), rng.randrange(32)
        assert (spec.power(spec.add(a, b), 2)
                == spec.add(spec.power(a, 2), spec.power(b, 2)))


def test_generator_has_full_order():
    for p, m in [(2, 4), (3, 2)]:
        spec = build_field(p, m)
        g = spec.generator_value()
        seen = set()
        acc = 1
        for _ in range(spec.order - 1):
            acc = spec.mul(acc, g)
            seen.add(acc)
        assert len(seen) == spec.order - 1


@pytest.mark.parametrize("p,m,modulus", [
    (3, 1, None), (7, 1, None), (2, 4, None),
    (2, 4, (1, 1, 1, 1, 1)),       # x-bar of order 5, not primitive
    (2, 8, None), (3, 2, None), (3, 6, _NOT_PRIMITIVE_3_6),
    (5, 2, (2, 0, 1)),             # x^2 + 2: x-bar of order 8, not 24
    (3, 7, None), (251, 2, None)])
def test_generator_scan_matches_a_scan_from_2(p, m, modulus):
    # a fresh FieldSpec, so that the scan runs here
    spec = galois.FieldSpec(p, m, modulus or galois.default_modulus(p, m))
    first = next(v for v in range(2, spec.order) if spec._has_order(v, spec.order - 1))
    assert spec.generator_value() == first


def test_nth_root_order_is_exact():
    spec = build_field(2, 6)
    for n in (3, 7, 9, 21, 63):
        z = nth_root(spec, n).pow(1)
        assert spec.power(z, n) == 1
        for d in range(1, n):
            if n % d == 0 and d < n:
                assert spec.power(z, d) != 1


def test_roots_are_built_once_per_field_and_order():
    spec = build_field(2, 6)
    assert nth_root(spec, 21) is nth_root(build_field(2, 6), 21)
    assert nth_root(spec, 21) is not nth_root(spec, 63)
    fixed = build_field(2, 4, (1, 1, 0, 0, 1))
    assert root_from_x(fixed, 15) is root_from_x(fixed, 15)


def test_nth_root_requires_divisor_of_group_order():
    spec = build_field(2, 4)
    with pytest.raises(OrderUnavailable):
        nth_root(spec, 7)


def test_root_from_x_n15(root15):
    # with modulus x^4 + x + 1 the class of x already has order 15
    spec = root15.spec
    assert root15 == RootOfUnity(spec, spec.x(), 15)
    assert root15.value == root15.pow(1) == spec.x()
    assert spec.power(spec.x(), 15) == 1


def test_root_from_x_rejects_wrong_order():
    spec = build_field(2, 4, (1, 1, 0, 0, 1))
    with pytest.raises(OrderUnavailable):
        root_from_x(spec, 5)


def test_root_from_x_over_a_prime_field():
    # modulo x + 4 over GF(7), x is the constant -4 = 3, of order 6
    assert root_from_x(build_field(7, 1, (4, 1)), 6).value == 3


def test_a_root_is_checked_when_it_is_made():
    spec = build_field(2, 4, (1, 1, 0, 0, 1))
    x = spec.x()  # of order 15
    assert RootOfUnity(spec, x, 15).pow(1) == x
    assert RootOfUnity(spec, spec.power(x, 5), 3).n == 3
    bad = [(1, 15),                    # order 1
           (spec.power(x, 3), 15),     # order 5
           (x, 5), (x, 30), (x, 0), (x, -15),
           (0, 15), (x + 16, 15)]      # zero, and a value past the field
    for value, n in bad:
        with pytest.raises(OrderUnavailable):
            RootOfUnity(spec, value, n)


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9, -3])
def test_a_composite_characteristic_is_rejected(p):
    assert not is_prime(p)
    with pytest.raises(RejectedModulus, match="characteristic"):
        build_field(p, 1)
    with pytest.raises(RejectedModulus, match="characteristic"):
        build_field(p, 1, (2, 1))
    with pytest.raises(RejectedModulus, match="characteristic"):
        default_modulus(p, 2)
    with pytest.raises(RejectedModulus, match="characteristic"):
        galois.FieldSpec(p, 1, (2, 1))


def test_is_prime():
    assert [v for v in range(-5, 40) if is_prime(v)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert is_prime(MAX_FIELD_ORDER - 3)   # 16,777,213
    assert not is_prime(MAX_FIELD_ORDER - 1)


def test_in_subfield():
    spec = build_field(2, 6)
    # the cube subfield GF(2^2) is fixed by the 4th-power Frobenius
    g = spec.generator_value()
    sub = spec.power(g, (spec.order - 1) // 3)
    assert spec.in_subfield(sub, 2)
    assert not spec.in_subfield(g, 2)
    assert spec.in_subfield(1, 1)
    with pytest.raises(InvalidSubfield):
        spec.in_subfield(g, 4)


@pytest.mark.parametrize("p,m", [(2, 8), (3, 5)])
def test_prime_field_is_the_small_packed_values(p, m):
    # the basis int_coeffs and is_rational rely on: GF(p) packs as 0..p-1
    # in_subfield answers d = 1 by v < p, so this checks Frobenius as well
    spec = build_field(p, m)
    for v in range(spec.order):
        assert (spec.power(v, p) == v) == (v < p) == spec.in_subfield(v, 1)


def test_poly_str():
    assert poly_str((1, 1, 0, 0, 1)) == "x^4 + x + 1"
    assert poly_str((0, 1)) == "x"
    assert poly_str((1,)) == "1"


def test_poldivmod_edge_cases():
    # a divisor of degree 0 divides every coefficient by the constant
    assert _poldivmod([1, 2, 3], [2], 5) == ([3, 1, 4], [])
    # a dividend shorter than the divisor is its own remainder
    assert _poldivmod([1, 1], [1, 0, 1], 2) == ([], [1, 1])
    assert _poldivmod([], [1, 1], 3) == ([], [])
    # a non-monic divisor over GF(7): x^3 + 2 = (5x^2 + 3x + 6)(3x + 1) + 3
    assert _poldivmod([2, 0, 0, 1], [1, 3], 7) == ([6, 3, 5], [3])
    # a divisor with zero terms: x^6 - 1 = (x^3 + 1)(x^3 - 1) over GF(3)
    assert _poldivmod([2, 0, 0, 0, 0, 0, 1], [2, 0, 0, 1], 3) == ([1, 0, 0, 1], [])
