import random

import pytest

from bchbound.errors import NotCoprime, OrderUnavailable, RejectedModulus
from bchbound.galois import (
    FieldElement,
    build_field,
    default_modulus,
    in_subfield,
    is_irreducible,
    nth_root,
    poly_str,
    root_from_x,
)


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


def test_build_field_rejects_reducible_modulus():
    with pytest.raises(RejectedModulus):
        build_field(2, 2, (1, 0, 1))


def test_field_axioms_random():
    rng = random.Random(20817)
    for p, m in [(2, 6), (3, 3), (7, 2)]:
        spec = build_field(p, m)
        elems = [FieldElement(spec, rng.randrange(spec.order)) for _ in range(40)]
        for i in range(0, 39, 3):
            a, b, c = elems[i], elems[i + 1], elems[i + 2]
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a - a == spec.zero()
            if a.val:
                assert a * a.inverse() == spec.one()
                # Lagrange: the unit group has order p^m - 1
                assert a ** (spec.order - 1) == spec.one()


def test_frobenius_is_additive():
    spec = build_field(2, 5)
    rng = random.Random(5)
    for _ in range(50):
        a = FieldElement(spec, rng.randrange(32))
        b = FieldElement(spec, rng.randrange(32))
        assert (a + b) ** 2 == a ** 2 + b ** 2


def test_generator_has_full_order():
    for p, m in [(2, 4), (3, 2)]:
        spec = build_field(p, m)
        g = FieldElement(spec, spec.generator_value())
        seen = set()
        acc = spec.one()
        for _ in range(spec.order - 1):
            acc = acc * g
            seen.add(acc.val)
        assert len(seen) == spec.order - 1


def test_nth_root_order_is_exact():
    spec = build_field(2, 6)
    for n in (3, 7, 9, 21, 63):
        a = nth_root(spec, n)
        el = a.element
        assert el ** n == spec.one()
        for d in range(1, n):
            if n % d == 0 and d < n:
                assert el ** d != spec.one()


def test_nth_root_requires_divisor_of_group_order():
    spec = build_field(2, 4)
    with pytest.raises(OrderUnavailable):
        nth_root(spec, 7)


def test_root_from_x_n15(root15):
    # with modulus x^4 + x + 1 the class of x already has order 15
    assert root15.element == root15.spec.x()
    assert root15.element ** 15 == root15.spec.one()


def test_root_from_x_rejects_wrong_order():
    spec = build_field(2, 4, (1, 1, 0, 0, 1))
    with pytest.raises(OrderUnavailable):
        root_from_x(spec, 5)


def test_in_subfield():
    spec = build_field(2, 6)
    # the cube subfield GF(2^2) is fixed by the 4th-power Frobenius
    g = FieldElement(spec, spec.generator_value())
    sub = g ** ((spec.order - 1) // 3)
    assert in_subfield(sub, 2)
    assert not in_subfield(g, 2)
    assert in_subfield(spec.one(), 1)


@pytest.mark.parametrize("p,m", [(2, 8), (3, 5)])
def test_prime_field_is_the_small_packed_values(p, m):
    # the basis int_coeffs and is_rational rely on: GF(p) packs as 0..p-1
    spec = build_field(p, m)
    for v in range(spec.order):
        assert in_subfield(FieldElement(spec, v), 1) == (v < p)


def test_poly_str():
    assert poly_str((1, 1, 0, 0, 1)) == "x^4 + x + 1"
    assert poly_str((0, 1)) == "x"
    assert poly_str((1,)) == "1"
