import pathlib
import random
import re

import pytest

import bchbound
from bchbound.errors import (
    InvalidSubfield,
    NotCoprime,
    OrderUnavailable,
    RejectedModulus,
)
from bchbound.galois import (
    MAX_FIELD_ORDER,
    FieldElement,
    build_field,
    default_modulus,
    exceeds_field_cap,
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
        zero, one = FieldElement(spec, 0), FieldElement(spec, 1)
        elems = [FieldElement(spec, rng.randrange(spec.order)) for _ in range(40)]
        for i in range(0, 39, 3):
            a, b, c = elems[i], elems[i + 1], elems[i + 2]
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a - a == zero
            if a:
                assert a * a.inverse() == one
                # Lagrange: the unit group has order p^m - 1
                assert a ** (spec.order - 1) == one


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
        g = spec.generator_value()
        seen = set()
        acc = 1
        for _ in range(spec.order - 1):
            acc = spec.mul(acc, g)
            seen.add(acc)
        assert len(seen) == spec.order - 1


def test_nth_root_order_is_exact():
    spec = build_field(2, 6)
    for n in (3, 7, 9, 21, 63):
        z = nth_root(spec, n).pow(1)
        assert spec.power(z, n) == 1
        for d in range(1, n):
            if n % d == 0 and d < n:
                assert spec.power(z, d) != 1


def test_nth_root_requires_divisor_of_group_order():
    spec = build_field(2, 4)
    with pytest.raises(OrderUnavailable):
        nth_root(spec, 7)


def test_root_from_x_n15(root15):
    # with modulus x^4 + x + 1 the class of x already has order 15
    spec = root15.spec
    assert root15.element == FieldElement(spec, spec.x())
    assert root15.pow(1) == spec.x()
    assert spec.power(spec.x(), 15) == 1


def test_root_from_x_rejects_wrong_order():
    spec = build_field(2, 4, (1, 1, 0, 0, 1))
    with pytest.raises(OrderUnavailable):
        root_from_x(spec, 5)


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


def test_field_element_stays_at_the_public_edge():
    # every internal path works on packed ints; only galois builds or
    # unwraps a FieldElement, and __init__ re-exports it
    src = pathlib.Path(bchbound.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name in ("galois.py", "__init__.py"):
            continue
        text = path.read_text()
        assert "FieldElement" not in text, path.name
        assert not re.search(r"\.val\b", text), path.name
