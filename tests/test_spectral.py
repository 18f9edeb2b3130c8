import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchbound import spectral
from bchbound.errors import CoefficientLeak, NotCosetClosed
from bchbound.galois import FieldSpec, build_field, nth_root, poly_str, root_from_x
from bchbound.modring import coset_closure, cyclotomic_cosets, multiplicative_order
from bchbound.polyring import Poly, QuotientPoly
from bchbound.spectral import Spectrum, dft, idft, indicator_spectrum, is_rational
from test_galois import ref_add, ref_inv, ref_mul, ref_power

# (n, q, m): the criterion-9 rings, two long lengths and two fields whose
# coordinate vectors carry digits 2..p-1
SETUPS = [(15, 2, 4), (21, 2, 6), (17, 2, 8), (11, 3, 5), (121, 3, 5),
          (255, 2, 8), (24, 5, 2), (16, 7, 2)]


@functools.lru_cache(maxsize=None)
def _root(n, q, m):
    return nth_root(build_field(q, m), n)


def _horner(coeffs, root, sign):
    """Reference transform: Horner evaluation at powers of alpha.

    The library splits L-valued input into prime-field coordinate vectors
    and computes with FieldSpec's tables; this O(n^2) evaluation shares
    neither and runs on the reference arithmetic of test_galois (a nested-loop
    product and long division on digits), so it is the oracle for both.
    """
    spec, z = root.spec, root.value
    out = []
    for i in range(root.n):
        point = ref_power(spec, z, sign * i % root.n)
        acc = 0
        for c in reversed(coeffs):
            acc = ref_add(spec, ref_mul(spec, acc, point), c)
        out.append(acc)
    return tuple(out)


def _horner_idft(values, root):
    spec = root.spec
    n_inv = ref_inv(spec, root.n % spec.p)
    return tuple(ref_mul(spec, n_inv, v) for v in _horner(values, root, -1))


def _reference_transform(coeffs, root, sign):
    """Reference for spectral._table_transform on GF(p) input: a field sum
    per term.

    Each output at a p-coset representative i sums alpha^(sign*i*j) over
    the support, grouped by coefficient, with FieldSpec.add; the rest of
    the coset follows by Frobenius, out[p*i] = out[i]^p, with spec.power.
    It shares no packing with the library's columns.  The Frobenius step
    holds only for GF(p) input, so it is no oracle for L-valued input,
    binary or not; _horner is.
    """
    spec, n, powers = root.spec, root.n, root.powers
    p = spec.p
    by_coeff = {}
    for j, c in enumerate(coeffs):
        if c:
            by_coeff.setdefault(c, []).append(j)
    add, mul = spec.add, spec.mul
    out = [None] * n
    for i in range(n):
        if out[i] is not None:
            continue
        step = sign * i % n
        acc = 0
        for c, exps in by_coeff.items():
            part = 0
            for j in exps:
                part = add(part, powers[step * j % n])
            acc = add(acc, part if c == 1 else mul(c, part))
        out[i] = acc
        k = p * i % n
        while k != i:
            acc = spec.power(acc, p)
            out[k] = acc
            k = p * k % n
    return out


def _values(top, min_size, max_size):
    return st.lists(st.integers(0, top - 1), min_size=min_size,
                    max_size=max_size)


_oracle = settings(max_examples=4, deadline=None)


@pytest.mark.parametrize("n,q,m", SETUPS)
@_oracle
@given(data=st.data())
def test_transforms_match_horner_on_prime_field_input(n, q, m, data):
    root = _root(n, q, m)
    values = data.draw(_values(q, n, n))
    word = QuotientPoly(root.spec, tuple(values))
    assert dft(word, root).values == _horner(values, root, 1)
    s = Spectrum(n, root, tuple(values))
    assert idft(s).coeffs == _horner_idft(values, root)


@pytest.mark.parametrize("n,q,m", SETUPS)
@_oracle
@given(data=st.data())
def test_transforms_match_horner_on_field_valued_input(n, q, m, data):
    root = _root(n, q, m)
    values = data.draw(_values(root.spec.order, n, n))
    # at least one value outside GF(q), so the coordinates are recombined
    values[data.draw(st.integers(0, n - 1))] = data.draw(
        st.integers(q, root.spec.order - 1))
    s = Spectrum(n, root, tuple(values))
    assert idft(s).coeffs == _horner_idft(values, root)
    word = QuotientPoly(root.spec, tuple(values))
    assert dft(word, root).values == _horner(values, root, 1)


@pytest.mark.parametrize("n,q,m", SETUPS)
@_oracle
@given(data=st.data())
def test_transforms_keep_the_basis_order(n, q, m, data):
    # T(xbar^k * w) = xbar^k * T(w) for a prime-field w: coordinate k of
    # the input comes back as coordinate k of the output
    root = _root(n, q, m)
    spec = root.spec
    w = data.draw(_values(q, n, n))
    word_s = dft(QuotientPoly(spec, tuple(w)), root).values
    back = idft(Spectrum(n, root, tuple(w))).coeffs
    xk = 1
    for _ in range(m):
        scaled = tuple(spec.mul(xk, c) for c in w)
        assert dft(QuotientPoly(spec, scaled), root).values == tuple(
            spec.mul(xk, v) for v in word_s)
        assert idft(Spectrum(n, root, scaled)).coeffs == tuple(
            spec.mul(xk, c) for c in back)
        xk = spec.mul(xk, spec.x())


@pytest.mark.parametrize("n,q,m", SETUPS)
@_oracle
@given(data=st.data())
def test_dft_of_long_poly_matches_horner(n, q, m, data):
    root = _root(n, q, m)
    top = data.draw(st.sampled_from([q, root.spec.order]))
    values = data.draw(_values(top, n + 1, 2 * n))
    poly = Poly(root.spec, values)
    assert dft(poly, root).values == _horner(values, root, 1)
    assert dft(poly, root) == dft(QuotientPoly.from_poly(poly, n), root)


@pytest.mark.parametrize("n,q,m", SETUPS)
def test_transforms_of_zero(n, q, m):
    root = _root(n, q, m)
    zero = QuotientPoly(root.spec, (0,) * n)
    assert dft(zero, root).values == (0,) * n
    assert dft(Poly.zero(root.spec), root).values == (0,) * n
    assert idft(Spectrum(n, root, (0,) * n)) == zero


@pytest.mark.parametrize("q", [2, 3])
def test_transforms_at_n_equal_1(q):
    root = nth_root(build_field(q, 1), 1)
    for c in range(q):
        word = QuotientPoly.from_ints(root.spec, 1, [c])
        s = dft(word, root)
        assert s.values == (c,)
        assert idft(s) == word


@pytest.mark.parametrize("n,q,m", SETUPS)
def test_power_table_and_discrete_log(n, q, m):
    root = _root(n, q, m)
    for e in range(-2 * n, 0):
        assert root.pow(e) == ref_power(root.spec, root.value, e % n)
    for t in range(n):
        assert root.dlog(root.pow(t)) == t
    assert root.dlog(0) is None
    outside = [v for v in range(1, root.spec.order) if root.dlog(v) is None]
    assert len(outside) == root.spec.order - 1 - n
    assert all(root.spec.power(v, n) != 1 for v in outside[:50])


# (p, m, modulus, n, from_x) for the packed columns against the reference:
# p in {2, 3, 5, 7}, m = 1 fields, n = 1, a modulus whose x-bar has order 5
# (taken as the root and under a primitive root of order 15), and GF(3^8),
# past TABLE_MAX_ORDER, at n = 41
PACKED_SETUPS = [(2, 4, None, 15, False), (2, 6, None, 21, False),
                 (2, 1, None, 1, False), (3, 1, None, 2, False),
                 (5, 1, None, 4, False), (7, 1, None, 6, False),
                 (2, 4, (1, 1, 1, 1, 1), 5, True),
                 (2, 4, (1, 1, 1, 1, 1), 15, False),
                 (3, 5, None, 11, False), (3, 8, None, 41, False),
                 (5, 2, None, 24, False), (7, 2, None, 16, False)]


@functools.lru_cache(maxsize=None)
def _packed_root(p, m, modulus, n, from_x):
    spec = build_field(p, m, modulus)
    return root_from_x(spec, n) if from_x else nth_root(spec, n)


def _check_packed(coeffs, root):
    for sign in (1, -1):
        packed = spectral._table_transform(coeffs, root, sign)
        assert packed == _reference_transform(coeffs, root, sign)
        assert tuple(packed) == _horner(coeffs, root, sign)


@pytest.mark.parametrize("setup", PACKED_SETUPS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_packed_columns_match_the_reference(setup, data):
    root = _packed_root(*setup)
    n, p = root.n, root.spec.p
    _check_packed(data.draw(_values(p, 0, 2 * n)), root)


@pytest.mark.parametrize("setup", PACKED_SETUPS)
def test_packed_columns_at_full_lane_load(setup):
    # all coefficients p - 1 put the largest load on the digit lanes; it
    # stays under n(p - 1)^2 only because longer input is folded first
    root = _packed_root(*setup)
    n, p = root.n, root.spec.p
    _check_packed((0,) * n, root)
    for length in sorted({n, n + 1, 2 * n - 1, 2 * n}):
        _check_packed((p - 1,) * length, root)


@pytest.mark.parametrize("n,q,m", [(255, 2, 8), (121, 3, 5), (24, 5, 2)])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_packed_columns_match_the_reference_at_long_lengths(n, q, m, data):
    root = _root(n, q, m)
    coeffs = data.draw(_values(q, n, 2 * n))
    for sign in (1, -1):
        assert (spectral._table_transform(coeffs, root, sign)
                == _reference_transform(coeffs, root, sign))


def _counting_columns(monkeypatch):
    built = []
    columns = spectral._columns

    def count(root, orbits):
        built.append(len(orbits))
        return columns(root, orbits)

    monkeypatch.setattr(spectral, "_columns", count)
    spectral._cached_columns.cache_clear()
    return built


def test_columns_past_the_cap_are_built_per_call(monkeypatch):
    built = _counting_columns(monkeypatch)
    monkeypatch.setattr(spectral, "COLUMN_CACHE_BYTES", 2)
    rng = random.Random(309)
    for root, q in [(_root(21, 2, 6), 2), (_root(11, 3, 5), 3)]:
        orbits = len(cyclotomic_cosets(root.n, q).cosets)
        coeffs = [rng.randrange(q) for _ in range(root.n)]
        for sign in (1, -1):
            del built[:]
            assert (spectral._table_transform(coeffs, root, sign)
                    == _reference_transform(coeffs, root, sign))
            # one block per representative: 2 bytes hold less than a column
            assert built == [1] * orbits
    assert spectral._cached_columns.cache_info().currsize == 0


def test_columns_under_the_cap_are_built_once(monkeypatch):
    built = _counting_columns(monkeypatch)
    root = _root(255, 2, 8)
    orbits = len(cyclotomic_cosets(255, 2).cosets)
    rng = random.Random(310)
    for sign in (1, -1, 1, -1):
        coeffs = [rng.randrange(2) for _ in range(255)]
        assert (spectral._table_transform(coeffs, root, sign)
                == _reference_transform(coeffs, root, sign))
    assert built == [orbits]
    assert spectral._cached_columns.cache_info().currsize == 1
    # n |R| m bits: about 9 KiB, far under the cap
    table = spectral._cached_columns(root)
    assert sum(c.bit_length() for c in table) <= 255 * orbits * 8


def test_one_column_table_is_held_per_process():
    rng = random.Random(311)
    for root, q in [(_root(255, 2, 8), 2), (_root(21, 2, 6), 2),
                    (_root(11, 3, 5), 3)]:
        coeffs = [rng.randrange(q) for _ in range(root.n)]
        assert (spectral._table_transform(coeffs, root, 1)
                == _reference_transform(coeffs, root, 1))
    assert spectral._cached_columns.cache_info().currsize == 1


def _check_horner(values, root):
    """dft and idft of L-valued values against the Horner oracle."""
    spec = root.spec
    assert dft(QuotientPoly(spec, tuple(values)), root).values == _horner(
        values, root, 1)
    assert idft(Spectrum(root.n, root, tuple(values))).coeffs == _horner_idft(
        values, root)


def test_binary_field_values_past_the_cap_match_horner(monkeypatch):
    built = _counting_columns(monkeypatch)
    monkeypatch.setattr(spectral, "COLUMN_CACHE_BYTES", 2)
    rng = random.Random(312)
    for n, m in [(21, 6), (15, 4)]:
        root = _root(n, 2, m)
        orbits = len(cyclotomic_cosets(n, 2).cosets)
        values = [rng.randrange(root.spec.order) for _ in range(n)]
        values[0] = root.spec.order - 1  # every bit plane is nonzero
        del built[:]
        _check_horner(values, root)
        # one block per representative, for dft and for idft
        assert built == [1] * (2 * orbits)
    assert spectral._cached_columns.cache_info().currsize == 0


@pytest.mark.parametrize("n,m", [(15, 4), (21, 6), (255, 8)])
def test_long_binary_field_valued_poly_is_folded_by_xor(n, m):
    # x^n = 1 mod x^n - 1, so index j + n adds to index j in GF(2^m): an
    # XOR of packed values, where an integer sum would overflow the field
    root = _root(n, 2, m)
    rng = random.Random(313 + n)
    values = [rng.randrange(1, root.spec.order) for _ in range(2 * n)]
    poly = Poly(root.spec, values)
    assert dft(poly, root).values == _horner(values, root, 1)
    folded = [a ^ b for a, b in zip(values, values[n:])]
    assert dft(poly, root) == dft(QuotientPoly(root.spec, tuple(folded)), root)


@pytest.mark.parametrize("n,m", [(31, 5), (73, 9), (127, 7)])
def test_every_lane_reduces_at_every_horner_step(n, m):
    # Every orbit but {0} has full length m here.  Pick the Horner
    # accumulators acc_0, ..., acc_(m-2) of each such lane with xbar^(m-1)
    # set, so multiplying each by xbar reduces by the modulus, and read the
    # level-0 plane lanes off them: L_(m-1) = acc_0 and
    # L_k = acc_(m-1-k) + xbar * acc_(m-2-k).  Plane k's GF(2) vector is the
    # Horner inverse of the rational spectrum with L_k on its orbit lanes.
    root = _root(n, 2, m)
    spec, rng = root.spec, random.Random(314 + n)
    xbar, top = spec.x(), 1 << m - 1
    orbits = spectral._orbits(n, 2)
    spectra = [[0] * n for _ in range(m)]
    for orbit in orbits:
        if len(orbit) == 1:
            lanes = [rng.randrange(2) for _ in range(m)]
        else:
            acc = [rng.randrange(top, 1 << m) for _ in range(m - 1)]
            acc.append(rng.randrange(1, 1 << m))
            lanes = [acc[m - 1 - k] ^ spec.mul(xbar, acc[m - 2 - k])
                     for k in range(m - 1)] + [acc[0]]
            a = lanes[-1]  # replay the Horner steps
            for k in range(m - 2, -1, -1):
                assert a & top
                a = spec.mul(a, xbar) ^ lanes[k]
            assert a == acc[-1]
        for k, v in enumerate(lanes):
            for i in orbit:
                spectra[k][i] = v
                v = spec.mul(v, v)
    values = [0] * n
    for k, s in enumerate(spectra):
        plane = _horner_idft(s, root)
        assert set(plane) <= {0, 1}
        values = [v | b << k for v, b in zip(values, plane)]
    _check_horner(values, root)


def _forbid_digits_and_horner(monkeypatch):
    def forbidden(*args):
        raise AssertionError("binary input reached the digit planes")

    monkeypatch.setattr(Poly, "eval", forbidden)
    monkeypatch.setattr(FieldSpec, "decode", forbidden)


def test_binary_field_valued_input_skips_digits_and_horner(monkeypatch):
    root = _root(255, 2, 8)
    rng = random.Random(315)
    values = tuple(rng.randrange(256) for _ in range(255))
    word = QuotientPoly(root.spec, values)
    want_s, want_w = _horner(values, root, 1), _horner_idft(values, root)
    _forbid_digits_and_horner(monkeypatch)
    assert dft(word, root).values == want_s
    assert idft(Spectrum(255, root, values)).coeffs == want_w


def test_odd_p_field_valued_input_recombines_by_horner(monkeypatch):
    root = _root(121, 3, 5)
    calls = []
    eval_ = Poly.eval

    def counted(poly, point):
        calls.append(point)
        return eval_(poly, point)

    monkeypatch.setattr(Poly, "eval", counted)
    rng = random.Random(316)
    values = [rng.randrange(root.spec.order) for _ in range(121)]
    s = Spectrum(121, root, tuple(values))
    assert idft(s).coeffs == _horner_idft(values, root)
    # one evaluation at xbar per output
    assert calls == [root.spec.x()] * 121


@pytest.mark.parametrize("bad", [16, 17, -1])
def test_values_outside_the_field_are_rejected(root15, bad):
    # 17 = 16 + 1 was read as 1, and -1 passed the GF(2) test as if it
    # were 1; each is named instead of wrapped into GF(16), as is 16, the
    # first value past the field
    values = (bad,) + (0,) * 14
    with pytest.raises(CoefficientLeak, match=f"value {bad} "):
        idft(Spectrum(15, root15, values))
    with pytest.raises(CoefficientLeak, match=f"value {bad} "):
        dft(QuotientPoly(root15.spec, values), root15)


def test_spectrum_str_names_root_powers(root15):
    # the spectrum of the word x is (alpha^i)_i
    s = dft(QuotientPoly.from_ints(root15.spec, 15, [0, 1]), root15)
    assert str(s) == "[" + ", ".join(f"a^{i}" for i in range(15)) + "]"


def test_spectrum_str_spells_values_off_the_root_powers():
    # 1 + x + x^3 at an order-17 root of GF(2^8): some values are not in <a>
    root = nth_root(build_field(2, 8), 17)
    s = dft(Poly.from_ints(root.spec, [1, 1, 0, 1]), root)
    text = str(s)
    assert text.startswith("[a^0, (") and "None" not in text
    entries = text[1:-1].split(", ")
    for v, entry in zip(s.values, entries):
        t = root.dlog(v)
        if t is None:
            assert entry == f"({poly_str(root.spec.decode(v))})"
        else:
            assert entry == f"a^{t}"


def _star(s, t):
    """Coordinatewise product of two spectra over one root."""
    mul = s.root.spec.mul
    return Spectrum(s.n, s.root, tuple(map(mul, s.values, t.values)))


def _is_idempotent(s):
    mul = s.root.spec.mul
    return all(mul(v, v) == v for v in s.values)


def _random_word(spec, n, q, rng):
    return QuotientPoly.from_ints(spec, n, [rng.randrange(q) for _ in range(n)])


def test_dft_idft_roundtrip_random(root15, root21, root11_3):
    rng = random.Random(303)
    for root, q in [(root15, 2), (root21, 2), (root11_3, 3)]:
        for _ in range(60):
            f = _random_word(root.spec, root.n, q, rng)
            assert idft(dft(f, root)) == f


def test_dft_is_ring_morphism(root15):
    # multiplication mod x^n - 1 becomes the coordinatewise star product
    rng = random.Random(304)
    for _ in range(40):
        f = _random_word(root15.spec, 15, 2, rng)
        g = _random_word(root15.spec, 15, 2, rng)
        lhs = dft(f * g, root15)
        rhs = _star(dft(f, root15), dft(g, root15))
        assert lhs == rhs


def test_dft_of_xn_coset_structure(root21):
    # spectrum of a binary word is constant on conjugacy orbits: s[2i] = s[i]^2
    rng = random.Random(305)
    for _ in range(40):
        f = _random_word(root21.spec, 21, 2, rng)
        s = dft(f, root21)
        for i in range(21):
            assert s.values[2 * i % 21] == root21.spec.mul(s.values[i],
                                                           s.values[i])


def test_is_rational_matches_int_coeffs(root15, root11_3):
    rng = random.Random(306)
    spec16 = root15.spec
    gf4 = [v for v in range(spec16.order) if spec16.power(v, 4) == v]
    cases = [(root15, 2, range(spec16.order)),             # all of GF(16)
             (root15, 2, gf4),                              # GF(4) values
             (root11_3, 3, range(root11_3.spec.order))]     # ternary root
    for root, q, pool in cases:
        n = root.n
        spectra = [tuple(rng.choice(pool) for _ in range(n)) for _ in range(100)]
        # and spectra of words over GF(q), which are always rational
        spectra += [dft(_random_word(root.spec, n, q, rng), root).values
                    for _ in range(20)]
        for values in spectra:
            s = Spectrum(n, root, values)
            f = idft(s)
            try:
                f.int_coeffs()
                landed = True
            except CoefficientLeak:
                landed = False
            assert is_rational(s) == landed


def test_is_rational_reads_index_0(root7):
    # index 0 is its own q-multiple, so only values[0] = values[0]^2 tests it;
    # x lies in GF(8) but not in GF(2)
    values = (root7.spec.x(),) + (0,) * 6
    assert not is_rational(Spectrum(7, root7, values))


def test_indicator_spectrum_is_idempotent(root21):
    d = coset_closure([1, 3, 7], 21, 2)
    s = indicator_spectrum(d, root21)
    assert _is_idempotent(s)
    assert s.zero_set() == d
    assert s.support() == frozenset(range(21)) - d
    e = idft(s)
    assert e * e == e


def test_indicator_spectrum_requires_closed_set(root21):
    with pytest.raises(NotCosetClosed):
        indicator_spectrum({1, 2}, root21)


def test_idempotent_spectrum_n17(root17):
    # the defining set C(1) yields an idempotent supported on {0} u C(1)
    # whose spectrum is exactly the 0/1 indicator of the non-zeros
    d = coset_closure([1], 17, 2)
    s = indicator_spectrum(d, root17)
    assert str(s) == "( 1 0 0 1 0 1 1 1 0 0 1 1 1 0 1 0 0 )"
    e = idft(s)
    assert sorted(e.support()) == [0, 1, 2, 4, 8, 9, 13, 15, 16]
    assert dft(e, root17) == s


# (n, q) for the coset path: short and long binary and ternary lengths;
# (63, 2) and (56, 3) have cosets C with p dividing m/|C|, and (41, 3)
# lives in GF(3^8), past the Zech-table cap
COSET_SETUPS = [(15, 2), (21, 2), (255, 2), (13, 3), (121, 3), (63, 2),
                (56, 3), (41, 3)]


def _coset_root(n, q):
    return _root(n, q, multiplicative_order(q, n))


def _table_idft(values, root):
    """Reference inverse: the packed-column path, which serves every input."""
    spec = root.spec
    n_inv = spec.inv(root.n % spec.p)
    return tuple(spec.mul(n_inv, c)
                 for c in spectral._table_transform(values, root, -1))


def _check_idempotent(d, root):
    s = indicator_spectrum(d, root)
    for sign in (1, -1):
        assert (spectral._coset_transform(s.values, root, sign)
                == spectral._table_transform(s.values, root, sign))
    e = idft(s)
    assert e.coeffs == _table_idft(s.values, root)
    back = dft(e, root)
    assert back == s and _is_idempotent(back)


@pytest.mark.parametrize("n,q", COSET_SETUPS)
def test_idempotents_by_cosets_match_the_table(n, q):
    # the empty set, each dimension-1 code (all but a one-point coset) and
    # every coset-closed D where there are few cosets, else a sample of them
    root = _coset_root(n, q)
    cosets = cyclotomic_cosets(n, q).cosets
    everything = frozenset(range(n))
    sets = [frozenset()] + [everything - set(c) for c in cosets if len(c) == 1]
    if len(cosets) <= 6:
        sets += [frozenset().union(*chosen) for r in range(1, len(cosets))
                 for chosen in itertools.combinations(cosets, r)]
    else:
        rng = random.Random(308)
        sets += [frozenset().union(*rng.sample(cosets, rng.randrange(1, 6)))
                 for _ in range(8)]
    for d in sets:
        _check_idempotent(d, root)


@pytest.mark.parametrize("n,q", COSET_SETUPS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_coset_constant_vectors_match_the_table(n, q, data):
    root = _coset_root(n, q)
    values = [0] * n
    for coset in cyclotomic_cosets(n, q).cosets:
        v = data.draw(st.integers(0, q - 1))
        for i in coset:
            values[i] = v
    values = tuple(values)
    for sign in (1, -1):
        assert (spectral._coset_transform(values, root, sign)
                == spectral._table_transform(values, root, sign))
    word = QuotientPoly(root.spec, values)
    assert dft(word, root).values == tuple(
        spectral._table_transform(values, root, 1))
    assert idft(Spectrum(n, root, values)).coeffs == _table_idft(values, root)


def test_coset_constant_input_skips_the_table(root21, monkeypatch):
    def table(*args):
        raise AssertionError("coset-constant input reached the column path")

    s = indicator_spectrum(coset_closure([1, 3, 7], 21, 2), root21)
    monkeypatch.setattr(spectral, "_table_transform", table)
    assert dft(idft(s), root21) == s


@pytest.mark.parametrize("p,m,modulus", [
    (2, 1, None), (3, 1, None), (5, 1, (2, 1)), (2, 4, None),
    (2, 4, (1, 1, 1, 1, 1)),     # x-bar of order 5, not primitive
    (2, 6, (1, 0, 1, 0, 1, 1, 1)), (3, 2, (1, 0, 1)), (3, 5, None),
    (3, 8, None), (5, 2, None), (7, 2, None)])
def test_trace_matches_the_sum_of_conjugates(p, m, modulus):
    spec = build_field(p, m, modulus)
    trace = spectral._trace(spec)
    values = range(spec.order) if spec.order <= 256 else random.Random(
        307).sample(range(spec.order), 256)
    for v in values:
        total, conj = 0, v
        for _ in range(m):
            total = spec.add(total, conj)
            conj = spec.power(conj, p)
        assert total < p and trace(v) == total
