import importlib
import inspect
import itertools
import json
import pkgutil
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bchbound
from bchbound.bounds import certify_equality, code_apparent_distance
from bchbound.cli import _code_record, _poly_exponents
from bchbound.codes import (
    CyclicCode,
    bch_code,
    bose_distance,
    code_from_defining_set,
)
from bchbound.errors import (
    ImproperCode,
    NotCosetClosed,
    NotPrimitiveLength,
    RootMismatch,
)
from bchbound.galois import build_field, nth_root
from bchbound.modring import (
    coset_closure,
    cyclic_runs,
    cyclotomic_cosets,
    multiplicative_order,
)
from bchbound.forge import ConstructionRecord, construct_from_divisor, primitive_family
from bchbound.polyring import FactorList, Poly, QuotientPoly, factor_xn
from bchbound.spectral import (
    Spectrum,
    dft,
    idft,
    indicator_spectrum,
    shifted_spectrum,
)
from bchbound.wtdist import DEFAULT_CAP, DistanceResult, _search, min_distance


def _example_code(root21):
    d = coset_closure([1, 3, 7], 21, 2)
    return code_from_defining_set(21, 2, root21, d)


def test_code_basics(root21):
    code = _example_code(root21)
    assert code.n == 21 and code.q == 2
    assert code.dimension == 10
    assert sorted(code.generator.support()) == [0, 2, 7, 8, 11]
    assert code.generator.degree == len(code.defining_set)
    assert code.complement() == frozenset({0, 5, 9, 10, 13, 15, 17, 18, 19, 20})


def test_generator_defines_the_code(root21):
    code = _example_code(root21)
    gen = QuotientPoly.from_poly(code.generator, 21)
    assert code.contains(gen)
    # shifting and adding keeps membership; the all-ones word is outside
    from bchbound.polyring import cyclic_shift
    assert code.contains(gen + cyclic_shift(gen, 4))
    # a weight-1 word cannot vanish anywhere, so it sits outside the code
    monomial = QuotientPoly.from_ints(code.spec, 21, [1])
    assert not code.contains(monomial)


def test_idempotent_generator(root21):
    code = _example_code(root21)
    e = code.idempotent
    assert e * e == e
    assert code.contains(e)
    s = dft(e, root21)
    assert s.zero_set() == code.defining_set


def test_defining_set_must_be_closed(root21):
    with pytest.raises(NotCosetClosed):
        code_from_defining_set(21, 2, root21, {1, 2})


def test_improper_code_rejected(root21):
    with pytest.raises(ImproperCode):
        code_from_defining_set(21, 2, root21, frozenset(range(21)))


def test_code_is_checked_when_made(root15):
    with pytest.raises(NotCosetClosed):  # C(1) = {1, 2, 4, 8}
        CyclicCode(root15, frozenset({1}))
    with pytest.raises(NotCosetClosed):  # 15 lies outside [0, 15)
        CyclicCode(root15, frozenset({0, 15}))
    with pytest.raises(ImproperCode):
        CyclicCode(root15, frozenset(range(15)))
    d = coset_closure([1], 15, 2)
    assert CyclicCode(root15, d) == code_from_defining_set(15, 2, root15, d)


def _closed_mod_n(indices, n, q):
    """Oracle: the indices mod n are closed under i -> q*i, by definition."""
    s = {i % n for i in indices}
    return all(a * q % n in s for a in s)


@pytest.mark.parametrize("n,q,m", [(21, 2, 6), (40, 3, 4), (63, 2, 6)])
def test_closedness_matches_the_definition(n, q, m):
    # coset_closure(D) == D decides both halves of the check: D is closed,
    # and every member lies in [0, n); indicator_spectrum reduces mod n first
    root = nth_root(build_field(q, m), n)
    reps = cyclotomic_cosets(n, q).representatives
    rng = random.Random(n * q)
    for _ in range(150):
        chosen = rng.sample(reps, rng.randrange(len(reps) + 1))
        s = set(coset_closure(chosen, n, q))
        for _ in range(rng.randrange(3)):  # toggle members of [-n, 2n)
            s ^= {rng.randrange(-n, 2 * n)}
        closed = _closed_mod_n(s, n, q)
        proper = closed and all(0 <= i < n for i in s)
        if proper and len(s) == n:
            with pytest.raises(ImproperCode):
                CyclicCode(root, frozenset(s))
        elif proper:
            assert CyclicCode(root, frozenset(s)).defining_set == s
        else:
            with pytest.raises(NotCosetClosed):
                CyclicCode(root, frozenset(s))
        if closed:
            indicator_spectrum(s, root)
        else:
            with pytest.raises(NotCosetClosed):
                indicator_spectrum(s, root)


@pytest.mark.parametrize("d", [{0}, [0]])
def test_defining_set_must_be_a_frozenset(root15, d):
    with pytest.raises(TypeError, match=type(d).__name__):
        CyclicCode(root15, d)
    assert code_from_defining_set(15, 2, root15, d).dimension == 14


def test_parts_are_derived_once(root21):
    code = _example_code(root21)
    assert code.generator is code.generator
    assert code.idempotent is code.idempotent
    assert code.masks is code.masks
    assert code.masks == {a: sum(1 << (a * i % 21) for i in code.defining_set)
                          for a in (1, 5)}
    assert code.longest_runs is code.longest_runs


def test_zero_defining_set_gives_full_space(root21):
    code = code_from_defining_set(21, 2, root21, frozenset())
    assert code.dimension == 21
    assert sorted(code.generator.support()) == [0]


def test_bch_code_window(root15):
    # the window {1, ..., 6} closes to C(1) + C(3) + C(5)
    code = bch_code(root15, 7, 1)
    assert code.defining_set == coset_closure(range(1, 7), 15, 2) \
        == coset_closure([1, 3, 5], 15, 2)
    assert code.dimension == 5


def test_bch_code_rejects_bad_delta(root15):
    with pytest.raises(ValueError):
        bch_code(root15, 1, 0)


def test_bose_distance_bch(root15):
    assert bose_distance(bch_code(root15, 5, 1)) >= 5


def test_bose_distance_example(root21):
    # the window {7, 8} closes up to the full defining set, and no longer
    # window does, for either representative
    code = _example_code(root21)
    assert bose_distance(code) == 4


def test_bose_distance_none_for_non_bch(root21):
    d = coset_closure([0, 1, 3, 7, 9], 21, 2)
    code = code_from_defining_set(21, 2, root21, d)
    assert bose_distance(code) is None


def test_json_record_round_trips(root21):
    code = _example_code(root21)
    rec = _code_record(code, {"field_poly": _poly_exponents(code.spec.modulus)})
    text = json.dumps(rec, indent=2, sort_keys=True)
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text
    assert rec["dimension"] == 10
    assert rec["defining_set"] == sorted(code.defining_set)


def _bose_distance_by_prefixes(code):
    """Reference: test the closure of every prefix of every window."""
    n, q = code.n, code.q
    best = None
    for a in cyclotomic_cosets(n, q).a_set:
        d_a = frozenset(a * i % n for i in code.defining_set)
        for b in range(n):
            length = 0
            window = []
            while length < n and (b + length) % n in d_a:
                window.append((b + length) % n)
                length += 1
                if coset_closure(window, n, q) == d_a:
                    if best is None or length + 1 > best:
                        best = length + 1
    return best


def _closed_set_codes(n, q):
    """The code of every proper coset-closed defining set mod n."""
    root = nth_root(build_field(q, multiplicative_order(q, n)), n)
    cosets = cyclotomic_cosets(n, q).cosets
    sets = (frozenset().union(*chosen)
            for r in range(len(cosets))
            for chosen in itertools.combinations(cosets, r))
    return [code_from_defining_set(n, q, root, d) for d in sets]


@pytest.mark.parametrize("n,q", [(15, 2), (21, 2), (33, 2), (13, 3)])
def test_bose_distance_matches_prefix_oracle(n, q):
    for code in _closed_set_codes(n, q):
        assert bose_distance(code) == _bose_distance_by_prefixes(code)


def _bose_distance_by_closure(code):
    """Reference: the closure of each maximal run of each a*D, compared
    with a*D itself (a window closing to a*D lies in such a run)."""
    n, q = code.n, code.q
    best = None
    for a in cyclotomic_cosets(n, q).a_set:
        d_a = frozenset(a * i % n for i in code.defining_set)
        for b, length in cyclic_runs(d_a, n):
            if best is not None and length < best:
                continue
            if coset_closure(range(b, b + length), n, q) == d_a:
                best = length + 1
    return best


# every binary code of odd n <= 31 but n = 29, whose field GF(2^28) is past
# the cap, and every ternary code of n <= 16
CENSUS = ([(n, 2) for n in range(1, 32, 2) if n != 29]
          + [(n, 3) for n in range(1, 17) if n % 3])


@pytest.mark.parametrize("n,q", CENSUS)
def test_bose_distance_matches_closure_oracle(n, q):
    for code in _closed_set_codes(n, q):
        assert bose_distance(code) == _bose_distance_by_closure(code)


@pytest.mark.parametrize("n,q", CENSUS)
def test_census_bounds_certificates_and_distances(n, q):
    for code in _closed_set_codes(n, q):
        blind = _search(code, DEFAULT_CAP, 0)
        res = min_distance(code)
        assert blind.exhaustive and res.exhaustive
        d, delta = blind.distance, code_apparent_distance(code).overall
        assert res.distance == d and res.bch_bound == delta
        bose = bose_distance(code)
        assert bose is None or bose <= delta
        assert delta <= d
        cert = certify_equality(code)
        if cert is None:
            continue
        assert d == delta
        # the certificate's word lies in the code seen through its root
        # change a; position i -> a*i mod n brings it back to C
        word = idft(shifted_spectrum(cert.divisor, cert.k, code.root))
        assert word.weight() == delta
        back = [0] * n
        for i, c in enumerate(word.int_coeffs()):
            back[cert.representative * i % n] = c
        assert code.contains(QuotientPoly.from_ints(code.spec, n, back))


def _apparent_distance_reference(code):
    """Reference: Delta(C) and the optimal a, scanning each a*D afresh."""
    n = code.n
    reps = cyclotomic_cosets(n, code.q).a_set
    dstar = {}
    for a in reps:
        runs = cyclic_runs({a * i % n for i in code.defining_set}, n)
        dstar[a] = max((length for _, length in runs), default=0) + 1
    overall = max(dstar.values())
    return overall, tuple(a for a in reps if dstar[a] == overall)


def _bose_distance_reference(code):
    """Reference: bose_distance counting coset labels, scanning each a*D."""
    n, q = code.n, code.q
    partition = cyclotomic_cosets(n, q)
    label = [0] * n
    for index, coset in enumerate(partition.cosets):
        for i in coset:
            label[i] = index
    wanted = len({label[i] for i in code.defining_set})
    best = None
    for a in partition.a_set:
        d_a = frozenset(a * i % n for i in code.defining_set)
        for b, length in cyclic_runs(d_a, n):
            if best is not None and length < best:
                continue
            if len({label[(b + j) % n] for j in range(length)}) == wanted:
                best = length + 1
    return best


def _generator_in_l(code):
    """Reference: prod over j in D of (x - alpha^j), multiplied in L."""
    spec, out = code.spec, Poly.one(code.spec)
    for j in sorted(code.defining_set):
        out = out * Poly(spec, [spec.neg(code.root.pow(j)), 1])
    return out


@pytest.mark.parametrize("n,q", CENSUS)
def test_shared_parts_match_references(n, q):
    for code in _closed_set_codes(n, q):
        assert code.generator == _generator_in_l(code)
        report = code_apparent_distance(code)
        assert (report.overall, report.optimal_reps) == (
            _apparent_distance_reference(code))
        assert bose_distance(code) == _bose_distance_reference(code)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_masks_match_references_at_long_lengths(data):
    # masks span several 64-bit words here, and (7, 13) and (19, 7) are odd q
    n, q = data.draw(st.sampled_from([(255, 2), (511, 2), (1023, 2), (121, 3),
                                      (242, 3), (7, 13), (19, 7)]))
    part = cyclotomic_cosets(n, q)
    kind = data.draw(st.sampled_from(["cosets", "complement", "bch"]))
    if kind == "bch":  # a window's closure seen through a: a BCH code
        b = data.draw(st.integers(0, n - 1))
        length = data.draw(st.integers(1, n // 2))
        a = data.draw(st.sampled_from(part.a_set))
        d = frozenset(a * i % n for i in coset_closure(range(b, b + length), n, q))
    else:
        d = coset_closure(data.draw(st.sets(st.sampled_from(part.representatives),
                                            max_size=6)), n, q)
        if kind == "complement":
            d = frozenset(range(n)) - d
    assume(len(d) < n)
    code = CyclicCode(nth_root(build_field(q, part.order), n), d)
    report = code_apparent_distance(code)
    assert (code.bch_bound, report.optimal_reps) == _apparent_distance_reference(code)
    assert bose_distance(code) == _bose_distance_reference(code)


@pytest.mark.parametrize("n,q", [(255, 2), (341, 2), (511, 2), (1023, 2),
                                 (121, 3), (242, 3)])
def test_generator_over_gf_p_matches_product_in_l(n, q):
    rng = random.Random(f"generator:{n}:{q}")
    root = nth_root(build_field(q, multiplicative_order(q, n)), n)
    reps = cyclotomic_cosets(n, q).representatives
    for size in (1, 3, 5):
        d = coset_closure(rng.sample(reps, size), n, q)
        code = code_from_defining_set(n, q, root, d)
        assert code.generator == _generator_in_l(code)
        assert code.generator.degree == len(d)


def _public_callables():
    for info in pkgutil.iter_modules(bchbound.__path__):
        module = importlib.import_module(f"bchbound.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                yield name, obj
    for name in bchbound.__all__:
        obj = getattr(bchbound, name)
        if not (isinstance(obj, type) and issubclass(obj, Exception)):
            yield name, obj


def test_root_fixes_n_and_q():
    # the root alone fixes n (root.n) and q (root.spec.p); only the pinned
    # entry points restate them, and they check what they are given
    pinned = {"code_from_defining_set", "factor_xn", "Spectrum"}
    for name, obj in _public_callables():
        params = set(inspect.signature(obj).parameters)
        if "root" in params and params & {"n", "q"}:
            assert name in pinned, name


def test_pinned_n_and_q_must_match_the_root(root21):
    d = coset_closure([1, 3, 7], 21, 2)
    with pytest.raises(RootMismatch):
        code_from_defining_set(15, 2, root21, d)
    with pytest.raises(RootMismatch):
        code_from_defining_set(21, 3, root21, d)
    with pytest.raises(RootMismatch):
        factor_xn(15, root21)
    e = idft(indicator_spectrum(d, root21))
    assert e.n == len(e.coeffs) == 21


def test_restated_n_and_m_must_match_the_root(root21):
    with pytest.raises(RootMismatch):
        Spectrum(15, root21, (1,) * 15)
    with pytest.raises(RootMismatch):
        Spectrum(21, root21, (1,) * 15)
    # primitive_family reads n and m from its root, and checks them
    with pytest.raises(NotPrimitiveLength):
        primitive_family(root21)
    with pytest.raises(NotPrimitiveLength):  # order 7, but over GF(3^6)
        primitive_family(nth_root(build_field(3, 6), 7))
    # the field of the root may be larger than GF(2^m)
    wide = primitive_family(nth_root(build_field(2, 8), 15))
    assert [(r.dimension, r.bch_bound) for r in wide] == [
        (r.dimension, r.bch_bound)
        for r in primitive_family(nth_root(build_field(2, 4), 15))]


def test_a_word_must_have_the_roots_length(root15):
    spec = root15.spec
    with pytest.raises(RootMismatch):
        dft(QuotientPoly.from_ints(spec, 21, [1, 1]), root15)
    code = CyclicCode(root15, coset_closure([1], 15, 2))
    with pytest.raises(RootMismatch):
        code.contains(QuotientPoly.from_ints(spec, 30, [0] * 30))
    # a Poly of any degree is read mod x^15 - 1
    assert (dft(Poly.from_ints(spec, [0] * 15 + [1]), root15)
            == dft(Poly.one(spec), root15))


def test_derived_values_are_properties(root21):
    def names(cls):
        return list(cls.__match_args__)

    assert names(QuotientPoly) == ["spec", "coeffs"]
    assert names(FactorList) == ["root", "subfield_degree", "factors"]
    assert names(CyclicCode) == ["root", "defining_set"]
    assert names(DistanceResult) == ["distance", "witness", "enumerated",
                                     "lower_bound", "bch_bound"]
    assert "dimension" not in names(ConstructionRecord)
    assert "source" not in inspect.signature(construct_from_divisor).parameters
    assert list(inspect.signature(primitive_family).parameters) == ["root"]
    # and each reads what it used to hold
    factors = factor_xn(21, root21)
    assert factors.root == root21
    assert QuotientPoly.from_ints(root21.spec, 21, [1]).n == 21
    assert cyclotomic_cosets(21, 2).order == 6
    code = _example_code(root21)
    res = min_distance(code)
    assert res.exhaustive and res.lower_bound == res.distance
    assert not _search(code, 1, 0).exhaustive
    rec = primitive_family(nth_root(build_field(2, 4), 15))[0]
    assert rec.dimension == rec.code.dimension == 8
