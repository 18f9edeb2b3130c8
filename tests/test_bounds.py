import itertools
import random

import pytest

from bchbound import bounds
from bchbound.bounds import (
    Certificate,
    apparent_distance_vec,
    certify_equality,
    code_apparent_distance,
)
from bchbound.codes import CyclicCode, code_from_defining_set
from bchbound.errors import BudgetExceeded
from bchbound.galois import build_field, nth_root
from bchbound.modring import (
    coset_closure,
    cyclic_runs,
    cyclotomic_cosets,
    multiplicative_order,
)
from bchbound.polyring import divisor_enumerate, factor_xn
from bchbound.spectral import dft, idft, is_rational, shifted_spectrum
from bchbound.wtdist import DEFAULT_CAP, _search, min_distance


def test_apparent_distance_vec_edges():
    assert apparent_distance_vec([0, 0, 0, 0]) == 0
    assert apparent_distance_vec([1, 1, 1]) == 1
    assert apparent_distance_vec([1, 0, 0, 0, 0]) == 5   # run wraps to length 4
    assert apparent_distance_vec([0, 1, 0, 1]) == 2
    assert apparent_distance_vec([1]) == 1


def test_apparent_distance_vec_rotation_invariant():
    rng = random.Random(71)
    for _ in range(200):
        n = rng.randrange(2, 24)
        v = [rng.randrange(2) for _ in range(n)]
        base = apparent_distance_vec(v)
        k = rng.randrange(n)
        assert apparent_distance_vec(v[k:] + v[:k]) == base


def test_code_apparent_distance_n21(root21):
    code = code_from_defining_set(21, 2, root21,
                                  coset_closure([1, 3, 7], 21, 2))
    report = code_apparent_distance(code)
    assert report.overall == 5
    assert set(report.optimal_reps) == {1, 5}
    # through each optimal a, D has a run of Delta - 1 consecutive members
    for a in report.optimal_reps:
        runs = cyclic_runs({a * i % 21 for i in code.defining_set}, 21)
        assert max(length for _, length in runs) == report.overall - 1


def test_code_apparent_distance_n41():
    root = nth_root(build_field(2, 20), 41)
    code = code_from_defining_set(41, 2, root, coset_closure([1], 41, 2))
    report = code_apparent_distance(code)
    assert report.overall == 6
    assert set(report.optimal_reps) == {3}


def test_bound_below_distance_random():
    rng = random.Random(72)
    for n in (15, 17, 21):
        root = nth_root(build_field(2, {15: 4, 17: 8, 21: 6}[n]), n)
        reps = cyclotomic_cosets(n, 2).representatives
        for _ in range(10):
            chosen = [r for r in reps if rng.random() < 0.5]
            d_set = coset_closure(chosen, n, 2)
            if not d_set or len(d_set) == n:
                continue
            code = code_from_defining_set(n, 2, root, d_set)
            delta = code_apparent_distance(code).overall
            assert delta <= _search(code, DEFAULT_CAP, 0).distance


def test_certify_equality_n21(root21):
    code = code_from_defining_set(21, 2, root21,
                                  coset_closure([1, 3, 7], 21, 2))
    report = code_apparent_distance(code)
    cert = certify_equality(code)
    assert cert is not None
    assert cert.divisor.degree == 21 - 5
    assert cert.representative in report.optimal_reps
    # the shifted divisor's coefficient support lands in the non-zeros of
    # the code seen through the certificate's representative
    spectrum = shifted_spectrum(cert.divisor, cert.k, root21)
    d_a = frozenset(cert.representative * i % 21 for i in code.defining_set)
    assert spectrum.support() <= frozenset(range(21)) - d_a
    assert is_rational(spectrum)
    # its codeword vanishes at the n - Delta roots of the divisor
    assert idft(spectrum).weight() == 5
    # and the certified equality holds
    assert min_distance(code).distance == 5


def _certify_by_scan(code):
    """Reference: every divisor of degree n - Delta, every optimal a and
    every shift k, tested in that order with no shared shift scan."""
    n = code.n
    report = code_apparent_distance(code)
    for g, _ in divisor_enumerate(factor_xn(n, code.root), n - report.overall):
        supp = sorted(g.support())
        for a in report.optimal_reps:
            d_a = frozenset(a * i % n for i in code.defining_set)
            for k in range(n):
                if not d_a.isdisjoint([(i + k) % n for i in supp]):
                    continue
                if is_rational(shifted_spectrum(g, k, code.root)):
                    return Certificate(g, k, a)
    return None


def _closed_set_codes(n, q):
    """The code of every proper coset-closed defining set mod n."""
    root = nth_root(build_field(q, multiplicative_order(q, n)), n)
    cosets = cyclotomic_cosets(n, q).cosets
    return [CyclicCode(root, frozenset().union(*chosen))
            for r in range(len(cosets))
            for chosen in itertools.combinations(cosets, r)]


@pytest.mark.parametrize("n,q", [(15, 2), (21, 2), (13, 3), (7, 13), (19, 7)])
def test_certify_equality_matches_the_scan_oracle(n, q):
    for code in _closed_set_codes(n, q):
        assert certify_equality(code) == _certify_by_scan(code)


def _certificate_at(n, q, reps):
    root = nth_root(build_field(q, multiplicative_order(q, n)), n)
    cert = certify_equality(CyclicCode(root, coset_closure(reps, n, q)))
    return cert and (cert.k, cert.representative, cert.divisor.degree)


def test_certificates_at_the_last_shift():
    # both certificates need the scan to reach k = n - 1: cut one shift
    # short, the first finds none and the second settles for (4, 8).  No
    # binary code shows this: with GF(2) coefficients, shift n - 1 is
    # rational only if g has a nonzero x^(n-1) coefficient, so g is
    # 1 + x + ... + x^(n-1), whose least rational shift is 0
    assert _certificate_at(7, 13, [1, 2]) == (6, 2, 2)
    assert _certificate_at(19, 7, [5]) == (18, 1, 16)


def test_certify_equality_budget(monkeypatch):
    root = nth_root(build_field(2, 10), 33)
    code = code_from_defining_set(33, 2, root, coset_closure([1], 33, 2))
    monkeypatch.setattr(bounds, "DEFAULT_DIVISOR_BUDGET", 0)
    with pytest.raises(BudgetExceeded):
        certify_equality(code)


def test_certify_budget_bounds_a_walk_that_finds_nothing(monkeypatch):
    # the code of C(1) + C(3) + C(9) mod 63 has no certificate; its walk
    # emits 2 divisors of degree 63 - 5 among all 2^13 subsets it visits
    root = nth_root(build_field(2, 6), 63)
    code = code_from_defining_set(63, 2, root, coset_closure([1, 3, 9], 63, 2))
    monkeypatch.setattr(bounds, "DEFAULT_DIVISOR_BUDGET", 2 ** 13)
    assert certify_equality(code) is None
    monkeypatch.setattr(bounds, "DEFAULT_DIVISOR_BUDGET", 100)
    with pytest.raises(BudgetExceeded):
        certify_equality(code)


def test_certificate_implies_equality_n15(root15):
    # scan several codes: whenever a certificate exists, d really meets
    # the bound; whenever the search is exhaustive and empty, it must not
    reps = cyclotomic_cosets(15, 2).representatives
    for chosen in [(1,), (1, 5), (0, 1), (3, 5), (0, 1, 5)]:
        d_set = coset_closure(chosen, 15, 2)
        code = code_from_defining_set(15, 2, root15, d_set)
        delta = code_apparent_distance(code).overall
        dist = min_distance(code).distance
        cert = certify_equality(code)
        if cert is not None:
            assert dist == delta
