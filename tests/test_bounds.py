import random

import pytest

from bchbound.bounds import (
    apparent_distance_vec,
    certify_equality,
    code_apparent_distance,
)
from bchbound.codes import code_from_defining_set
from bchbound.errors import BudgetExceeded
from bchbound.galois import build_field, nth_root
from bchbound.modring import coset_closure, cyclic_runs, cyclotomic_cosets
from bchbound.spectral import dft, idft, is_rational
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
    spectrum = cert.codeword_spectrum()
    d_a = frozenset(cert.representative * i % 21 for i in code.defining_set)
    assert spectrum.support() <= frozenset(range(21)) - d_a
    assert is_rational(spectrum)
    # and the certified equality holds
    assert min_distance(code).distance == 5


def test_certificate_keeps_its_root(root21):
    # the certificate reads n from the root it was found for; it takes no
    # n of its own, so it cannot be read at the wrong length
    code = code_from_defining_set(21, 2, root21,
                                  coset_closure([1, 3, 7], 21, 2))
    cert = certify_equality(code)
    assert cert.root == root21
    spectrum = cert.codeword_spectrum()
    assert spectrum.n == len(spectrum.values) == 21
    with pytest.raises(TypeError):
        cert.codeword_spectrum(15)
    # its codeword vanishes at the n - Delta roots of the divisor
    assert idft(spectrum).weight() == 5


def test_certify_equality_budget():
    root = nth_root(build_field(2, 10), 33)
    code = code_from_defining_set(33, 2, root, coset_closure([1], 33, 2))
    with pytest.raises(BudgetExceeded):
        certify_equality(code, budget=0)


def test_certify_budget_bounds_a_walk_that_finds_nothing():
    # the code of C(1) + C(3) + C(9) mod 63 has no certificate; its walk
    # emits 2 divisors of degree 63 - 5 among all 2^13 subsets it visits
    root = nth_root(build_field(2, 6), 63)
    code = code_from_defining_set(63, 2, root, coset_closure([1, 3, 9], 63, 2))
    assert certify_equality(code, budget=2 ** 13) is None
    with pytest.raises(BudgetExceeded):
        certify_equality(code, budget=100)


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
