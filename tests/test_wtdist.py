import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchbound import wtdist
from bchbound.codes import bch_code, code_from_defining_set
from bchbound.galois import build_field, nth_root
from bchbound.modring import (
    coset_closure,
    cyclotomic_cosets,
    multiplicative_order,
)
from bchbound.polyring import QuotientPoly
from bchbound.wtdist import DEFAULT_CAP, _search, generator_rows, min_distance
from test_codes import CENSUS, _closed_set_codes


def witness_in_code(code, result):
    """The witness is a codeword: its spectrum vanishes on D."""
    return code.contains(QuotientPoly.from_ints(code.spec, code.n,
                                                result.witness))


def _code(n, q, reps, m):
    root = nth_root(build_field(q, m), n)
    d = coset_closure(reps, n, q)
    return code_from_defining_set(n, q, root, d)


@functools.lru_cache(maxsize=None)
def _root(n, q):
    return nth_root(build_field(q, multiplicative_order(q, n)), n)


def _code_spanned_by(n, q, complement_reps):
    """The cyclic code whose nonzeros are the cosets of complement_reps."""
    comp = coset_closure(complement_reps, n, q)
    d_set = frozenset(range(n)) - comp
    return code_from_defining_set(n, q, _root(n, q), d_set)


# --- the brute-force oracle: every nonzero message, rows = shifts of g ---

def _shift_rows(code):
    """k shift-rows of the generator polynomial, as prime-field int vectors."""
    g = code.generator.int_coeffs()
    n, k = code.n, code.dimension
    rows = []
    for i in range(k):
        row = [0] * n
        for j, c in enumerate(g):
            row[(i + j) % n] = c
        rows.append(row)
    return rows


def _gray_min_weight(rows, limit):
    """Walk nonzero packed-row combinations 1..limit in Gray order."""
    acc = 0
    best = 1 << 30
    cnt = 0
    while cnt < limit:
        cnt += 1
        acc ^= rows[(cnt & -cnt).bit_length() - 1]
        best = min(best, acc.bit_count())
    return best


def _product_min_weight(rows, n, q):
    best = n + 1
    for info in itertools.product(range(q), repeat=len(rows)):
        if not any(info):
            continue
        word = [0] * n
        for coef, row in zip(info, rows):
            if coef:
                for i, c in enumerate(row):
                    word[i] = (word[i] + coef * c) % q
        best = min(best, sum(1 for c in word if c))
    return best


def _brute_force_distance(code):
    rows = _shift_rows(code)
    if code.q == 2:
        packed = [sum(c << i for i, c in enumerate(row)) for row in rows]
        return _gray_min_weight(packed, (1 << len(rows)) - 1)
    return _product_min_weight(rows, code.n, code.q)


def _check_result(code, res, d, cap=wtdist.DEFAULT_CAP):
    assert res.enumerated <= cap
    assert res.lower_bound <= d <= res.distance
    assert res.exhaustive == (res.lower_bound == res.distance)
    assert len(res.witness) == code.n
    assert sum(1 for c in res.witness if c) == res.distance
    assert witness_in_code(code, res)


# lengths with r = n mod k both zero and nonzero, over small splitting fields
_SETUPS = [(7, 2), (9, 2), (15, 2), (17, 2), (21, 2), (23, 2), (31, 2),
           (4, 3), (8, 3), (10, 3), (11, 3), (13, 3), (16, 3), (20, 3),
           (26, 3), (6, 5), (8, 5), (12, 5), (13, 5), (24, 5),
           (8, 7), (9, 7), (12, 7), (16, 7), (19, 7)]
# the oracle visits q^k - 1 messages, so k stays small for odd q
_MAX_DIM = {2: 16, 3: 7, 5: 4, 7: 4}


@st.composite
def _random_codes(draw):
    n, q = draw(st.sampled_from(_SETUPS))
    cosets = cyclotomic_cosets(n, q).cosets
    order = draw(st.permutations(range(len(cosets))))
    take = draw(st.integers(1, len(cosets)))
    reps, dim = [], 0
    for idx in order[:take]:
        if dim + len(cosets[idx]) <= _MAX_DIM[q]:
            reps.append(cosets[idx][0])
            dim += len(cosets[idx])
    if not reps:
        reps = [0]
    return _code_spanned_by(n, q, reps)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(code=_random_codes(), data=st.data())
def test_bz_matches_brute_force(code, data):
    d = _brute_force_distance(code)
    blind = _search(code, DEFAULT_CAP, 0)
    assert blind.exhaustive and blind.distance == d
    _check_result(code, blind, d)
    # a proven lower bound only ends the search sooner
    proven = data.draw(st.integers(0, d), label="proven")
    early = _search(code, DEFAULT_CAP, proven)
    assert early.exhaustive and early.distance == d
    assert early.enumerated <= blind.enumerated
    _check_result(code, early, d)
    res = min_distance(code)
    assert res.exhaustive and res.distance == d and res.bch_bound <= d
    assert res.enumerated <= blind.enumerated
    _check_result(code, res, d)
    cap = data.draw(st.integers(1, 300), label="cap")
    _check_result(code, _search(code, cap, 0), d, cap)
    _check_result(code, min_distance(code, cap=cap), d, cap)


@pytest.mark.parametrize("n,q,complement_reps", [
    (7, 2, [0]),                 # k = 1: the repetition code
    (13, 3, [0]),
    (7, 2, [0, 1, 3]),           # k = n: every word
    (4, 3, [0, 1, 2]),
    (15, 2, [0, 1]),             # k = 5 divides n = 15
    (8, 3, [1, 2]),              # k = 4 divides n = 8
    (15, 2, [0, 1, 5]),          # k = 7, r = 1
    (8, 3, [0, 1]),              # k = 3, r = 2
    (13, 5, [0, 1]),             # k = 5, r = 3
    (26, 3, [1, 2]),             # [26,6,15] and [24,6,14]: the search runs
    (24, 5, [1, 2, 7]),          # through every message of weight 3
])
def test_edge_dimensions_match_brute_force(n, q, complement_reps):
    code = _code_spanned_by(n, q, complement_reps)
    d = _brute_force_distance(code)
    res = min_distance(code)
    assert res.exhaustive and res.distance == d
    _check_result(code, res, d)
    if code.dimension == 1:
        assert d == n
    if code.dimension == n:
        assert d == 1


@pytest.mark.parametrize("n,q,complement_reps", [
    (26, 3, [1, 2]), (24, 5, [1, 2, 7]), (16, 7, [0, 1, 2, 3])])
def test_search_visits_each_light_message_once(n, q, complement_reps):
    # these codes need every message of weight <= 3 whose first nonzero
    # symbol is 1, and no heavier one
    code = _code_spanned_by(n, q, complement_reps)
    k = code.dimension
    res = _search(code, DEFAULT_CAP, 0)
    assert res.exhaustive
    assert res.enumerated == sum(math.comb(k, j) * (q - 1) ** (j - 1)
                                 for j in (1, 2, 3))


def test_known_binary_distances():
    # classical parameters: Hamming, punctured RM, BCH
    cases = [
        ((7, 2, [1], 3), (4, 3)),     # [7,4,3] Hamming
        ((7, 2, [0, 1], 3), (3, 4)),  # even-weight subcode
        ((15, 2, [1, 3], 4), (7, 5)), # two-error-correcting BCH
        ((15, 2, [1], 4), (11, 3)),
        ((23, 2, [1], 11), (12, 7)),  # binary Golay
    ]
    for (n, q, reps, m), (dim, dist) in cases:
        code = _code(n, q, reps, m)
        res = min_distance(code)
        assert (code.dimension, res.distance) == (dim, dist)
        assert res.exhaustive


def test_ternary_golay():
    code = _code(11, 3, [1], 5)
    res = min_distance(code)
    assert (code.dimension, res.distance) == (6, 5)
    assert res.exhaustive
    assert witness_in_code(code, res)


def test_witness_membership_random():
    rng = random.Random(88)
    for n, m in [(15, 4), (21, 6)]:
        reps = cyclotomic_cosets(n, 2).representatives
        for _ in range(8):
            chosen = [r for r in reps if rng.random() < 0.5]
            d = coset_closure(chosen, n, 2)
            if not d or len(d) == n:
                continue
            code = _code(n, 2, chosen, m)
            res = min_distance(code)
            assert witness_in_code(code, res)
            assert sum(1 for c in res.witness if c) == res.distance


def test_generator_rows_shape():
    for code in (_code(15, 2, [1, 3], 4), _code(13, 3, [1], 3)):
        n, k = code.n, code.dimension
        rows = generator_rows(code)
        assert len(rows) == k
        for i, row in enumerate(rows):
            assert row[n - k:] == [int(j == i) for j in range(k)]
            assert code.contains(QuotientPoly.from_ints(code.spec, n, row))
    # the packed rows the binary search walks are generator_rows, packed
    # little-endian, on every binary census code, r = 0 and k = 1 among them
    shapes = set()
    for n, q in CENSUS:
        if q == 2:
            for code in _closed_set_codes(n, q):
                packed = [sum(c << i for i, c in enumerate(row))
                          for row in generator_rows(code)]
                assert wtdist._binary_rows(code) == packed
                shapes |= {("r", code.n - code.dimension), ("k", code.dimension)}
    assert {("r", 0), ("k", 1)} <= shapes


def test_bch_bound_early_exit_is_consistent():
    code = _code(15, 2, [0, 5, 7], 4)   # dim 7 code with d = 5
    full = _search(code, DEFAULT_CAP, 0)
    early = min_distance(code)
    assert early.bch_bound == early.distance == full.distance
    assert early.enumerated <= full.enumerated
    assert early.exhaustive


def test_library_search_starts_from_the_bch_bound():
    # the narrow-sense [127, 106] BCH code with designed distance 7: the
    # blind search needs about 10^8 messages, from Delta = 7 about 10^2
    code = bch_code(nth_root(build_field(2, 7), 127), 7, 1)
    res = min_distance(code, cap=10_000)
    assert res.exhaustive and res.distance == res.bch_bound == 7
    assert witness_in_code(code, res)


def test_cap_limits_enumeration():
    code = _code(23, 2, [1], 11)        # [23,12,7] Golay
    for cap in (1, 12, 100):
        res = min_distance(code, cap=cap)
        assert not res.exhaustive
        assert res.enumerated <= cap
        assert res.lower_bound <= 7 <= res.distance
    with pytest.raises(ValueError):
        min_distance(code, cap=0)


def test_compiled_kernel_flag_is_bool():
    assert isinstance(wtdist.HAVE_COMPILED_KERNEL, bool)
