import math
import random

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from bchbound.errors import NotCoprime
from bchbound.modring import (
    coset_closure,
    cyclic_runs,
    cyclotomic_coset,
    cyclotomic_cosets,
    longest_run,
    multiplicative_order,
    solve_linear_congruence,
    totient,
)


def test_cosets_n21_q2():
    part = cyclotomic_cosets(21, 2)
    assert part.cosets == (
        (0,), (1, 2, 4, 8, 16, 11), (3, 6, 12), (5, 10, 20, 19, 17, 13),
        (7, 14), (9, 18, 15),
    )
    assert part.representatives == (0, 1, 3, 5, 7, 9)
    assert [c for c in part.cosets if 11 in c] == [(1, 2, 4, 8, 16, 11)]


@given(st.integers(1, 200).flatmap(
    lambda n: st.tuples(st.just(n), st.sampled_from([2, 3, 5, 7, 11, 13]))))
@example((21, 2))
@example((121, 3))
@example((1, 2))
def test_cosets_are_orbits_from_their_least_member(case):
    n, q = case
    assume(math.gcd(n, q) == 1)
    cosets = cyclotomic_cosets(n, q).cosets
    for c in cosets:
        assert c[0] == min(c)
        assert len(set(c)) == len(c)
        assert all(c[i + 1] == q * c[i] % n for i in range(len(c) - 1))
        assert q * c[-1] % n == c[0]  # the orbit closes
    assert [c[0] for c in cosets] == sorted(c[0] for c in cosets)


def test_cosets_partition_zn():
    for n, q in [(15, 2), (21, 2), (11, 3), (26, 5), (31, 2)]:
        part = cyclotomic_cosets(n, q)
        union = [i for c in part.cosets for i in c]
        assert sorted(union) == list(range(n))


def test_coset_regenerates_from_any_member():
    for n, q in [(21, 2), (11, 3)]:
        for c in cyclotomic_cosets(n, q).cosets:
            for a in c:
                assert cyclotomic_coset(a, n, q) == c


def test_coset_refuses_a_non_coprime_pair():
    # the orbit 1 -> 3 -> 9 -> 6 -> ... mod 21 never returns to 1
    with pytest.raises(NotCoprime):
        cyclotomic_coset(1, 21, 3)
    with pytest.raises(NotCoprime):
        coset_closure([1], 21, 3)
    with pytest.raises(NotCoprime):
        cyclotomic_coset(0, 0, 2)


def test_representative_set_n21():
    part = cyclotomic_cosets(21, 2)
    assert part.a_set == (1, 5)
    assert part.order == 6
    assert len(part.a_set) * part.order == totient(21)


def test_representative_set_counts():
    # phi(n) / ord_n(q) representatives coprime to n
    for n, q in [(15, 2), (31, 2), (45, 2), (11, 3)]:
        part = cyclotomic_cosets(n, q)
        assert len(part.a_set) * part.order == totient(n)
        assert all(math.gcd(a, n) == 1 for a in part.a_set)


def test_labels_index_the_cosets():
    for n, q in [(1, 2), (15, 2), (21, 2), (11, 3), (26, 5)]:
        part = cyclotomic_cosets(n, q)
        assert len(part.label) == n
        for index, coset in enumerate(part.cosets):
            assert all(part.label[i] == index for i in coset)
        assert part.order == multiplicative_order(q, n)


def test_multiplicative_order():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(2, 15) == 4
    assert multiplicative_order(2, 41) == 20
    assert multiplicative_order(3, 11) == 5
    with pytest.raises(NotCoprime):
        multiplicative_order(2, 12)


def test_totient():
    known = {1: 1, 2: 1, 9: 6, 15: 8, 21: 12, 45: 24, 97: 96}
    for n, value in known.items():
        assert totient(n) == value


def test_closure_and_closedness():
    d = coset_closure([1, 3, 7], 21, 2)
    assert d == frozenset({1, 2, 3, 4, 6, 7, 8, 11, 12, 14, 16})
    assert coset_closure(d, 21, 2) == d
    assert coset_closure({1, 2}, 21, 2) != {1, 2}
    assert coset_closure(frozenset(), 21, 2) == frozenset()


def test_solve_linear_congruence_random():
    rng = random.Random(901)
    for _ in range(300):
        m = rng.randrange(2, 60)
        a = rng.randrange(m)
        b = rng.randrange(m)
        x = solve_linear_congruence(a, b, m)
        brute = [y for y in range(m) if (a * y - b) % m == 0]
        if x is None:
            assert brute == []
        else:
            assert x in brute
            assert x == min(brute)


def _brute_force_runs(members, n):
    """Every (b, length) with b..b+length-1 inside the set, both ends outside."""
    s = set(members)
    out = []
    for b in range(n):
        for length in range(1, n):
            window = {(b + j) % n for j in range(length)}
            if (window <= s and (b - 1) % n not in s
                    and (b + length) % n not in s):
                out.append((b, length))
    return out


@given(st.integers(1, 24).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, n - 1)))))
@example((7, set()))
@example((7, set(range(7))))
@example((1, {0}))
@example((6, {5, 0, 1, 3}))
def test_cyclic_runs_matches_brute_force(case):
    n, members = case
    assert cyclic_runs(members, n) == _brute_force_runs(members, n)


def _brute_force_longest_run(mask, n):
    """The longest window b, ..., b + length - 1 (mod n) of set bits."""
    return max((length for b in range(n) for length in range(n + 1)
                if all(mask >> ((b + j) % n) & 1 for j in range(length))),
               default=0)


@given(st.integers(1, 70).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
@example((1, 0))
@example((1, 1))
@example((64, (1 << 64) - 1))
@example((70, (1 << 70) - 1))
@example((70, (1 << 70) - 1 - (1 << 35)))  # one gap: a run of 69 wraps
@example((65, 1 | 1 << 64))  # a run of 2 wraps past bit 64
@example((67, 0b11 | 0b111 << 62))  # a run of 3 crosses bit 63
def test_longest_run_matches_brute_force(case):
    n, mask = case
    assert longest_run(mask, n) == _brute_force_longest_run(mask, n)


@pytest.mark.parametrize("n", [1, 2, 7, 63, 64, 65, 1023])
def test_longest_run_ends_on_every_mask(n):
    assert longest_run((1 << n) - 1, n) == n
    assert longest_run(0, n) == 0
