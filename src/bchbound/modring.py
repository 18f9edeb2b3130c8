"""Arithmetic in Z_n: q-cyclotomic cosets, their labels and masks, A(n),
orders and cyclic runs.

A subset S of Z_n is read as a set or as an n-bit mask, bit i set for each
i in S.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import functools
import math

from .errors import NotCoprime
from .records import Record

# Generous sanity cap: keeps accidental huge inputs from allocating forever.
MAX_N = 1 << 16


class CosetPartition(Record):
    """The q-cyclotomic cosets modulo n, keyed by minimum representative."""

    def __init__(self, n: int, q: int, cosets: tuple):
        # cosets: a tuple of sorted tuples, ordered by representative
        self.__dict__.update(n=n, q=q, cosets=cosets)

    @property
    def representatives(self):
        return tuple(c[0] for c in self.cosets)

    @functools.cached_property
    def label(self) -> tuple:
        """label[i] = the index in cosets of the coset holding i."""
        label = [0] * self.n
        for index, coset in enumerate(self.cosets):
            for i in coset:
                label[i] = index
        return tuple(label)

    @functools.cached_property
    def masks(self) -> tuple:
        """masks[i] = the n-bit mask of cosets[i]."""
        return tuple(sum(1 << i for i in coset) for coset in self.cosets)

    @functools.cached_property
    def a_set(self) -> tuple:
        """A(n): the representatives coprime to n."""
        return tuple(r for r in self.representatives if math.gcd(r, self.n) == 1)

    @property
    def order(self):
        """ord_n(q) = |C_q(a)| for every a in A(n)."""
        return multiplicative_order(self.q, self.n)


def _check(n: int, q: int):
    if n < 1:
        raise NotCoprime("n must be positive")
    if math.gcd(n, q) != 1:
        raise NotCoprime(f"gcd({n}, {q}) > 1")
    if n > MAX_N:
        raise NotCoprime(f"n > {MAX_N} is outside the configured range")


def cyclotomic_coset(a: int, n: int, q: int) -> tuple:
    """The sorted orbit of a under i -> q*i mod n; NotCoprime unless gcd(n, q) = 1."""
    part = cyclotomic_cosets(n, q)
    return part.cosets[part.label[a % n]]


@functools.lru_cache(maxsize=None)
def cyclotomic_cosets(n: int, q: int) -> CosetPartition:
    """Full partition of Z_n into q-cyclotomic cosets; built once per (n, q)."""
    _check(n, q)
    seen = [False] * n
    cosets = []
    for a in range(n):
        b, orbit = a, []
        while not seen[b]:
            seen[b] = True
            orbit.append(b)
            b = b * q % n
        if orbit:
            cosets.append(tuple(sorted(orbit)))
    return CosetPartition(n, q, tuple(cosets))


def multiplicative_order(q: int, n: int) -> int:
    """Least k >= 1 with q^k = 1 (mod n)."""
    _check(n, q)
    if n == 1:
        return 1
    k, v = 1, q % n
    while v != 1:
        v = v * q % n
        k += 1
    return k


def totient(n: int) -> int:
    """phi(n): the units of Z_n, counted."""
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def coset_closure(indices, n: int, q: int) -> frozenset:
    """The smallest union of q-cyclotomic cosets containing the indices mod n."""
    part = cyclotomic_cosets(n, q)
    out = set()
    for index in {part.label[a % n] for a in indices}:
        out.update(part.cosets[index])
    return frozenset(out)


def cyclic_runs(members, n: int) -> list:
    """(start, length) of each maximal cyclic run b, b+1, ... in a subset of Z_n.

    Listed by start; a run may wrap past n - 1.  Z_n itself has no run start.
    The run scan behind the apparent distance of a vector, the Bose distance
    and the BCH windows of a code.
    """
    s = {i % n for i in members}
    out = []
    for b in sorted(s):
        if (b - 1) % n in s:
            continue
        length = 1
        while length < n and (b + length) % n in s:
            length += 1
        out.append((b, length))
    return out


def longest_run(mask: int, n: int) -> int:
    """Length of the longest cyclic run of set bits in an n-bit mask; n when
    every bit is set, 0 for the empty mask.

    After k rounds of m &= rot(m, 1), bit i is set exactly when bits i, ...,
    i + k (mod n) all are, so the longest run has as many members as the
    rounds it takes to empty m.  The all-ones mask never empties; at most n
    rounds run.
    """
    full = (1 << n) - 1
    length = 0
    while mask and length < n:
        mask &= (mask >> 1 | mask << (n - 1)) & full
        length += 1
    return length


def solve_linear_congruence(a: int, b: int, m: int):
    """Least nonnegative k with a*k = b (mod m), or None when unsolvable."""
    if m < 1:
        raise ValueError("modulus must be positive")
    a %= m
    b %= m
    g = math.gcd(a, m)
    if b % g != 0:
        return None
    mm = m // g
    return (b // g) * pow(a // g, -1, mm) % mm
