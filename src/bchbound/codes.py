"""Cyclic-code model: defining sets, generators, idempotents, BCH windows.

A CyclicCode is immutable, so instances can be shared freely.  Its generator
(the product over GF(p) of its cosets' minimal polynomials) and idempotent
are built with it; the runs of each a*D, which give the BCH bound and the
Bose distance, are scanned once, on first use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .errors import ImproperCode, NotCosetClosed, RootMismatch
from .galois import RootOfUnity, _polmul
from .modring import (coset_closure, cyclic_runs, cyclotomic_cosets,
                      is_coset_closed, representative_set)
from .polyring import Poly, QuotientPoly, minimal_polynomial
from .spectral import dft, idft, indicator_spectrum


@dataclass(frozen=True)
class CyclicCode:
    """A cyclic code of length n over GF(q), fixed by its defining set."""

    root: RootOfUnity
    defining_set: frozenset
    generator: Poly = field(compare=False)
    idempotent: QuotientPoly = field(compare=False)

    @property
    def n(self):
        return self.root.n

    @property
    def q(self):
        return self.root.spec.p

    @property
    def dimension(self):
        return self.n - len(self.defining_set)

    @property
    def spec(self):
        return self.root.spec

    def complement(self):
        return frozenset(range(self.n)) - self.defining_set

    @functools.cached_property
    def runs(self) -> dict:
        """{a: cyclic_runs(a*D)} for each a in A(n), scanned once: the root
        change alpha -> beta with beta^a = alpha maps D to a*D."""
        n = self.n
        reps = representative_set(cyclotomic_cosets(n, self.q)).members
        return {a: cyclic_runs({a * i % n for i in self.defining_set}, n)
                for a in reps}

    @functools.cached_property
    def bch_bound(self) -> int:
        """Delta(C): one more than the longest run of any a*D."""
        return 1 + max((length for runs in self.runs.values()
                        for _, length in runs), default=0)

    def contains(self, c: QuotientPoly) -> bool:
        """Membership via zeros: c(alpha^i) = 0 for every i in the set."""
        values = dft(c, self.root).values
        return all(values[i] == 0 for i in self.defining_set)


@dataclass(frozen=True)
class BchSpec:
    """A BCH code B_q(alpha, delta, b) together with its window parameters."""

    delta: int
    b: int
    code: CyclicCode

    @property
    def root(self):
        return self.code.root

    def window(self):
        n = self.code.n
        return tuple((self.b + j) % n for j in range(self.delta - 1))


def code_from_defining_set(n: int, q: int, root: RootOfUnity, d_set) -> CyclicCode:
    """Build the code with D_alpha(C) = d_set, caching generator and idempotent;
    RootMismatch unless (n, q) = (root.n, root.spec.p)."""
    if (n, q) != (root.n, root.spec.p):
        raise RootMismatch(f"n = {n}, q = {q}, but the root has order "
                           f"{root.n} over GF({root.spec.p})")
    d = frozenset(i % n for i in d_set)
    if not is_coset_closed(d, n, q):
        raise NotCosetClosed(f"{sorted(d)} is not a union of {q}-cosets mod {n}")
    if len(d) == n:
        raise ImproperCode("defining set is all of Z_n")
    coeffs = [1]  # minimal polynomials lie in GF(p)[x]: multiply as integers
    for coset in cyclotomic_cosets(n, q).cosets:
        if coset[0] in d:
            factor = minimal_polynomial(root, coset[0])
            coeffs = _polmul(coeffs, factor.coeffs, q)
    e = idft(indicator_spectrum(d, root))
    e.int_coeffs()  # the idempotent must land in the base field
    return CyclicCode(root, d, Poly(root.spec, coeffs), e)


def bch_code(root: RootOfUnity, delta: int, b: int) -> BchSpec:
    """B_q(alpha, delta, b): closure of the window {b, ..., b + delta - 2}."""
    n, q = root.n, root.spec.p
    if not 2 <= delta <= n:
        raise ValueError("designed distance must satisfy 2 <= delta <= n")
    d = coset_closure(range(b, b + delta - 1), n, q)
    code = code_from_defining_set(n, q, root, d)
    return BchSpec(delta, b % n, code)


def bose_distance(code: CyclicCode):
    """Largest delta' with C = B_q(alpha', delta', b'); None when not BCH.

    Scans every representative a in A(n) (root change alpha -> beta with
    beta^a = alpha maps D to a*D) and every maximal cyclic run of a*D.  A
    window's closure only grows with the window and stays inside the closed
    set a*D, so a window closing to a*D lies in a maximal run that does too:
    one closure per run is enough.  The closure of a run is the union of
    the cosets its members lie in, so it is a*D exactly when the run meets
    as many cosets as D has (multiplying by a maps cosets onto cosets).
    """
    n = code.n
    label = [0] * n
    for index, coset in enumerate(cyclotomic_cosets(n, code.q).cosets):
        for i in coset:
            label[i] = index
    wanted = len({label[i] for i in code.defining_set})
    best = None
    for runs in code.runs.values():
        for b, length in runs:
            if best is not None and length < best:
                continue  # cannot beat the best window found so far
            if len({label[(b + j) % n] for j in range(length)}) == wanted:
                best = length + 1
    return best
