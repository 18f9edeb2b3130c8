"""Cyclic-code model: defining sets, generators, idempotents, BCH windows.

A CyclicCode is its root and its defining set, checked when it is made and
immutable, so instances can be shared freely.  Its other parts (the
generator, the idempotent, the images a*D and their runs, which give the
BCH bound and the Bose distance) are derived once, on first use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import ImproperCode, NotCosetClosed, RootMismatch
from .galois import RootOfUnity, _polmul
from .modring import coset_closure, cyclic_runs, cyclotomic_cosets, is_coset_closed
from .polyring import Poly, QuotientPoly, minimal_polynomial
from .spectral import dft, idft, indicator_spectrum


@dataclass(frozen=True)
class CyclicCode:
    """A cyclic code of length n over GF(q), fixed by its defining set.

    NotCosetClosed unless the defining set is a union of q-cosets with
    every member in [0, n); ImproperCode when it is all of Z_n; TypeError
    unless it is a frozenset (code_from_defining_set converts).
    """

    root: RootOfUnity
    defining_set: frozenset

    def __post_init__(self):
        d, n, q = self.defining_set, self.n, self.q
        if not isinstance(d, frozenset):
            raise TypeError(f"defining set must be a frozenset, "
                            f"not {type(d).__name__}")
        if {i % n for i in d} != d or not is_coset_closed(d, n, q):
            raise NotCosetClosed(f"{sorted(d)} is not a union of {q}-cosets mod {n}")
        if len(d) == n:
            raise ImproperCode("defining set is all of Z_n")

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
    def generator(self) -> Poly:
        """The product of the minimal polynomials of D's cosets; they lie in
        GF(p)[x], so they are multiplied as integers mod p."""
        coeffs = [1]
        for coset in cyclotomic_cosets(self.n, self.q).cosets:
            if coset[0] in self.defining_set:
                factor = minimal_polynomial(self.root, coset[0])
                coeffs = _polmul(coeffs, factor.coeffs, self.q)
        return Poly(self.spec, coeffs)

    @functools.cached_property
    def idempotent(self) -> QuotientPoly:
        """The generating idempotent: the inverse transform of D's indicator."""
        e = idft(indicator_spectrum(self.defining_set, self.root))
        e.int_coeffs()  # the idempotent must land in the base field
        return e

    @functools.cached_property
    def images(self) -> dict:
        """{a: a*D} for each a in A(n): the root change alpha -> beta with
        beta^a = alpha maps D to a*D."""
        n = self.n
        return {a: frozenset({a * i % n for i in self.defining_set})
                for a in cyclotomic_cosets(n, self.q).a_set}

    @functools.cached_property
    def runs(self) -> dict:
        """{a: cyclic_runs(a*D)} for each a in A(n), scanned once."""
        return {a: cyclic_runs(d_a, self.n) for a, d_a in self.images.items()}

    @functools.cached_property
    def bch_bound(self) -> int:
        """Delta(C): one more than the longest run of any a*D."""
        return 1 + max((length for runs in self.runs.values()
                        for _, length in runs), default=0)

    def contains(self, c: QuotientPoly) -> bool:
        """Membership via zeros: c(alpha^i) = 0 for every i in the set."""
        values = dft(c, self.root).values
        return all(values[i] == 0 for i in self.defining_set)


def code_from_defining_set(n: int, q: int, root: RootOfUnity, d_set) -> CyclicCode:
    """The code with D_alpha(C) = d_set mod n; RootMismatch unless
    (n, q) = (root.n, root.spec.p)."""
    if (n, q) != (root.n, root.spec.p):
        raise RootMismatch(f"n = {n}, q = {q}, but the root has order "
                           f"{root.n} over GF({root.spec.p})")
    return CyclicCode(root, frozenset(i % n for i in d_set))


def bch_code(root: RootOfUnity, delta: int, b: int) -> CyclicCode:
    """B_q(alpha, delta, b): closure of the window {b, ..., b + delta - 2}."""
    n, q = root.n, root.spec.p
    if not 2 <= delta <= n:
        raise ValueError("designed distance must satisfy 2 <= delta <= n")
    return code_from_defining_set(n, q, root,
                                  coset_closure(range(b, b + delta - 1), n, q))


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
    label = cyclotomic_cosets(n, code.q).label
    wanted = len({label[i] for i in code.defining_set})
    best = None
    for runs in code.runs.values():
        for b, length in runs:
            if best is not None and length < best:
                continue  # cannot beat the best window found so far
            if len({label[(b + j) % n] for j in range(length)}) == wanted:
                best = length + 1
    return best
