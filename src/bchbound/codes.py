"""Cyclic-code model: defining sets, generators, idempotents, BCH windows.

A CyclicCode is its root and its defining set, checked when it is made and
immutable, so instances can be shared freely.  Its other parts (the
generator, the idempotent, the images a*D as n-bit masks and their longest
runs, which give the BCH bound and bound the Bose distance's scan) are
derived once, on first use.
"""

from __future__ import annotations

import functools
import operator

from .errors import ImproperCode, NotCosetClosed, RootMismatch
from .galois import RootOfUnity
from .modring import coset_closure, cyclic_runs, cyclotomic_cosets, longest_run
from .polyring import Poly, QuotientPoly, minimal_polynomial
from .records import Record
from .spectral import dft, idft, indicator_spectrum


class CyclicCode(Record):
    """A cyclic code of length n over GF(q), fixed by its defining set.

    NotCosetClosed unless the defining set is a union of q-cosets with
    every member in [0, n); ImproperCode when it is all of Z_n; TypeError
    unless it is a frozenset (code_from_defining_set converts).
    """

    def __init__(self, root: RootOfUnity, defining_set: frozenset):
        d, n, q = defining_set, root.n, root.spec.p
        if not isinstance(d, frozenset):
            raise TypeError(f"defining set must be a frozenset, "
                            f"not {type(d).__name__}")
        if coset_closure(d, n, q) != d:  # the closure is reduced mod n
            raise NotCosetClosed(f"{sorted(d)} is not a union of {q}-cosets mod {n}")
        if len(d) == n:
            raise ImproperCode("defining set is all of Z_n")
        self.__dict__.update(root=root, defining_set=defining_set)

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
        GF(p)[x], so Poly multiplies them as integers mod p."""
        return functools.reduce(
            operator.mul,
            (minimal_polynomial(self.root, coset[0])
             for coset in cyclotomic_cosets(self.n, self.q).cosets
             if coset[0] in self.defining_set),
            Poly.one(self.spec))

    @functools.cached_property
    def idempotent(self) -> QuotientPoly:
        """The generating idempotent: the inverse transform of D's indicator."""
        e = idft(indicator_spectrum(self.defining_set, self.root))
        e.int_coeffs()  # the idempotent must land in the base field
        return e

    @functools.cached_property
    def masks(self) -> dict:
        """{a: the n-bit mask of a*D} for each a in A(n), in A(n) order: the
        root change alpha -> beta with beta^a = alpha maps D to a*D.  Since
        a*C(r) = C(a*r), a*D is the union of the cosets of a*r, r running
        over D's representatives; they are disjoint, so their masks add."""
        n, part = self.n, cyclotomic_cosets(self.n, self.q)
        reps = [coset[0] for coset in part.cosets if coset[0] in self.defining_set]
        return {a: sum(part.masks[part.label[a * r % n]] for r in reps)
                for a in part.a_set}

    @functools.cached_property
    def longest_runs(self) -> dict:
        """{a: the longest cyclic run of a*D} for each a in A(n), scanned once."""
        return {a: longest_run(mask, self.n) for a, mask in self.masks.items()}

    @functools.cached_property
    def bch_bound(self) -> int:
        """Delta(C): one more than the longest run of any a*D."""
        return 1 + max(self.longest_runs.values())

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
    n = root.n
    if not 2 <= delta <= n:
        raise ValueError("designed distance must satisfy 2 <= delta <= n")
    return CyclicCode(root, coset_closure(range(b, b + delta - 1), n, root.spec.p))


def bose_distance(code: CyclicCode):
    """Largest delta' with C = B_q(alpha', delta', b'); None when not BCH.

    Scans the representatives a in A(n) (root change alpha -> beta with
    beta^a = alpha maps D to a*D) and the maximal cyclic runs of a*D.  A
    window's closure only grows with the window and stays inside the closed
    set a*D, so a window closing to a*D lies in a maximal run that does too:
    one closure per run is enough.  The closure of a run is the union of
    the cosets its members lie in, so it is a*D exactly when the run meets
    as many cosets as D has (multiplying by a maps cosets onto cosets).
    Such a run has at least that many members, so the a are visited by
    descending longest run, and the scan stops at the first a whose longest
    run is too short to close to a*D, or too short to beat the best window
    found so far.
    """
    n = code.n
    label = cyclotomic_cosets(n, code.q).label
    wanted = len({label[i] for i in code.defining_set})
    best = None
    longest = code.longest_runs
    for a in sorted(longest, key=longest.get, reverse=True):
        if longest[a] < max(wanted, best or 0):
            break
        d_a = {a * i % n for i in code.defining_set}
        for b, length in cyclic_runs(d_a, n):
            if best is not None and length < best:
                continue  # cannot beat the best window found so far
            if len({label[(b + j) % n] for j in range(length)}) == wanted:
                best = length + 1
    return best
