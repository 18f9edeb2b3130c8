"""Polynomials over an extension field and the quotient ring F[x]/(x^n - 1).

Everything is computed with coefficients in the big field L; base-field or
intermediate-field polynomials are recognized through the Frobenius-fixed
subfield test rather than by carrying separate coefficient types.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    CoefficientLeak,
    InvalidSubfield,
    RootMismatch,
    ZeroPolynomial,
)
from .galois import FieldSpec, RootOfUnity, poly_str
from .modring import cyclotomic_coset, cyclotomic_cosets


class Poly:
    """Dense polynomial over a FieldSpec, little-endian, no trailing zeros."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs):
        # coeffs are packed field values, not prime-field integers
        vals = list(coeffs)
        while vals and vals[-1] == 0:
            vals.pop()
        self.spec = spec
        self.coeffs = tuple(vals)

    @classmethod
    def zero(cls, spec):
        return cls(spec, ())

    @classmethod
    def one(cls, spec):
        return cls(spec, (1,))

    @classmethod
    def from_ints(cls, spec, ints):
        """Coefficients given as prime-field integers."""
        return cls(spec, [i % spec.p for i in ints])

    @classmethod
    def xn_minus_1(cls, spec, n):
        c = [0] * (n + 1)
        c[0] = spec.neg(1)
        c[n] = 1
        return cls(spec, c)

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.spec == other.spec
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.coeffs, self.spec.p, self.spec.m))

    def __add__(self, other):
        s = self.spec
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(s, [s.add(self.coeffs[i] if i < len(self.coeffs) else 0,
                              other.coeffs[i] if i < len(other.coeffs) else 0)
                        for i in range(n)])

    def __sub__(self, other):
        s = self.spec
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(s, [s.sub(self.coeffs[i] if i < len(self.coeffs) else 0,
                              other.coeffs[i] if i < len(other.coeffs) else 0)
                        for i in range(n)])

    def __mul__(self, other):
        s = self.spec
        if self.is_zero() or other.is_zero():
            return Poly.zero(s)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = s.add(out[i + j], s.mul(a, b))
        return Poly(s, out)

    def scale(self, c: int):
        s = self.spec
        return Poly(s, [s.mul(a, c) for a in self.coeffs])

    def divmod(self, other: "Poly"):
        if other.is_zero():
            raise ZeroPolynomial("division by zero polynomial")
        s = self.spec
        rem = list(self.coeffs)
        dd = other.degree
        inv_lead = s.inv(other.coeffs[-1])
        quot = [0] * max(0, len(rem) - dd)
        while len(rem) - 1 >= dd and rem:
            c = s.mul(rem[-1], inv_lead)
            shift = len(rem) - 1 - dd
            quot[shift] = c
            for i, oc in enumerate(other.coeffs):
                rem[i + shift] = s.sub(rem[i + shift], s.mul(c, oc))
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(s, quot), Poly(s, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.spec.inv(self.coeffs[-1]))

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def eval(self, point: int) -> int:
        """The value at a packed point, packed."""
        s = self.spec
        acc = 0
        for c in reversed(self.coeffs):
            acc = s.add(s.mul(acc, point), c)
        return acc

    def support(self):
        return frozenset(i for i, c in enumerate(self.coeffs) if c)

    def weight(self):
        return sum(1 for c in self.coeffs if c)

    def int_coeffs(self):
        """Coefficients as prime-field integers; CoefficientLeak otherwise."""
        return _int_coeffs(self.spec, self.coeffs)

    def exponents(self):
        """Ascending exponents of the nonzero terms (CLI serialization)."""
        return sorted(self.support())

    def __repr__(self):
        try:
            return f"Poly({poly_str(self.int_coeffs())})"
        except CoefficientLeak:
            return f"Poly(deg {self.degree} over GF({self.spec.p}^{self.spec.m}))"


def _int_coeffs(spec: FieldSpec, coeffs) -> list:
    # In the polynomial basis GF(p) is exactly the packed values 0, ..., p - 1,
    # each its own prime-field integer.
    for c in coeffs:
        if c >= spec.p:
            raise CoefficientLeak(
                f"coefficient {poly_str(spec.decode(c))} outside the prime field")
    return list(coeffs)


@dataclass(frozen=True)
class QuotientPoly:
    """Element of L[x]/(x^n - 1): a fixed-length coefficient vector."""

    spec: FieldSpec
    coeffs: tuple  # packed int values, one per exponent 0, ..., n - 1

    @property
    def n(self):
        return len(self.coeffs)

    @classmethod
    def from_poly(cls, p: Poly, n: int):
        if p.degree >= n:
            p = p % Poly.xn_minus_1(p.spec, n)
        c = list(p.coeffs) + [0] * (n - len(p.coeffs))
        return cls(p.spec, tuple(c))

    @classmethod
    def from_ints(cls, spec, n, ints):
        c = [i % spec.p for i in ints] + [0] * (n - len(ints))
        return cls(spec, tuple(c[:n]))

    def to_poly(self) -> Poly:
        return Poly(self.spec, self.coeffs)

    def support(self):
        return frozenset(i for i, c in enumerate(self.coeffs) if c)

    def weight(self):
        return sum(1 for c in self.coeffs if c)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        s = self.spec
        return QuotientPoly(s, tuple(
            s.add(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        prod = self.to_poly() * other.to_poly()
        return QuotientPoly.from_poly(prod, self.n)

    def int_coeffs(self):
        """Coefficients as prime-field integers; CoefficientLeak otherwise."""
        return _int_coeffs(self.spec, self.coeffs)


def cyclic_shift(f: QuotientPoly, h: int) -> QuotientPoly:
    """Residue of x^h * f modulo x^n - 1 (coefficient rotation)."""
    n = f.n
    h %= n
    c = f.coeffs
    return QuotientPoly(f.spec, c[n - h:] + c[:n - h])


def gcd_with_xn(f: QuotientPoly) -> Poly:
    """m_f = gcd(f, x^n - 1), monic; invariant under cyclic shifts of f."""
    if f.is_zero():
        raise ZeroPolynomial("gcd_with_xn of the zero polynomial")
    return f.to_poly().gcd(Poly.xn_minus_1(f.spec, f.n))


@functools.lru_cache(maxsize=None)
def _coset_product(root: RootOfUnity, coset: tuple, d: int) -> Poly:
    """prod over j in coset of (x - alpha^j), computed in L once per (root, coset, d).

    Raises CoefficientLeak unless every coefficient lies in GF(p^d), which
    happens only on a wrong field setup.
    """
    spec = root.spec
    out = Poly.one(spec)
    for j in coset:
        out = out * Poly(spec, [spec.neg(root.pow(j)), 1])
    if not all(spec.in_subfield(c, d) for c in out.coeffs):
        raise CoefficientLeak(f"factor coefficient escapes GF({spec.p}^{d})")
    return out


def minimal_polynomial(root: RootOfUnity, s: int) -> Poly:
    """min_q(alpha^s) = prod over the q-coset of s of (x - alpha^j), q = p.

    The same object as the factor of that coset in factor_xn(n, root); every
    coefficient is verified to lie in GF(q).
    """
    return _coset_product(root, cyclotomic_coset(s, root.n, root.spec.p), 1)


@dataclass(frozen=True)
class FactorList:
    """Irreducible factors of x^n - 1 over GF(p^d), with their root cosets."""

    root: RootOfUnity
    subfield_degree: int
    factors: tuple  # tuple of (Poly, frozenset root-exponent coset)

    def quotient(self, reps) -> Poly:
        """x^n - 1 divided by the factor of each coset that reps name; a
        coset named twice is divided out once."""
        out = Poly.xn_minus_1(self.root.spec, self.root.n)
        for f in dict.fromkeys(map(self.factor_for_coset_rep, reps)):
            out = out // f
        return out

    def factor_for_coset_rep(self, rep: int) -> Poly:
        for f, coset in self.factors:
            if rep % self.root.n in coset:
                return f
        raise KeyError(rep)


def factor_xn(n: int, root: RootOfUnity, subfield_degree: int = 1) -> FactorList:
    """Factor x^n - 1 over GF(p^d) via root-coset grouping, d | m; n = root.n."""
    spec = root.spec
    if n != root.n:
        raise RootMismatch(f"n = {n}, but the root has order {root.n}")
    if subfield_degree < 1 or spec.m % subfield_degree != 0:
        raise InvalidSubfield(f"{subfield_degree} does not divide {spec.m}")
    qd = spec.p ** subfield_degree
    part = cyclotomic_cosets(n, qd)
    factors = [(_coset_product(root, coset, subfield_degree), frozenset(coset))
               for coset in part.cosets]
    factors.sort(key=lambda fc: min(fc[1]))
    return FactorList(root, subfield_degree, tuple(factors))


def divisor_enumerate(factors: FactorList, target_degree: int | None = None,
                      budget: int | None = None):
    """All monic divisors of x^n - 1 as subset products of the factor list.

    Deterministic order: subsets by ascending size, then lexicographic factor
    indices.  Divisors of degree n (x^n - 1) and, given a target degree,
    divisors of any other degree are skipped.  A budget bounds the subsets
    visited, emitted or not, counted per subset size: BudgetExceeded is
    raised once that many are visited and more remain.
    """
    n = factors.root.n
    degs = [f.degree for f, _ in factors.factors]
    left = math.inf if budget is None else budget
    for r in range(len(degs) + 1):
        subsets = itertools.combinations(range(len(degs)), r)
        size = math.comb(len(degs), r)
        if size > left:
            subsets = itertools.islice(subsets, left)
        for idxs in subsets:
            d = sum(degs[i] for i in idxs)
            if d >= n:
                continue
            if target_degree is not None and d != target_degree:
                continue
            prod = Poly.one(factors.root.spec)
            roots = set()
            for i in idxs:
                prod = prod * factors.factors[i][0]
                roots.update(factors.factors[i][1])
            yield prod, frozenset(roots)
        if size > left:
            raise BudgetExceeded(f"divisor budget {budget} exhausted "
                                 f"after {budget} subsets")
        left -= size
