"""Polynomials over an extension field and the quotient ring F[x]/(x^n - 1).

A Poly holds packed values of the big field L, and one type serves every
subfield.  GF(p) packs as the integers 0, ..., p - 1, so when every
coefficient of both operands is below p, a product or a division runs on
the coefficient lists as integers mod p (galois._polmul, _poldivmod); every
other polynomial, such as a factor over GF(p^d) for d > 1, is computed
with FieldSpec arithmetic.  Intermediate-field polynomials are recognized
through the Frobenius-fixed subfield test.  A binary minimal polynomial is
read off a GF(2)-linear dependency among the packed powers of its root,
with no arithmetic in L.
"""

from __future__ import annotations

import functools
import itertools

from .errors import (
    BudgetExceeded,
    CoefficientLeak,
    InvalidSubfield,
    RootMismatch,
    ZeroPolynomial,
)
from .galois import FieldSpec, RootOfUnity, _poldivmod, _polmul, poly_str
from .modring import cyclotomic_coset, cyclotomic_cosets
from .records import Record


class Poly:
    """Dense polynomial over a FieldSpec, little-endian, no trailing zeros."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs):
        # coeffs are packed field values; GF(p) packs as 0, ..., p - 1
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

    def _in_prime_field(self, other):
        """True iff every coefficient of both operands lies in GF(p)."""
        p = self.spec.p
        return max(self.coeffs, default=0) < p and max(other.coeffs, default=0) < p

    def __mul__(self, other):
        s = self.spec
        if self.is_zero() or other.is_zero():
            return Poly.zero(s)
        if self._in_prime_field(other):
            return Poly(s, _polmul(self.coeffs, other.coeffs, s.p))
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

    def derivative(self):
        """The formal derivative: coefficient i is (i + 1) times f_(i+1)."""
        s = self.spec
        return Poly(s, [s.mul((i + 1) % s.p, c)
                        for i, c in enumerate(self.coeffs[1:])])

    def divmod(self, other: "Poly"):
        if other.is_zero():
            raise ZeroPolynomial("division by zero polynomial")
        s = self.spec
        if self._in_prime_field(other):
            quot, rem = _poldivmod(self.coeffs, other.coeffs, s.p)
            return Poly(s, quot), Poly(s, rem)
        rem = list(self.coeffs)
        dd = other.degree
        inv_lead = s.inv(other.coeffs[-1])
        terms = [(i, oc) for i, oc in enumerate(other.coeffs) if oc]
        quot = [0] * max(0, len(rem) - dd)
        while len(rem) - 1 >= dd and rem:
            c = s.mul(rem[-1], inv_lead)
            shift = len(rem) - 1 - dd
            quot[shift] = c
            for i, oc in terms:
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
        # In the polynomial basis GF(p) is exactly the packed values
        # 0, ..., p - 1, each its own prime-field integer.
        for c in self.coeffs:
            if c >= self.spec.p:
                raise CoefficientLeak(
                    f"coefficient {poly_str(self.spec.decode(c))} outside "
                    "the prime field")
        return list(self.coeffs)

    def exponents(self):
        """Ascending exponents of the nonzero terms (CLI serialization)."""
        return sorted(self.support())

    def __repr__(self):
        try:
            return f"Poly({poly_str(self.int_coeffs())})"
        except CoefficientLeak:
            return f"Poly(deg {self.degree} over GF({self.spec.p}^{self.spec.m}))"


class QuotientPoly(Record):
    """Element of L[x]/(x^n - 1): a fixed-length coefficient vector."""

    def __init__(self, spec: FieldSpec, coeffs: tuple):
        # coeffs: packed int values, one per exponent 0, ..., n - 1
        self.__dict__.update(spec=spec, coeffs=coeffs)

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
        """Prime-field integers, reduced mod x^n - 1 as from_poly reduces."""
        return cls.from_poly(Poly.from_ints(spec, ints), n)

    def to_poly(self) -> Poly:
        return Poly(self.spec, self.coeffs)

    # Poly's views read only spec and coeffs, so they serve a padded vector
    support, weight, int_coeffs = Poly.support, Poly.weight, Poly.int_coeffs

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        s = self.spec
        return QuotientPoly(s, tuple(
            s.add(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        prod = self.to_poly() * other.to_poly()
        return QuotientPoly.from_poly(prod, self.n)


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
    """prod over j in coset of (x - alpha^j), computed once per (root, coset, d).

    For p = 2 and d = 1, the minimal polynomial of beta = alpha^coset[0]:
    the first GF(2)-linear dependency among the packed 1, beta, beta^2, ...
    (Lidl and Niederreiter, Finite Fields, ch. 3).  Otherwise multiplied out
    in L.  Raises CoefficientLeak unless every coefficient lies in GF(p^d)
    (for the GF(2) path: unless coset is one cyclotomic coset), which
    happens only on a wrong field setup.
    """
    spec = root.spec
    if spec.p == 2 and d == 1:
        n, s = root.n, coset[0]
        pivots = {}  # top bit -> (reduced vector, the powers it sums)
        for i in range(len(coset) + 1):
            v, comb = root.powers[s * i % n], 1 << i
            while v and v.bit_length() in pivots:
                pv, pc = pivots[v.bit_length()]
                v, comb = v ^ pv, comb ^ pc
            if not v:
                break
            pivots[v.bit_length()] = v, comb
        # only C(s) holds s, is closed under doubling and has that size
        if v or i < len(coset) or {2 * j % n for j in coset} != set(coset):
            raise CoefficientLeak("factor coefficient escapes GF(2^1)")
        return Poly(spec, [comb >> t & 1 for t in range(i + 1)])
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


class FactorList(Record):
    """Irreducible factors of x^n - 1 over GF(p^d), with their root cosets."""

    def __init__(self, root: RootOfUnity, subfield_degree: int, factors: tuple):
        # factors: a tuple of (Poly, frozenset root-exponent coset)
        self.__dict__.update(root=root, subfield_degree=subfield_degree,
                             factors=factors)

    def quotient(self, reps) -> Poly:
        """x^n - 1 divided by the factor of each coset that reps name; a
        coset named twice is divided out once."""
        out = Poly.xn_minus_1(self.root.spec, self.root.n)
        for f in dict.fromkeys(map(self.factor_for_coset_rep, reps)):
            out = out // f
        return out

    def factor_for_coset_rep(self, rep: int) -> Poly:
        """The factor of rep's coset mod n; factors come in partition order."""
        n, qd = self.root.n, self.root.spec.p ** self.subfield_degree
        return self.factors[cyclotomic_cosets(n, qd).label[rep % n]][0]


def factor_xn(n: int, root: RootOfUnity, subfield_degree: int = 1) -> FactorList:
    """Factor x^n - 1 over GF(p^d) via root-coset grouping, d | m; n = root.n.
    Factors come by least root exponent, as cyclotomic_cosets lists cosets."""
    spec = root.spec
    if n != root.n:
        raise RootMismatch(f"n = {n}, but the root has order {root.n}")
    if subfield_degree < 1 or spec.m % subfield_degree != 0:
        raise InvalidSubfield(f"{subfield_degree} does not divide {spec.m}")
    qd = spec.p ** subfield_degree
    factors = tuple((_coset_product(root, coset, subfield_degree), frozenset(coset))
                    for coset in cyclotomic_cosets(n, qd).cosets)
    return FactorList(root, subfield_degree, factors)


def divisor_enumerate(factors: FactorList, target_degree: int | None = None,
                      budget: int | None = None):
    """All monic divisors of x^n - 1 as subset products of the factor list,
    each yielded with the tuple of factor indices it multiplies.

    Deterministic order: subsets by ascending size, then lexicographic factor
    indices.  Divisors of degree n (x^n - 1) and, given a target degree,
    divisors of any other degree are skipped.  A budget bounds the subsets
    visited, emitted or not: BudgetExceeded is raised once that many are
    visited and more remain.
    """
    n = factors.root.n
    degs = [f.degree for f, _ in factors.factors]
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(len(degs)), r)
        for r in range(len(degs) + 1))
    for idxs in itertools.islice(subsets, budget):
        d = sum(degs[i] for i in idxs)
        if d >= n:
            continue
        if target_degree is not None and d != target_degree:
            continue
        prod = Poly.one(factors.root.spec)
        for i in idxs:
            prod = prod * factors.factors[i][0]
        yield prod, idxs
    if next(subsets, None) is not None:
        raise BudgetExceeded(f"divisor budget {budget} exhausted "
                             f"after {budget} subsets")
