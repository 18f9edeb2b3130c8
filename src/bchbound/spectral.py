"""Discrete Fourier (Mattson-Solomon) transform over the splitting field.

Spectra are length-n vectors over L = GF(p^m); index i holds f(alpha^i).
Both transforms take one path for every input, built on the root's table
of alpha-powers:

* a prime-field vector (every value in GF(p), such as a word over GF(p),
  an indicator spectrum or a shifted divisor) is summed from the table:
  each output at a p-cyclotomic coset representative is a sum of table
  entries (an XOR for p = 2), and the rest of the coset follows by
  Frobenius, out[p*i] = out[i]^p;
* an L-valued vector is split into its m prime-field coordinate vectors,
  each summed as above; by GF(p)-linearity the m results recombine
  exactly (see _transform).

is_rational, the one rationality test, decides whether a spectrum inverts
into F_q(n); certificates and shifted-divisor constructions both use it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotCosetClosed, RootMismatch
from .galois import RootOfUnity, poly_str
from .modring import is_coset_closed
from .polyring import Poly, QuotientPoly


@dataclass(frozen=True)
class Spectrum:
    """Evaluation vector of a polynomial at 1, alpha, ..., alpha^(n-1)."""

    n: int
    root: RootOfUnity
    values: tuple  # packed field values, length n

    def __post_init__(self):
        if not self.n == self.root.n == len(self.values):
            raise RootMismatch(f"n = {self.n} with {len(self.values)} values, "
                               f"over a root of order {self.root.n}")

    def support(self):
        return frozenset(i for i, v in enumerate(self.values) if v)

    def zero_set(self):
        return frozenset(i for i, v in enumerate(self.values) if not v)

    def star(self, other: "Spectrum") -> "Spectrum":
        """Coordinatewise product (the transform-side ring multiplication)."""
        if self.root != other.root:
            raise RootMismatch("spectra over different roots")
        spec = self.root.spec
        return Spectrum(self.n, self.root, tuple(
            spec.mul(a, b) for a, b in zip(self.values, other.values)))

    def is_idempotent(self):
        spec = self.root.spec
        return all(spec.mul(v, v) == v for v in self.values)

    def __str__(self):
        if all(v in (0, 1) for v in self.values):
            return "( " + " ".join(str(v) for v in self.values) + " )"
        return "[" + ", ".join(self._value_str(v) for v in self.values) + "]"

    def _value_str(self, v):
        """a^t for v = alpha^t, else v in the field's polynomial basis."""
        t = self.root.dlog(v)
        if t is not None:
            return f"a^{t}"
        return f"({poly_str(self.root.spec.decode(v))})" if v else "0"


def _transform(coeffs, root: RootOfUnity, sign: int):
    """out[i] = sum_j coeffs[j] * alpha^(sign*i*j) for i in [0, n).

    coeffs are packed values and may be longer than n.  Writing each value
    as v = sum_k d_k * xbar^k, with digits d_k = spec.decode(v)[k] in GF(p)
    and xbar the residue of x, splits coeffs into m prime-field vectors
    c_0, ..., c_(m-1).  The transform T is GF(p)-linear, so
    T(coeffs)[i] = sum_k T(c_k)[i] * xbar^k: a polynomial of degree < m in
    xbar with coefficients T(c_k)[i], evaluated by Horner.  Prime-field
    input is its own single coordinate vector and needs no recombination.
    """
    spec = root.spec
    if all(c < spec.p for c in coeffs):
        return _prime_transform(coeffs, root, sign)
    digits = [spec.decode(c) for c in coeffs]
    parts = [_prime_transform([d[k] for d in digits], root, sign)
             for k in range(spec.m)]
    xbar = spec.x()
    return [Poly(spec, column).eval(xbar) for column in zip(*parts)]


def _prime_transform(coeffs, root: RootOfUnity, sign: int):
    """_transform for coeffs in GF(p), from the table of alpha-powers."""
    spec, n, powers = root.spec, root.n, root.powers
    p = spec.p
    # group the exponents by coefficient, so that
    # out[i] = sum_c c * (sum of alpha^(sign*i*j) over j with coeffs[j] = c)
    by_coeff = {}
    for j, c in enumerate(coeffs):
        if c:
            by_coeff.setdefault(c, []).append(j)
    add, mul = spec.add, spec.mul
    out = [None] * n
    for i in range(n):
        if out[i] is not None:
            continue
        step = sign * i % n
        acc = 0
        for c, exps in by_coeff.items():
            part = 0
            for j in exps:
                part = add(part, powers[step * j % n])
            acc = add(acc, part if c == 1 else mul(c, part))
        out[i] = acc
        k = p * i % n
        while k != i:  # the rest of the coset of i, by Frobenius
            acc = spec.power(acc, p)
            out[k] = acc
            k = p * k % n
    return out


def dft(f: QuotientPoly | Poly, root: RootOfUnity) -> Spectrum:
    """values[i] = f(alpha^i)."""
    return Spectrum(root.n, root, tuple(_transform(f.coeffs, root, 1)))


def idft(s: Spectrum) -> QuotientPoly:
    """The unique preimage: coeff_i = (1/n) * s(alpha^-i)."""
    spec = s.root.spec
    n_inv = spec.inv(s.n % spec.p)
    coeffs = _transform(s.values, s.root, -1)
    if n_inv != 1:
        coeffs = [spec.mul(n_inv, c) for c in coeffs]
    return QuotientPoly(spec, tuple(coeffs))


def is_rational(s: Spectrum) -> bool:
    """True iff idft(s) lands in F_q(n), q = p: values[q*i mod n] = values[i]^q
    (a value v < p lies in GF(p), so it is its own q-th power)."""
    spec = s.root.spec
    n, q, values = s.n, spec.p, s.values
    return all(values[q * i % n] == (v if v < q else spec.power(v, q))
               for i, v in enumerate(values))


def indicator_spectrum(defining_set, root: RootOfUnity) -> Spectrum:
    """F_D: 0 at indices in D, 1 elsewhere; the dft of the code idempotent."""
    n, q = root.n, root.spec.p
    d = {i % n for i in defining_set}
    if not is_coset_closed(d, n, q):
        raise NotCosetClosed(f"{sorted(d)} is not a union of {q}-cosets mod {n}")
    return Spectrum(n, root, tuple(0 if i in d else 1 for i in range(n)))
