"""Discrete Fourier (Mattson-Solomon) transform over the splitting field.

Spectra are length-n vectors over L = GF(p^m); index i holds f(alpha^i).
Both transforms take one of two paths:

* a prime-field vector of length n that is constant on p-cyclotomic
  cosets (an indicator spectrum, an idempotent) is summed by cosets: the
  sum over a coset C of r of alpha^(i*j) is a trace of alpha^(i*r), so
  each output is a GF(p) sum with one trace per input coset off the most
  common value (see _coset_transform);
* any other prime-field vector (a word over GF(p), a shifted divisor) is
  summed from the root's table of alpha-powers: each output at a
  p-cyclotomic coset representative is a sum of table entries (an XOR for
  p = 2), and the rest of the coset follows by Frobenius,
  out[p*i] = out[i]^p;
* an L-valued vector is split into its m prime-field coordinate vectors,
  each transformed as above; by GF(p)-linearity the m results recombine
  exactly (see _transform).

The table path serves every input and is the reference the coset path is
tested against.  is_rational, the one rationality test, decides whether a
spectrum inverts into F_q(n); certificates and shifted-divisor
constructions both use it.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

from .errors import NotCosetClosed, RootMismatch
from .galois import FieldSpec, RootOfUnity, poly_str
from .modring import cyclotomic_cosets, is_coset_closed
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
    """_transform for coeffs in GF(p): by cosets when coeffs is constant
    on the p-cyclotomic cosets mod n, else from the table."""
    n, p = root.n, root.spec.p
    if len(coeffs) == n and all(coeffs[p * j % n] == c
                                for j, c in enumerate(coeffs)):
        return _coset_transform(coeffs, root, sign)
    return _table_transform(coeffs, root, sign)


def _table_transform(coeffs, root: RootOfUnity, sign: int):
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


def _coset_transform(coeffs, root: RootOfUnity, sign: int):
    """_table_transform for coeffs of length n constant on p-cosets.

    With c the most common value, coeffs = c + sum_C (v_C - c) * [C] over
    the cosets C with value v_C != c.  The constant c transforms to n*c at
    i = 0 and to 0 elsewhere.  For a coset C of r, the sum of
    alpha^(s*i*j) over j in C is the trace from GF(p^|C|) to GF(p) of
    alpha^(s*i*r), an element of GF(p).  For |C| = m that is the field
    trace (_trace); a shorter coset is summed from the table, because the
    field trace is m/|C| times the smaller one and p may divide m/|C|.
    Every output lies in GF(p), so it is constant on the coset of i.
    """
    spec, n, powers = root.spec, root.n, root.powers
    p, m, add = spec.p, spec.m, spec.add
    cosets = cyclotomic_cosets(n, p).cosets
    counts = Counter(coeffs)  # not most_common, which imports heapq
    c = max(counts, key=counts.get)
    terms = [(coset, (coeffs[coset[0]] - c) % p) for coset in cosets
             if coeffs[coset[0]] != c]
    trace = _trace(spec)
    out = [0] * n
    for out_coset in cosets:
        step = sign * out_coset[0] % n
        acc = 0 if step else n * c
        for coset, w in terms:
            if len(coset) == m:
                tr = trace(powers[step * coset[0] % n])
            else:
                tr = functools.reduce(
                    add, (powers[step * j % n] for j in coset))
            acc += w * tr
        acc %= p
        for i in out_coset:
            out[i] = acc
    return out


@functools.lru_cache(maxsize=None)
def _trace(spec: FieldSpec):
    """The absolute trace GF(p^m) -> GF(p), as a function of packed values.

    Tr is GF(p)-linear, so Tr(v) is the dot product of v's digits with the
    basis traces t_k = Tr(xbar^k).  These are the power sums of the roots
    of the modulus f = x^m + f_(m-1) x^(m-1) + ... + f_0 (the conjugates
    of xbar), so Newton's identities give them in O(m^2) steps:
    t_0 = m and t_k = -(k f_(m-k) + sum_(0<i<k) f_(m-i) t_(k-i)).
    """
    p, m, f = spec.p, spec.m, spec.modulus
    t = [m % p]
    for k in range(1, m):
        t.append(-(k * f[m - k] + sum(f[m - i] * t[k - i]
                                      for i in range(1, k))) % p)
    if p == 2:
        mask = sum(bit << k for k, bit in enumerate(t))
        return lambda v: (v & mask).bit_count() & 1
    return lambda v: sum(d * tk for d, tk in zip(spec.decode(v), t)) % p


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
