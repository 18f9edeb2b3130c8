"""Discrete Fourier (Mattson-Solomon) transform over the splitting field.

Spectra are length-n vectors over L = GF(p^m); index i holds f(alpha^i).
Both transforms take any packed values of L (see _transform; anything
else raises CoefficientLeak).  A prime-field vector takes one of two
paths:

* a vector of length n that is constant on p-cyclotomic
  cosets (an indicator spectrum, an idempotent) is summed by cosets: the
  sum over a coset C of r of alpha^(i*j) is a trace of alpha^(i*r), so
  each output is a GF(p) sum with one trace per input coset off the most
  common value (see _coset_transform);
* any other vector (a word over GF(p), a shifted divisor) is
  summed by packed columns: column j holds alpha^(r*j) for every p-coset
  representative r in one int, so the outputs at all representatives are
  one big-int add (an XOR for p = 2) per nonzero coefficient, and the rest
  of each coset follows by Frobenius, out[p*i] = out[i]^p, packed for
  p = 2 (see _table_transform).

An L-valued vector is transformed by GF(p)-linearity.  For p = 2 the
column path splits it into bit planes, XORs the columns of each, and at
each Frobenius step squares every plane and recombines the planes by
Horner in xbar, each step on all lanes at once (see _binary_orbits).  For
odd p it is split into its m prime-field digit vectors, each transformed
alone, and every output is recombined by Horner evaluation in xbar.

The column path serves every input and is the reference the coset path
is tested against; the tests check it against a field sum per term and
Horner evaluation.  is_rational, the one rationality test, decides
whether a spectrum inverts into F_q(n); certificates and shifted-divisor
constructions both apply it to shifted_spectrum, the one spectrum of a
shifted divisor.
"""

from __future__ import annotations

import functools
import operator
from collections import Counter
from itertools import compress

from .errors import CoefficientLeak, NotCosetClosed, RootMismatch
from .galois import FieldSpec, RootOfUnity, poly_str
from .modring import coset_closure, cyclotomic_cosets
from .polyring import Poly, QuotientPoly, cyclic_shift
from .records import Record

# Column tables of at most this many bytes stay cached on their root;
# past it, _table_transform builds them per call, a block of
# representatives at a time (n = 8191 at q = 2 still fits).
COLUMN_CACHE_BYTES = 1 << 24


class Spectrum(Record):
    """Evaluation vector of a polynomial at 1, alpha, ..., alpha^(n-1)."""

    def __init__(self, n: int, root: RootOfUnity, values: tuple):
        # values: packed field values, length n
        if not n == root.n == len(values):
            raise RootMismatch(f"n = {n} with {len(values)} values, "
                               f"over a root of order {root.n}")
        self.__dict__.update(n=n, root=root, values=values)

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

    coeffs are packed values in [0, p^m) and may be longer than n; any
    other value raises CoefficientLeak, checked once here for dft and
    idft alike.  GF(p)-valued input goes to _prime_transform.  Other input
    is split by GF(p)-linearity:

    * p = 2: straight to _table_transform, which takes one bit plane per
      bit of the largest value and recombines the planes on packed lanes
      (see _binary_orbits);
    * odd p: writing each value as v = sum_k d_k * xbar^k, with digits
      d_k = spec.decode(v)[k] in GF(p) and xbar the residue of x, splits
      coeffs into m prime-field vectors c_0, ..., c_(m-1).  The transform T
      is GF(p)-linear, so T(coeffs)[i] = sum_k T(c_k)[i] * xbar^k: a
      polynomial of degree < m in xbar with coefficients T(c_k)[i],
      evaluated by Horner.
    """
    spec = root.spec
    top = max(coeffs) if coeffs else 0  # max(default=) is slower
    if top >= spec.order or coeffs and min(coeffs) < 0:
        bad = next(c for c in coeffs if not 0 <= c < spec.order)
        raise CoefficientLeak(f"value {bad} is not a packed element of "
                              f"GF({spec.p}^{spec.m}), 0 to {spec.order - 1}")
    if top < spec.p:
        return _prime_transform(coeffs, root, sign)
    if spec.p == 2:
        return _table_transform(coeffs, root, sign, top.bit_length())
    digits = [spec.decode(c) for c in coeffs]
    parts = [_prime_transform([d[k] for d in digits], root, sign)
             for k in range(spec.m)]
    xbar = spec.x()
    return [Poly(spec, column).eval(xbar) for column in zip(*parts)]


def _prime_transform(coeffs, root: RootOfUnity, sign: int):
    """_transform for coeffs in GF(p): by cosets when coeffs is constant
    on the p-cyclotomic cosets mod n, else by packed columns."""
    n, p = root.n, root.spec.p
    if len(coeffs) == n and all(coeffs[p * j % n] == c
                                for j, c in enumerate(coeffs)):
        return _coset_transform(coeffs, root, sign)
    return _table_transform(coeffs, root, sign)


def _table_transform(coeffs, root: RootOfUnity, sign: int, width: int = 1):
    """_transform by packed columns (see _columns), for coeffs in GF(p) or,
    when p = 2, any packed values below 2^width (width = 1: GF(2)).

    The transform at the p-coset representatives is the sum of
    coeffs[j] * C_j over j.  For p = 2, bit plane k is the XOR of the
    columns j whose coeffs[j] has bit k set: the transform of the GF(2)
    vector of those bits.  GF(2) input has the one plane 0, one XOR per
    nonzero coefficient.  For odd p it is a big-int sum whose digit lanes
    are reduced mod p at the end.  Input longer than n is first folded
    mod x^n - 1 (by XOR for p = 2, the addition of GF(2^m)), so no lane
    overflows.  The rest of each orbit follows by Frobenius: for p = 2 on
    all lanes of every plane at once (see _binary_orbits); for odd p by
    out[p*i] = out[i]^p, one spec.power per output.  sign = -1 reads the
    sign = 1 output at -i mod n.
    """
    spec, n = root.spec, root.n
    p, m = spec.p, spec.m
    if len(coeffs) > n:
        folded = [0] * n
        if p == 2:
            for j, c in enumerate(coeffs):
                folded[j % n] ^= c
        else:
            for j, c in enumerate(coeffs):
                folded[j % n] += c
            folded = [c % p for c in folded]
        coeffs = folded
    orbits, w = _orbits(n, p), _digit_width(n, p)
    per_block = max(1, COLUMN_CACHE_BYTES * 8 // (n * m * w))
    if len(orbits) <= per_block:
        blocks = [(orbits, _cached_columns(root))]
    else:
        blocks = ((orbits[s:s + per_block],
                   _columns(root, orbits[s:s + per_block]))
                  for s in range(0, len(orbits), per_block))
    # bit k of every coefficient selects the columns of plane k
    bits = [coeffs] if width == 1 else [[c >> k & 1 for c in coeffs]
                                        for k in range(width)]
    out = [0] * n
    for block, columns in blocks:
        if p == 2:
            planes = [functools.reduce(operator.xor, compress(columns, sel), 0)
                      for sel in bits]
            _binary_orbits(planes, block, spec, out)
            continue
        acc = sum(c * column for c, column in zip(coeffs, columns) if c)
        mask, weights = (1 << w) - 1, [p ** k for k in range(m)]
        for orbit in block:
            v = 0
            for weight in weights:
                v += (acc & mask) % p * weight
                acc >>= w
            out[orbit[0]] = v
            for i in orbit[1:]:
                v = out[i] = spec.power(v, p)
    return out if sign > 0 else [out[-i % n] for i in range(n)]


def _binary_orbits(planes, block, spec, out):
    """Write out[r * 2^s] for each orbit (r, 2r, ...) of block, p = 2.

    Lane t of planes[k] holds T(c_k)[r] for the t-th orbit's r, where c_k
    is the GF(2) vector of bit k of every coefficient.  T(c_k) is
    GF(2)-valued input's transform, so T(c_k)[2i] = T(c_k)[i]^2; squaring
    is GF(2)-linear, (sum_l b_l xbar^l)^2 = sum_l b_l xbar^(2l), so each
    level takes one packed squaring per plane.  The level's output is
    sum_k planes[k] * xbar^k, by Horner on all lanes at once: times xbar,
    a lane shifts up one bit, and a bit carried out of xbar^(m-1) comes
    back as xbar^m = red, the modulus without its top term.  One plane,
    as for GF(2) input, takes no Horner step.
    """
    m = spec.m
    mask = (1 << m) - 1
    ones = ((1 << m * len(block)) - 1) // mask  # bit 0 of every lane
    low = ones * (mask >> 1)  # bits 0 .. m - 2 of every lane
    red = spec._mod_mask ^ (1 << m)
    squares = _squares(spec)
    for s in range(max(map(len, block))):
        if s:
            for t, level in enumerate(planes):
                acc = 0
                for k, sq in enumerate(squares):
                    acc ^= (level >> k & ones) * sq
                planes[t] = acc
        acc = planes[-1]
        if len(planes) > 1:
            for plane in planes[-2::-1]:
                acc = ((acc & low) << 1) ^ (acc >> m - 1 & ones) * red ^ plane
        for orbit in block:
            if s < len(orbit):
                out[orbit[s]] = acc & mask
            acc >>= m


@functools.lru_cache(maxsize=None)
def _squares(spec: FieldSpec) -> tuple:
    """xbar^(2k) for k in [0, m), p = 2: the squares of the basis."""
    return tuple(spec.mul(1 << k, 1 << k) for k in range(spec.m))


@functools.lru_cache(maxsize=None)
def _orbits(n: int, p: int) -> tuple:
    """The p-cyclotomic cosets mod n, each listed as r, p*r, p^2*r, ..."""
    return tuple(tuple(c[0] * pow(p, s, n) % n for s in range(len(c)))
                 for c in cyclotomic_cosets(n, p).cosets)


def _digit_width(n: int, p: int) -> int:
    """Bits per digit lane: 1 for p = 2, where an XOR never carries, else
    room for a sum of n products of two digits, n(p - 1)^2."""
    return 1 if p == 2 else (n * (p - 1) ** 2).bit_length()


@functools.lru_cache(maxsize=1)
def _cached_columns(root: RootOfUnity) -> tuple:
    """_columns of every orbit, built once per root under the cap; one
    root's table is held at a time, so the cap bounds the process."""
    return tuple(_columns(root, _orbits(root.n, root.spec.p)))


def _columns(root: RootOfUnity, orbits) -> list:
    """C_j for j in [0, n): alpha^(r*j) for the representative r of each
    orbit, packed into one int with the first orbit's lane lowest.

    A lane holds the m digits of its value, w = _digit_width bits each,
    digit k at bit k*w of the lane; for p = 2 that is the packed value.
    """
    spec, n = root.spec, root.n
    w = _digit_width(n, spec.p)
    values = root.powers if w == 1 else [
        sum(d << k * w for k, d in enumerate(spec.decode(v)))
        for v in root.powers]
    lane = [format(v, f"0{spec.m * w}b") for v in values]
    top = [orbit[0] for orbit in reversed(orbits)]
    return [int("".join([lane[r * j % n] for r in top]), 2)
            for j in range(n)]


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
    """values[i] = f(alpha^i); a QuotientPoly must have length root.n."""
    if isinstance(f, QuotientPoly) and f.n != root.n:
        raise RootMismatch(f"a word of length {f.n} over a root of order "
                           f"{root.n}")
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


def shifted_spectrum(g: Poly, k: int, root: RootOfUnity) -> Spectrum:
    """x^k * g mod x^n - 1, its coefficients read as a spectrum over root."""
    f = QuotientPoly.from_poly(g, root.n)
    return Spectrum(root.n, root, cyclic_shift(f, k).coeffs)


def indicator_spectrum(defining_set, root: RootOfUnity) -> Spectrum:
    """F_D: 0 at indices in D, 1 elsewhere; the dft of the code idempotent."""
    n, q = root.n, root.spec.p
    d = {i % n for i in defining_set}
    if coset_closure(d, n, q) != d:
        raise NotCosetClosed(f"{sorted(d)} is not a union of {q}-cosets mod {n}")
    return Spectrum(n, root, tuple(0 if i in d else 1 for i in range(n)))
