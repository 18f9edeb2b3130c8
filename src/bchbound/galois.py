"""Finite-field tower arithmetic GF(p) <= GF(p^d) <= GF(p^m).

Elements live in a fixed extension GF(p^m) described by a FieldSpec and are
encoded as base-p packed integers (for p = 2 this is simply the coefficient
bitmask).  Arithmetic depends only on the field:

* p = 2: XOR addition and shift-and-add multiplication on the bitmask;
* odd p with p^m <= TABLE_MAX_ORDER: exp, log and Zech-log tables, built
  once when the FieldSpec is made, turn add, sub, neg, mul, power and inv
  into list lookups (Zech logarithms: Lidl and Niederreiter, Finite Fields,
  section 2.1 and its exercises);
* larger odd-p fields: polynomial-basis arithmetic modulo the field modulus.

A tabled field holds about 4 p^m list entries; every larger field stays
table-free, so memory stays bounded up to MAX_FIELD_ORDER.  Each RootOfUnity
keeps an O(n) table of its own powers and the inverse map (discrete log on
the subgroup it generates); nth_root and root_from_x make one root per
(FieldSpec, n), so the tables are built once per process.
"""

from __future__ import annotations

import functools
import operator

from .errors import (
    InvalidSubfield,
    NoDefaultPolynomial,
    OrderUnavailable,
    RejectedModulus,
)
from .records import Record

# Fields bigger than this are outside the design envelope (see README).
MAX_FIELD_ORDER = 1 << 24

# Odd-p fields up to this order carry exp, log and Zech-log tables.  The
# build is linear in the order, so past this a command that does few field
# operations would pay more for it than the tables save: `factor --n 61
# --q 3` (GF(3^10)) ran 0.12 s slower with tables, and 1.0 s slower under
# a modulus whose x-bar is not primitive (2-vCPU Xeon VM).
TABLE_MAX_ORDER = 1 << 10


def exceeds_field_cap(p: int, m: int) -> bool:
    """True iff p^m > MAX_FIELD_ORDER, without forming p^m for a huge m."""
    # p >= 2, so every m past the cap's bit length exceeds it
    return m >= MAX_FIELD_ORDER.bit_length() or p ** m > MAX_FIELD_ORDER


# ---------------------------------------------------------------------------
# GF(p)[x] helpers on little-endian int lists, and on bitmasks for p = 2.
# ---------------------------------------------------------------------------

def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _polmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poldivmod(a, f, p):
    """Quotient and remainder of a by f over GF(p), both trimmed; f is a
    trimmed nonzero list.

    Each step clears the top term of the remainder with the nonzero lower
    terms of f alone: a divisor such as x^n - 1 costs one update per
    quotient term, not n.
    """
    df = len(f) - 1
    if len(a) <= df:
        return [], _trim(list(a))
    inv_lead = pow(f[-1], -1, p)
    lower = [(i, p - fi) for i, fi in enumerate(f) if fi]  # -f_i
    lower.pop()  # the leading term: each step pops it off rem instead
    rem = list(a)
    quot = [0] * (len(rem) - df)
    for shift in range(len(quot) - 1, -1, -1):
        c = rem.pop() * inv_lead % p
        if c:
            quot[shift] = c
            for i, fi in lower:
                rem[i + shift] = (rem[i + shift] + c * fi) % p
    return _trim(quot), _trim(rem)


def _polgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _poldivmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _polpowmod(base, e, f, p):
    result = [1]
    base = _poldivmod(base, f, p)[1]
    while e:
        if e & 1:
            result = _poldivmod(_polmul(result, base, p), f, p)[1]
        base = _poldivmod(_polmul(base, base, p), f, p)[1]
        e >>= 1
    return result


def _clmulmod(a, b, mod, m):
    """a * b over GF(2) on bitmasks, reduced by the degree-m bitmask mod."""
    if a > b:  # loop over the shorter factor
        a, b = b, a
    r = 0
    while a:
        if a & 1:
            r ^= b
        a >>= 1
        b <<= 1
    bl = r.bit_length()
    while bl > m:
        r ^= mod << (bl - 1 - m)
        bl = r.bit_length()
    return r


def _x_has_order(p, f, n, primes) -> bool:
    """True iff x has order n modulo the monic f over GF(p), given the
    primes dividing n; f is a coefficient list, or a bitmask for p = 2."""
    if p == 2:
        m = f.bit_length() - 1

        def is_one(e):  # x^e left to right: x^(2k + b) = (x^k)^2 x^b
            r = 1
            for bit in bin(e)[2:]:
                r = _clmulmod(r, r << int(bit), f, m)
            return r == 1
    else:
        def is_one(e):
            return _polpowmod([0, 1], e, f, p) == [1]
    return is_one(n) and not any(is_one(n // r) for r in primes)


@functools.lru_cache(maxsize=None)
def _prime_factors(n) -> tuple:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def is_prime(p: int) -> bool:
    """True iff p is a prime, by trial division."""
    return _prime_factors(p) == (p,)


def _check_characteristic(p: int):
    """RejectedModulus unless p is a prime at most MAX_FIELD_ORDER (larger
    p are past the cap, and not tested).  Run before any arithmetic mod p:
    for a composite p that arithmetic builds a ring that is not a field."""
    if not (p <= MAX_FIELD_ORDER and is_prime(p)):
        raise RejectedModulus(
            f"the characteristic must be a prime at most {MAX_FIELD_ORDER}, "
            f"not {p}")


def _polsub(a, b, p):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
           for i in range(n)]
    return _trim(out)


def is_irreducible(modulus, p) -> bool:
    """Distinct-degree test: x^(p^m) = x mod f, no factor of degree m/r."""
    f = _trim(list(modulus))
    m = len(f) - 1
    if m < 1:
        return False
    if m == 1:
        return True
    x = [0, 1]
    if _polsub(_polpowmod(x, p ** m, f, p), x, p):
        return False
    for r in _prime_factors(m):
        d = _polsub(_polpowmod(x, p ** (m // r), f, p), x, p)
        if len(_polgcd(d, f, p)) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# FieldSpec and elements.
# ---------------------------------------------------------------------------

class FieldSpec:
    """An explicit GF(p^m) given by a monic irreducible modulus over GF(p).

    Immutable after construction; shareable across threads.  Element values
    are base-p packed integers in [0, p^m).  For odd p and p^m <=
    TABLE_MAX_ORDER the constructor also builds three lists, once, over a
    primitive g (x-bar when it is primitive, else generator_value()):

    * _exp[i] = g^i for i in [0, 2(p^m - 1)), so a sum of two logs needs no
      reduction;
    * _log[v] = the i < p^m - 1 with g^i = v, for v != 0 (_log[0] is None);
    * _zech[i] = log(1 + g^i), None where 1 + g^i = 0 (i = (p^m - 1)/2).

    Every other field has no lists (_log is None) and computes directly.
    """

    __slots__ = ("p", "m", "modulus", "order", "_mod_mask", "_generator_val",
                 "x_is_primitive", "_exp", "_log", "_zech")

    def __init__(self, p: int, m: int, modulus):
        _check_characteristic(p)
        if exceeds_field_cap(p, m):
            raise RejectedModulus(
                f"GF({p}^{m}) exceeds the field-order cap {MAX_FIELD_ORDER}")
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] == 0:
            raise RejectedModulus(f"modulus must be monic of degree {m}")
        if modulus[-1] != 1:
            inv = pow(modulus[-1], -1, p)
            modulus = tuple(c * inv % p for c in modulus)
        self.p = p
        self.m = m
        self.modulus = modulus
        self.order = p ** m
        if p == 2:
            self._mod_mask = sum(c << i for i, c in enumerate(modulus))
        else:
            self._mod_mask = None
        self._generator_val = None
        self._exp = self._log = self._zech = None
        self.x_is_primitive = _x_has_order(
            p, self._mod_mask or modulus, self.order - 1,
            _prime_factors(self.order - 1))
        # a primitive x-bar makes the modulus irreducible (default_modulus)
        if m > 1 and not (self.x_is_primitive or is_irreducible(modulus, p)):
            raise RejectedModulus(f"{modulus} is reducible over GF({p})")
        if p != 2 and self.order <= TABLE_MAX_ORDER:
            self._build_tables()

    def _build_tables(self):
        p = self.p
        if self.x_is_primitive:
            exp = self._x_powers()
        else:  # possible under a user modulus: walk g with generic mul
            g, mul = self.generator_value(), self.mul
            exp = [1]
            for _ in range(self.order - 2):
                exp.append(mul(exp[-1], g))
        log = [None] * self.order
        for i, v in enumerate(exp):
            log[v] = i
        # adding 1 changes only the lowest digit, wrapping p - 1 to 0; the
        # element p - 1 is -1, whose sum with 1 is 0 and has no log
        self._zech = [None if v == p - 1
                      else log[v + 1 if v % p != p - 1 else v + 1 - p]
                      for v in exp]
        self._exp = exp + exp
        self._log = log

    def _x_powers(self):
        """x-bar^i for i in [0, p^m - 1), each from the one before.

        Multiplying by x shifts the base-p digits up one place; a top digit
        t comes back as t * x^m = -t * (f_0 + ... + f_(m-1) x^(m-1)).
        """
        p, m, f = self.p, self.m, self.modulus
        weights = [p ** k for k in range(m)]
        digits, v, out = [1] + [0] * (m - 1), 1, []
        for _ in range(self.order - 1):
            out.append(v)
            t = digits.pop()
            digits.insert(0, 0)
            if t:
                digits = [(d - t * c) % p for d, c in zip(digits, f)]
                v = sum(map(operator.mul, digits, weights))
            else:
                v *= p
        return out

    # -- encoding ----------------------------------------------------------

    def encode(self, coeffs) -> int:
        """Pack a little-endian coefficient sequence into an element value."""
        val = 0
        for c in reversed(list(coeffs)):
            val = val * self.p + (int(c) % self.p)
        return val

    def decode(self, val: int):
        """Unpack an element value into m coefficients, little-endian."""
        out = []
        for _ in range(self.m):
            out.append(val % self.p)
            val //= self.p
        return tuple(out)

    # -- raw arithmetic on packed values ------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        log = self._log
        if log is None:
            return self.encode(x + y for x, y in zip(self.decode(a), self.decode(b)))
        if not a:
            return b
        if not b:
            return a
        # g^i + g^j = g^i (1 + g^(j - i)); a negative j - i indexes _zech
        # from its end, which is j - i mod (p^m - 1)
        la = log[a]
        z = self._zech[log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self._log is None:
            return self.encode(-x for x in self.decode(a))
        # -1 = g^((p^m - 1)/2)
        return self._exp[self._log[a] + (self.order - 1) // 2] if a else 0

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.p == 2:
            return _clmulmod(a, b, self._mod_mask, self.m)
        log = self._log
        if log is not None:
            return self._exp[log[a] + log[b]] if a and b else 0
        return self.encode(_poldivmod(_polmul(self.decode(a), self.decode(b),
                                              self.p), self.modulus, self.p)[1])

    def power(self, a: int, e: int) -> int:
        if self._log is not None:
            if a:
                return self._exp[self._log[a] * e % (self.order - 1)]
            if e < 0:
                raise ZeroDivisionError("inverse of zero field element")
            return 0 if e else 1
        if e < 0:
            a = self.inv(a)
            e = -e
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if a < self.p:  # a constant of GF(p)
            return pow(a, -1, self.p)
        if self._log is not None:
            return self._exp[self.order - 1 - self._log[a]]
        return self.power(a, self.order - 2)

    def _has_order(self, v: int, n: int) -> bool:
        """True iff the packed value v is a unit of order exactly n."""
        return (n >= 1 and (self.order - 1) % n == 0 and 0 < v < self.order
                and self.power(v, n) == 1
                and not any(self.power(v, n // r) == 1
                            for r in _prime_factors(n)))

    def generator_value(self) -> int:
        """A verified primitive element (packed value); x-bar when possible.

        The scan starts at 2, or at x-bar (packed p) when m > 1, where no
        constant of GF(p)* has order p^m - 1.
        """
        if self._generator_val is None:
            if self.order == 2:
                self._generator_val = 1
            else:
                for cand in range(2 if self.m == 1 else self.p, self.order):
                    if self._has_order(cand, self.order - 1):
                        self._generator_val = cand
                        break
                else:  # pragma: no cover - every finite field has a generator
                    raise RejectedModulus("no primitive element found")
        return self._generator_val

    def x(self) -> int:
        """The residue of x, packed."""
        if self.m == 1:
            # x reduces to a constant: -modulus[0]
            return (-self.modulus[0]) % self.p
        return self.encode([0, 1])

    def in_subfield(self, v: int, d: int) -> bool:
        """True iff the packed value v lies in GF(p^d), for d dividing m."""
        if d < 1 or self.m % d != 0:
            raise InvalidSubfield(f"{d} does not divide {self.m}")
        if d == 1:
            # GF(p) packs as the constants 0, ..., p - 1
            return v < self.p
        return self.power(v, self.p ** d) == v

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"FieldSpec(GF({self.p}^{self.m}), modulus={poly_str(self.modulus)})"


class RootOfUnity(Record):
    """A primitive n-th root of unity alpha of a field, as a packed value.

    Construction checks that value has order exactly n, and raises
    OrderUnavailable otherwise.
    """

    def __init__(self, spec: FieldSpec, value: int, n: int):
        if not spec._has_order(value, n):
            raise OrderUnavailable(
                f"{value} does not have order {n} in {spec!r}")
        self.__dict__.update(spec=spec, value=value, n=n)

    @functools.cached_property
    def powers(self) -> tuple:
        """powers[t] = alpha^t as packed values, for t in [0, n); built once."""
        mul, a = self.spec.mul, self.value
        out = [1]
        for _ in range(self.n - 1):
            out.append(mul(out[-1], a))
        return tuple(out)

    @functools.cached_property
    def _logs(self) -> dict:
        return {v: t for t, v in enumerate(self.powers)}

    def pow(self, e: int) -> int:
        """alpha^e, packed."""
        return self.powers[e % self.n]

    def dlog(self, val: int):
        """The t in [0, n) with alpha^t = val (packed); None off <alpha>."""
        return self._logs.get(val)


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def default_modulus(p: int, m: int):
    """The lexicographically-smallest primitive polynomial for GF(p^m).

    A monic f is primitive exactly when x has order N = p^m - 1 modulo f
    (Lidl and Niederreiter, Finite Fields, Thm 3.16): x is no unit when
    f(0) = 0, and a reducible f leaves fewer than N units, so no
    irreducibility test runs.  A candidate passes when x^N = 1 and
    x^(N/r) != 1 for each prime r | N.  Cached per (p, m).
    """
    _check_characteristic(p)
    if exceeds_field_cap(p, m):
        raise NoDefaultPolynomial(f"{p}^{m} exceeds the {MAX_FIELD_ORDER} cap")
    n = p ** m - 1
    primes = _prime_factors(n)
    if m == 1:  # x - g for the least generator g of GF(p)*; x + 1 for p = 2
        g = next((g for g in range(2, p)
                  if all(pow(g, n // r, p) != 1 for r in primes)), 1)
        return ((-g) % p, 1)
    for packed in range(p ** m + 1, 2 * p ** m):
        coeffs = [packed // p ** i % p for i in range(m + 1)]
        # for p = 2 the base-p packing is the modulus bitmask
        if _x_has_order(p, packed if p == 2 else coeffs, n, primes):
            return tuple(coeffs)
    raise NoDefaultPolynomial(f"no primitive polynomial found for ({p}, {m})")


@functools.lru_cache(maxsize=None)
def _cached_spec(p, m, modulus):
    return FieldSpec(p, m, modulus)


def build_field(p: int, m: int, modulus=None) -> FieldSpec:
    """Validate and build GF(p^m); use default_modulus(p, m) when omitted."""
    _check_characteristic(p)
    if m < 1:
        raise RejectedModulus("extension degree must be >= 1")
    if modulus is None:
        modulus = default_modulus(p, m)
    modulus = tuple(int(c) % p for c in modulus)
    return _cached_spec(p, m, modulus)


@functools.lru_cache(maxsize=None)
def nth_root(spec: FieldSpec, n: int) -> RootOfUnity:
    """A primitive n-th root of unity from a primitive element; one per (spec, n)."""
    if n < 1 or (spec.order - 1) % n != 0:
        raise OrderUnavailable(f"{n} does not divide {spec.order - 1}")
    g = spec.generator_value()
    return RootOfUnity(spec, spec.power(g, (spec.order - 1) // n), n)


@functools.lru_cache(maxsize=None)
def root_from_x(spec: FieldSpec, n: int) -> RootOfUnity:
    """Take the residue of x as a primitive n-th root of unity.

    This is how a root with a prescribed minimal polynomial is fixed: build
    the field with that polynomial as modulus, then x-bar is the root.  One
    root per (spec, n), like nth_root.
    """
    return RootOfUnity(spec, spec.x(), n)


def poly_str(coeffs) -> str:
    """Render little-endian GF(p) coefficients as a readable polynomial."""
    terms = []
    for i in reversed(range(len(coeffs))):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("x" if c == 1 else f"{c}x")
        else:
            terms.append(f"x^{i}" if c == 1 else f"{c}x^{i}")
    return " + ".join(terms) if terms else "0"
