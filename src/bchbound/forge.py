"""Construction engines for codes whose minimum distance meets the BCH bound.

Four routes: shifted-divisor codes, the congruence criterion for factors of
x^n - 1, the primitive-length binary family, and the dimensional extension
of a divisor certificate into BCH codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .bounds import code_apparent_distance, zero_runs
from .codes import BchSpec, CyclicCode, bch_code, code_from_defining_set
from .errors import NotIrreducible, NotPrimitiveLength, NotRational, RootMismatch
from .galois import RootOfUnity, build_field, nth_root
from .modring import (
    coset_closure,
    cyclotomic_cosets,
    solve_linear_congruence,
    totient,
)
from .polyring import FactorList, Poly, QuotientPoly, minimal_polynomial
from .spectral import Spectrum, idft, is_rational, shifted_spectrum
from .wtdist import DEFAULT_CAP, min_distance


@dataclass(frozen=True)
class ConstructionRecord:
    """A constructed code plus the claims it was built to satisfy."""

    source: str  # divisor | congruence | primitive-family | extension
    divisor: Poly
    k: int
    code: CyclicCode
    bch_bound: int  # claimed Delta = d
    generator_word: QuotientPoly  # the idft codeword that generates the code
    verified: bool = False

    @property
    def dimension(self):
        return self.code.dimension

    def verify(self, cap=DEFAULT_CAP) -> "ConstructionRecord":
        """Re-check the claims: Delta and d by min_distance.

        Raises when the search disproves d = Delta.  A search that runs out
        of cap before it finds a word of weight Delta proves nothing either
        way, and the record comes back with verified=False.
        """
        res = min_distance(self.code, cap=cap)
        if res.bch_bound != self.bch_bound:
            raise AssertionError("claimed BCH bound does not recompute")
        if res.distance < self.bch_bound or res.lower_bound > self.bch_bound:
            raise AssertionError("minimum distance does not meet the bound")
        return replace(self, verified=res.distance == self.bch_bound)


def _rational_shift(g: Poly, k: int, root: RootOfUnity) -> Spectrum:
    """x^k * g read as a spectrum; NotRational unless it inverts into F_q(n)."""
    s = shifted_spectrum(g, k, root)
    if not is_rational(s):
        raise NotRational(f"shift k={k} leaves spectrum values outside "
                          f"GF({root.spec.p})")
    return s


def construct_from_divisor(g: Poly, k: int, root: RootOfUnity) -> ConstructionRecord:
    """Corollary route: the code generated by idft of the shifted divisor.

    g must divide x^n - 1 over a subfield of L; the shifted coefficient
    vector, read as a spectrum, must invert into F_q(n) (checked, not
    assumed; NotRational otherwise).
    """
    n = root.n
    s = _rational_shift(g, k, root)
    word = idft(s)
    word.int_coeffs()
    code = code_from_defining_set(n, root.spec.p, root, s.zero_set())
    assert code.contains(word)
    return ConstructionRecord("divisor", g, k % n, code,
                              bch_bound=n - g.degree, generator_word=word)


def find_shift(g: Poly, root: RootOfUnity):
    """Smallest k for which the spectrum x^k * g inverts into F_q(n).

    Coefficient i of that inverse is (1/n) * alpha^(-ik) * g(alpha^(-i)) and
    1/n lies in GF(p), so this is the divisor corollary's condition
    g(alpha^j) * alpha^(jk) in GF(q) for every j.  Returns None when no shift
    works.
    """
    for k in range(root.n):
        if is_rational(shifted_spectrum(g, k, root)):
            return k
    return None


def construct_from_quotient(factors: FactorList, reps,
                            k: int | None = None) -> ConstructionRecord:
    """The divisor route for g = factors.quotient(reps) at shift k: by
    default find_shift's, with NotRational when no shift exists."""
    root = factors.root
    g = factors.quotient(reps)
    if k is None:
        k = find_shift(g, root)
        if k is None:
            raise NotRational("no rational shift exists for this divisor")
    return construct_from_divisor(g, k, root)


def congruence_construct(h: Poly, j: int, root: RootOfUnity):
    """Criterion route: g = (x^n - 1)/h with g(alpha^j) a suitable root power.

    h must be an irreducible factor of x^n - 1 (over some subfield) and j a
    member of its defining coset.  Returns None when the hypothesis fails:
    g(alpha^j) is not in <alpha>, or the gcd divisibility does not hold.
    """
    n, q = root.n, root.spec.p
    xn1 = Poly.xn_minus_1(root.spec, n)
    quot, rem = xn1.divmod(h)
    if not rem.is_zero():
        raise NotIrreducible("h does not divide x^n - 1")
    if h.eval(root.pow(j)) != 0:
        raise NotIrreducible(f"j={j} is not in the defining coset of h")
    g = quot
    t = root.dlog(g.eval(root.pow(j)))
    if t is None:
        return None
    gamma = math.gcd(q - 1, n)
    if t % math.gcd(j, n // gamma) != 0:
        return None
    scale = (q - 1) // gamma
    k = solve_linear_congruence(scale * j, (-scale * t) % (n // gamma), n // gamma)
    if k is None:
        return None
    return replace(construct_from_divisor(g, k, root), source="congruence")


def primitive_family(m: int, root: RootOfUnity | None = None):
    """One record per coprime coset at primitive length n = 2^m - 1.

    Returns exactly phi(n)/m records with pairwise distinct defining sets;
    RootMismatch unless the root has order n over a field of characteristic 2.
    """
    if m < 2:
        raise NotPrimitiveLength(f"m must be >= 2, not {m}")
    n = (1 << m) - 1
    if root is None:
        root = nth_root(build_field(2, m), n)
    if (root.n, root.spec.p) != (n, 2):
        raise RootMismatch(f"m = {m} needs a root of order {n} over GF(2), "
                           f"not {root.n} over GF({root.spec.p})")
    records = []
    for a in cyclotomic_cosets(n, 2).a_set:
        h = minimal_polynomial(root, a)
        rec = congruence_construct(h, a, root)
        if rec is None:  # guaranteed by primitivity of alpha
            raise AssertionError(f"congruence route failed at coset {a}")
        records.append(replace(rec, source="primitive-family"))
    assert len(records) == totient(n) // m
    return records


def extend_to_bch(g: Poly, k: int, root: RootOfUnity):
    """Dimensional extension: every BCH window the shifted divisor anchors.

    For each maximal zero-run of the shifted coefficient vector achieving
    the apparent distance, take the coset closure of that run as defining
    set; each yields B_q(alpha, delta, b) with delta = n - deg(g) and b the
    run start.  The canonical window b = deg(g) + k + 1 comes first; records
    are deduplicated by defining set.
    """
    n, q = root.n, root.spec.p
    delta = n - g.degree
    starts = zero_runs(_rational_shift(g, k, root).values, delta - 1)
    canonical = (g.degree + k + 1) % n
    starts.sort(key=lambda b: (b != canonical, b))
    out = []
    seen = set()
    for b in starts:
        t_set = coset_closure(range(b, b + delta - 1), n, q)
        if t_set not in seen:  # bch_code builds the code of this same closure
            seen.add(t_set)
            out.append(bch_code(root, delta, b))
    return out


def record_for_bch(spec: BchSpec) -> ConstructionRecord:
    """Wrap an extension output with its (recomputed) claims."""
    report = code_apparent_distance(spec.code)
    return ConstructionRecord("extension", spec.code.generator, spec.b,
                              spec.code, report.overall, spec.code.idempotent)
