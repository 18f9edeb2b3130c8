"""Construction engines for codes whose minimum distance meets the BCH bound.

Four routes: shifted-divisor codes, the congruence criterion for factors of
x^n - 1, the primitive-length binary family, and the dimensional extension
of a construction record into BCH codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .codes import CyclicCode, bch_code, code_from_defining_set
from .errors import NotDivisor, NotPrimitiveLength, NotRational
from .galois import RootOfUnity
from .modring import cyclic_runs, cyclotomic_cosets, solve_linear_congruence, totient
from .polyring import FactorList, Poly, QuotientPoly, factor_xn
from .spectral import idft, is_rational, shifted_spectrum
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


def construct_from_divisor(g: Poly, k: int, root: RootOfUnity) -> ConstructionRecord:
    """Corollary route: the code generated by idft of the shifted divisor.

    g must divide x^n - 1 over a subfield of L; the shifted coefficient
    vector, read as a spectrum, must invert into F_q(n).  Both are checked,
    not assumed: NotRational or NotDivisor otherwise.
    """
    n = root.n
    s = shifted_spectrum(g, k, root)
    if not is_rational(s):
        raise NotRational(f"shift k={k} leaves spectrum values outside "
                          f"GF({root.spec.p})")
    word = idft(s)
    word.int_coeffs()
    # the word weighs n minus the number of n-th roots of unity at which g
    # vanishes, which is n - deg g exactly when g divides x^n - 1
    if word.weight() != n - g.degree:
        raise NotDivisor(f"g does not divide x^{n} - 1")
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


def congruence_construct(factors: FactorList, j: int):
    """Criterion route: g = (x^n - 1)/h, h the factor of j's coset, with
    g(alpha^j) a suitable root power.

    Returns None when the hypothesis fails: g(alpha^j) is not in <alpha>, or
    the gcd divisibility does not hold.
    """
    root = factors.root
    n, q = root.n, root.spec.p
    g = factors.quotient([j])
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


def primitive_family(root: RootOfUnity):
    """One record per coprime coset at the primitive length n = root.n.

    Returns exactly phi(n)/m records with pairwise distinct defining sets;
    NotPrimitiveLength unless q = 2 and n = 2^m - 1 with m >= 2.
    """
    n = root.n
    m = n.bit_length()
    if root.spec.p != 2 or n != (1 << m) - 1 or m < 2:
        raise NotPrimitiveLength(f"need q = 2 and n = 2^m - 1 with m >= 2, "
                                 f"not n = {n} over GF({root.spec.p})")
    factors = factor_xn(n, root)
    records = []
    for a in cyclotomic_cosets(n, 2).a_set:
        rec = congruence_construct(factors, a)
        if rec is None:  # guaranteed by primitivity of alpha
            raise AssertionError(f"congruence route failed at coset {a}")
        records.append(replace(rec, source="primitive-family"))
    assert len(records) == totient(n) // m
    return records


def extend_to_bch(rec: ConstructionRecord):
    """Dimensional extension: every BCH window the record's code anchors.

    Each maximal run of delta - 1 members of the defining set, delta the
    record's bound, is a window whose coset closure defines the BCH code
    B_q(alpha, delta, b), b the run start.  The window the divisor anchors,
    b = deg(g) + k + 1, comes first; records are deduplicated by defining
    set.
    """
    code, delta = rec.code, rec.bch_bound
    anchored = (rec.divisor.degree + rec.k + 1) % code.n
    starts = sorted((b for b, length in cyclic_runs(code.defining_set, code.n)
                     if length == delta - 1), key=lambda b: (b != anchored, b))
    out = {}
    for b in starts:
        ext = bch_code(code.root, delta, b)
        if ext.defining_set not in out:
            out[ext.defining_set] = ConstructionRecord(
                "extension", ext.generator, b, ext, ext.bch_bound,
                ext.idempotent)
    return list(out.values())
