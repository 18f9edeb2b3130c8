"""Construction engines for codes whose minimum distance meets the BCH bound.

Four routes: shifted-divisor codes, the congruence criterion for factors of
x^n - 1, the primitive-length binary family, and the dimensional extension
of a construction record into BCH codes.
"""

from __future__ import annotations

from .codes import CyclicCode, bch_code
from .errors import NotDivisor, NotPrimitiveLength, NotRational
from .galois import RootOfUnity
from .modring import cyclic_runs, cyclotomic_cosets, solve_linear_congruence, totient
from .polyring import FactorList, Poly, QuotientPoly, factor_xn
from .records import Record, replace
from .spectral import idft, is_rational, shifted_spectrum
from .wtdist import DEFAULT_CAP, min_distance


class ConstructionRecord(Record):
    """A constructed code plus the claims it was built to satisfy."""

    def __init__(self, source: str, divisor: Poly, k: int, code: CyclicCode,
                 bch_bound: int, generator_word: QuotientPoly,
                 verified: bool = False):
        # source: divisor | congruence | primitive-family | extension;
        # bch_bound: the claimed Delta = d; generator_word: the idft
        # codeword that generates the code
        self.__dict__.update(source=source, divisor=divisor, k=k, code=code,
                             bch_bound=bch_bound, generator_word=generator_word,
                             verified=verified)

    @property
    def dimension(self):
        return self.code.dimension

    def verify(self) -> "ConstructionRecord":
        """Re-check the claims: Delta and d by min_distance.

        Raises when the search disproves d = Delta.  A search that runs out
        of DEFAULT_CAP (read at each call) before it finds a word of weight
        Delta proves nothing, and the record comes back verified=False.
        """
        res = min_distance(self.code, cap=DEFAULT_CAP)
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
    code = CyclicCode(root, s.zero_set())
    assert code.contains(word)
    return ConstructionRecord("divisor", g, k % n, code,
                              bch_bound=n - g.degree, generator_word=word)


def find_shift(g: Poly, root: RootOfUnity, avoid: int = 0):
    """Smallest k for which the spectrum x^k * g inverts into F_q(n) and the
    support of x^k * g mod x^n - 1 misses avoid; None when no shift works.

    Coefficient i of that inverse is (1/n) * alpha^(-ik) * g(alpha^(-i)) and
    1/n lies in GF(p), so this is the divisor corollary's condition
    g(alpha^j) * alpha^(jk) in GF(q) for every j.  avoid is an n-bit mask of
    positions in Z_n: certify_equality passes the mask of a*D, the zeros of
    the code seen through a, so that the shifted divisor's word lies in that
    code.  The support test runs first, since it costs no field arithmetic.
    """
    n = root.n
    supp = 0
    for i in g.support():
        supp |= 1 << (i % n)
    for k in range(n):
        if (supp << k | supp >> (n - k)) & avoid:  # x^k * g's support, rotated
            continue
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


def quotient_at_root(factors: FactorList, j: int) -> int:
    """g(alpha^j), packed, for g = (x^n - 1)/h and h the factor of j's coset.

    Read off h, not g: differentiating x^n - 1 = h*g at the root
    beta = alpha^j of h gives n*beta^(n-1) = h'(beta)*g(beta), so
    g(beta) = n*beta^(-1)/h'(beta), one evaluation of degree below deg h.
    h'(beta) != 0, since p does not divide n and x^n - 1 has no repeated
    root.
    """
    root = factors.root
    spec = root.spec
    h_prime = factors.factor_for_coset_rep(j).derivative()
    return spec.mul(spec.mul(root.n % spec.p, root.pow(-j)),
                    spec.inv(h_prime.eval(root.pow(j))))


def congruence_construct(factors: FactorList, j: int):
    """Criterion route: g = (x^n - 1)/h, h the factor of j's coset, at the
    least shift k with g(alpha^j) * alpha^(jk) in GF(q).

    That element lies in GF(q) iff its (q - 1)-th power is 1, i.e. iff
    g(alpha^j)^(q - 1) = alpha^t and (q - 1)*j*k = -t (mod n).  This is the
    closed form of find_shift(factors.quotient([j]), root): g vanishes off
    j's coset, and g(alpha^(Q*j)) = g(alpha^j)^Q for Q = q^d, so j's
    condition is the whole spectrum's.  The route returns None exactly when
    find_shift does, and otherwise builds at find_shift's k.  j stands for
    its coset: Q is a unit mod n, so it scales t and the congruence alike.
    """
    root = factors.root
    q = root.spec.p
    t = root.dlog(root.spec.power(quotient_at_root(factors, j), q - 1))
    k = None if t is None else solve_linear_congruence((q - 1) * j, -t, root.n)
    if k is None:
        return None
    g = factors.quotient([j])
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


def bch_windows(rec: ConstructionRecord):
    """Starts b of the BCH windows the record's code anchors.

    Each maximal run of delta - 1 members of the defining set, delta the
    record's bound, is a window whose coset closure defines the BCH code
    B_q(alpha, delta, b), b the run start.  The window the divisor anchors,
    b = deg(g) + k + 1, comes first, then ascending b.
    """
    code = rec.code
    anchored = (rec.divisor.degree + rec.k + 1) % code.n
    return sorted((b for b, length in cyclic_runs(code.defining_set, code.n)
                   if length == rec.bch_bound - 1),
                  key=lambda b: (b != anchored, b))


def extend_to_bch(rec: ConstructionRecord):
    """Dimensional extension: a record of B_q(alpha, delta, b) for each b
    of bch_windows(rec), in that order, deduplicated by defining set."""
    out = {}
    for b in bch_windows(rec):
        ext = bch_code(rec.code.root, rec.bch_bound, b)
        if ext.defining_set not in out:
            out[ext.defining_set] = ConstructionRecord(
                "extension", ext.generator, b, ext, ext.bch_bound,
                ext.idempotent)
    return list(out.values())
