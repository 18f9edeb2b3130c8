"""Apparent distance, the BCH bound of a code, and equality certificates.

The apparent distance of a vector is its longest cyclic run of zero entries
plus one; maximized over the representative root changes a in A(n) it gives
the BCH bound of the code (runs come from modring.cyclic_runs).
certify_equality searches shifted divisors of x^n - 1, tested by
spectral.is_rational, for a machine-checkable witness that the minimum
distance actually meets that bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import CyclicCode
from .galois import RootOfUnity
from .modring import cyclic_runs
from .polyring import Poly, divisor_enumerate, factor_xn
from .spectral import Spectrum, is_rational, shifted_spectrum

DEFAULT_DIVISOR_BUDGET = 10 ** 6


def apparent_distance_vec(coeffs) -> int:
    """Longest cyclic run of zeros plus one; 0 for the zero vector."""
    if not any(coeffs):
        return 0
    zeros = (i for i, c in enumerate(coeffs) if not c)
    return max((length for _, length in cyclic_runs(zeros, len(coeffs))),
               default=0) + 1


@dataclass(frozen=True)
class ApparentDistanceReport:
    """The BCH bound and the representatives a in A(n) that achieve it."""

    overall: int
    optimal_reps: tuple


def code_apparent_distance(code: CyclicCode) -> ApparentDistanceReport:
    """The BCH bound Delta(C) = d*(C), maximized over A(n) root changes.

    Seen through a, the idempotent's spectrum is zero exactly on a*D; a is
    optimal when the longest run of a*D has Delta - 1 members.
    """
    overall = code.bch_bound
    optimal = tuple(
        a for a, runs in code.runs.items()
        if max((length for _, length in runs), default=0) + 1 == overall)
    return ApparentDistanceReport(overall, optimal)


@dataclass(frozen=True)
class Certificate:
    """Witness that d(C) = Delta(C): a shifted divisor meeting Corollary terms."""

    divisor: Poly
    k: int
    representative: int
    root: RootOfUnity  # the root the code and the divisor's n belong to

    def codeword_spectrum(self) -> Spectrum:
        """x^k * g mod x^n - 1, read as a spectrum over the root; rational,
        and supported off a*D for the certificate's representative a."""
        return shifted_spectrum(self.divisor, self.k, self.root)


def certify_equality(code: CyclicCode, budget: int = DEFAULT_DIVISOR_BUDGET):
    """Search for (g, k, a) certifying d(C) = Delta(C); None if none exists.

    Divisors g | x^n - 1 over GF(q) of degree n - Delta are scanned; for
    each, every optimal representative a and every shift k is checked for
    a shifted support disjoint from a*D and base-field rationality of the
    shifted spectrum.  budget bounds the subsets of the factor list of
    x^n - 1 that the scan visits; BudgetExceeded is raised when it runs out
    before the scan is finished.
    """
    report = code_apparent_distance(code)
    target_deg = code.n - report.overall
    for g, _idxs in divisor_enumerate(factor_xn(code.n, code.root), target_deg,
                                      budget=budget):
        cert = _check_divisor(code, g, report.optimal_reps)
        if cert is not None:
            return cert
    return None


def _check_divisor(code: CyclicCode, g: Poly, reps):
    n = code.n
    supp = sorted(g.support())
    for a in reps:
        image = code.images[a]
        for k in range(n):
            if not image.isdisjoint([(i + k) % n for i in supp]):
                continue
            if is_rational(shifted_spectrum(g, k, code.root)):
                return Certificate(g, k, a, code.root)
    return None
