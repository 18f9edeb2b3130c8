"""Apparent distance, the BCH bound of a code, and equality certificates.

The apparent distance of a vector is its longest cyclic run of zero entries
plus one (runs come from modring.cyclic_runs); maximized over the
representative root changes a in A(n) it gives the BCH bound of the code,
read from the longest runs of the masks of a*D (CyclicCode.longest_runs).
certify_equality searches shifted divisors of x^n - 1, each shift found by
forge.find_shift, for a machine-checkable witness that the minimum distance
actually meets that bound.
"""

from __future__ import annotations

from .codes import CyclicCode
from .forge import find_shift
from .modring import cyclic_runs
from .polyring import Poly, divisor_enumerate, factor_xn
from .records import Record

DEFAULT_DIVISOR_BUDGET = 10 ** 6


def apparent_distance_vec(coeffs) -> int:
    """Longest cyclic run of zeros plus one; 0 for the zero vector."""
    if not any(coeffs):
        return 0
    zeros = (i for i, c in enumerate(coeffs) if not c)
    return max((length for _, length in cyclic_runs(zeros, len(coeffs))),
               default=0) + 1


class ApparentDistanceReport(Record):
    """The BCH bound and the representatives a in A(n) that achieve it."""

    def __init__(self, overall: int, optimal_reps: tuple):
        self.__dict__.update(overall=overall, optimal_reps=optimal_reps)


def code_apparent_distance(code: CyclicCode) -> ApparentDistanceReport:
    """The BCH bound Delta(C) = d*(C), maximized over A(n) root changes.

    Seen through a, the idempotent's spectrum is zero exactly on a*D; a is
    optimal when the longest run of a*D has Delta - 1 members.
    """
    overall = code.bch_bound
    optimal = tuple(a for a, length in code.longest_runs.items()
                    if length + 1 == overall)
    return ApparentDistanceReport(overall, optimal)


class Certificate(Record):
    """Witness that d(C) = Delta(C): a shifted divisor meeting Corollary terms.

    Over the code's root, shifted_spectrum(divisor, k, root) is rational and
    supported off a*D, a the representative; its idft weighs Delta.
    """

    def __init__(self, divisor: Poly, k: int, representative: int):
        self.__dict__.update(divisor=divisor, k=k, representative=representative)


def certify_equality(code: CyclicCode):
    """Search for (g, k, a) certifying d(C) = Delta(C); None if none exists.

    Divisors g | x^n - 1 over GF(q) of degree n - Delta are scanned; for
    each and every optimal representative a, find_shift looks for the least
    shift k whose shifted support misses a*D and whose shifted spectrum is
    rational over the base field.  The scan visits at most
    DEFAULT_DIVISOR_BUDGET subsets of the factor list of x^n - 1, read at
    each call, and raises BudgetExceeded when they run out first.
    """
    report = code_apparent_distance(code)
    target_deg = code.n - report.overall
    for g, _idxs in divisor_enumerate(factor_xn(code.n, code.root), target_deg,
                                      budget=DEFAULT_DIVISOR_BUDGET):
        for a in report.optimal_reps:
            k = find_shift(g, code.root, code.masks[a])
            if k is not None:
                return Certificate(g, k, a)
    return None
