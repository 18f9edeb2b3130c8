"""Exact minimum distance by a Brouwer-Zimmermann search.

The method is Zimmermann's (1996), as described by Grassl in "Searching for
linear codes with large minimum distance" (2006), specialised to cyclic
codes.  In a cyclic [n, k] code any k cyclically consecutive positions form
an information set, and the systematic generator matrices on those windows
are rotations of one another.  So messages of weight w = 1, 2, ... are
visited on one systematic matrix only: a codeword of weight at most w on
some window has a rotation among the words visited, of the same weight.
Once weight w is done, a codeword lighter than every word seen has weight
at least w + 1 on each of the n windows, and each position lies in k of
them, so its weight is at least ceil(n (w + 1) / k).  The search starts
from the proven lower bound Delta(C), the maximum BCH bound, and stops
when its lower bound meets the lightest word seen.  For q > 2 the first
nonzero message symbol is fixed to 1, since scalar multiples have the
same weight.

Binary rows and words are packed ints (rows by shift-and-XOR, words by XOR,
weights by bit_count); odd q uses the int lists of generator_rows.
"""

from __future__ import annotations

from itertools import repeat

from .codes import CyclicCode
from .records import Record

DEFAULT_CAP = 1 << 30

# No compiled kernel is left; perfbench's worker still imports the flag.
HAVE_COMPILED_KERNEL = False


class DistanceResult(Record):
    def __init__(self, distance: int, witness: tuple, enumerated: int,
                 lower_bound: int, bch_bound: int):
        # distance is the weight of the witness, an upper bound on d; the
        # witness is a coefficient vector over GF(q), length n; enumerated
        # counts messages visited; bch_bound is the proven lower bound the
        # search started from
        self.__dict__.update(distance=distance, witness=witness,
                             enumerated=enumerated, lower_bound=lower_bound,
                             bch_bound=bch_bound)

    @property
    def exhaustive(self):
        """d is proven: the lower bound meets the witness's weight."""
        return self.lower_bound == self.distance


def generator_rows(code: CyclicCode):
    """Systematic generator rows as prime-field int vectors.

    Row i is x^(n-k+i) - (x^(n-k+i) mod g): its only nonzero symbol among
    the k information positions n-k, ..., n-1 is a 1 at n-k+i.
    """
    n, k, q = code.n, code.dimension, code.q
    r = n - k
    tail = code.generator.int_coeffs()[:r]  # g is monic: x^r = -tail mod g
    rem = [-c % q for c in tail]  # x^r mod g
    rows = []
    for i in range(k):
        row = [-c % q for c in rem] + [0] * k
        row[r + i] = 1
        rows.append(row)
        if r:  # rem <- x * rem mod g
            top = rem[-1]
            rem = [(a - top * t) % q for a, t in zip([0] + rem[:-1], tail)]
    return rows


def _binary_rows(code: CyclicCode):
    """generator_rows(code) for q = 2, each row packed little-endian; rem =
    x^(r+i) mod g steps to x * rem mod g by a shift and a XOR with g."""
    r = code.n - code.dimension
    g = sum(c << j for j, c in enumerate(code.generator.coeffs))
    rem, rows = g ^ (1 << r), []  # x^r mod g: g is monic of degree r
    for i in range(code.dimension):
        rows.append(rem | (1 << (r + i)))
        rem <<= 1
        if rem >> r:
            rem ^= g
    return rows


def min_distance(code: CyclicCode, cap: int = DEFAULT_CAP) -> DistanceResult:
    """d(C) by visiting messages in order of weight until the bounds meet.

    The search starts from the proven lower bound Delta(C), the maximum BCH
    bound (bch_bound in the result), so it ends once it finds a word of
    that weight.  cap bounds the messages visited.  When it runs out first,
    distance is the lightest weight seen and lower_bound what was proven so
    far (exhaustive=False).
    """
    return _search(code, cap, code.bch_bound)


def _search(code: CyclicCode, cap: int, proven: int) -> DistanceResult:
    """The search from a proven lower bound on d; proven = 0 searches blind."""
    n, k, q = code.n, code.dimension, code.q
    if cap < 1:
        raise ValueError("cap must be >= 1")
    step = q - 1  # row i times 1, ..., q - 1 is mults[step*i:step*i + step]
    if q == 2:
        mults = _binary_rows(code)
        zero, add, weight = 0, int.__xor__, int.bit_count
    else:
        mults = [[c * a % q for a in row] for row in generator_rows(code)
                 for c in range(1, q)]
        zero = [0] * n
        add = lambda u, v: [(a + b) % q for a, b in zip(u, v)]
        weight = lambda u: n - u.count(0)
    best, word, visited = n + 1, None, 0
    lower = max(proven, -(-n // k))  # a nonzero codeword meets every window

    def visit(acc, tail):
        """Weigh acc + v for each v in tail; False once the search is over."""
        nonlocal best, word, visited
        tail = tail[:cap - visited]
        visited += len(tail)
        weights = list(map(weight, map(add, repeat(acc), tail)))
        low = min(weights)
        if low < best:
            best, word = low, add(acc, tail[weights.index(low)])
        return best > lower and visited < cap

    def walk(acc, start, depth):
        """Visit acc plus every sum of depth more row multiples from start."""
        if depth == 1:
            return visit(acc, mults[step * start:])
        for i in range(start, k - depth + 1):
            for v in mults[step * i:step * i + step]:
                if not walk(add(acc, v), i + 1, depth - 1):
                    return False
        return True

    for w in range(1, k + 1):
        if w == 1:  # the first symbol of a message is 1
            going = visit(zero, mults[::step])
        else:
            going = all(walk(mults[step * i], i + 1, w - 1)
                        for i in range(k - w + 1))
        if not going:
            break
        lower = max(lower, -(-n * (w + 1) // k))
        if best <= lower:
            break
    if best <= lower:
        lower = best
    if q == 2:
        word = [(word >> i) & 1 for i in range(n)]
    return DistanceResult(best, tuple(word), visited, lower, proven)

