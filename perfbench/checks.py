"""Answer checks for every job the benchmark runs.

- ``analyze``, ``mindist`` and ``forge`` answers are compared with the values
  frozen in ``expected.json`` (see ``freeze.py``). Long lists (defining
  sets, generator polynomials, idempotents, divisors) are frozen as digests.
- Every certificate, and every record built from a shifted divisor, is also
  checked by its witness: the idft of the shifted divisor is a codeword of
  the code, has prime-field coefficients and has weight exactly the bound.
- ``reproduce`` must report zero mismatches over every golden row.
- A round trip must give back its word; the worker compares the two.

The witness checks import bchbound; everything else is stdlib only.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

GOLDEN_DIR = os.path.join("src", "bchbound", "golden")


def _digest(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def kind_of(argv):
    if argv[0] == "analyze":
        return "certify" if "--certify" in argv else "analyze"
    return argv[0]


def _code_summary(rec):
    out = {key: rec[key] for key in ("n", "q", "dimension", "bch_bound",
                                     "bose_distance", "optimal_reps")}
    out["sets"] = _digest([rec["field_poly"], rec["defining_set"],
                           rec["generator_poly"], rec["idempotent"]])
    return out


def _record_summary(rec):
    out = {key: rec[key] for key in ("source", "k", "dimension", "bch_bound",
                                     "verified")}
    out["min_distance"] = rec.get("min_distance")
    out["words"] = _digest([rec["divisor"], rec["generator_word"],
                            rec["code"]["defining_set"]])
    return out


def summarize(argv, text):
    """The frozen form of a command's JSON output."""
    kind = kind_of(argv)
    payload = json.loads(text)
    if kind == "forge":
        return {"mode": payload["mode"],
                "records": [_record_summary(r) for r in payload["records"]]}
    out = _code_summary(payload)
    if kind == "certify":
        out["certificate"] = payload["certificate"] is not None
    elif kind == "mindist":
        out["min_distance"] = payload["min_distance"]
        out["exhaustive"] = payload.get("exhaustive", True)
    return out


def golden_row_count(table):
    path = os.path.join(GOLDEN_DIR, table.replace("-", "_") + ".csv")
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines()
                 if ln and not ln.startswith("#")]
    return len(lines) - 1  # header


_SUMMARY = re.compile(r"^(\S+): (\d+) rows, (\d+) mismatch\(es\)$")


def reproduce_problem(table, text):
    lines = text.strip().splitlines()
    match = _SUMMARY.match(lines[-1]) if lines else None
    if match is None or match.group(1) != table:
        return "no reproduction summary line"
    rows, mismatches = int(match.group(2)), int(match.group(3))
    if mismatches:
        return f"{mismatches} mismatched row(s)"
    want = golden_row_count(table)
    if rows != want:
        return f"{rows} rows reported, golden table has {want}"
    checked = [ln for ln in lines[:-1] if ln.startswith("row ")]
    if len(checked) != want:
        return f"{len(checked)} row lines for {want} golden rows"
    bad = [ln for ln in checked if not re.match(r"row +\d+: (ok |info )", ln)]
    if bad:
        return f"row not ok: {bad[0]}"
    return None


class WitnessChecker:
    """Witness checks, memoized per distinct output within one run."""

    def __init__(self):
        self._done = {}

    def certificate_problem(self, rec):
        cert = rec["certificate"]
        return self._memo(("cert", _digest(rec)), lambda: witness_problem(
            rec["n"], rec["q"], rec["defining_set"], rec["bch_bound"],
            cert["divisor"], cert["k"], cert["representative"]))

    def record_problem(self, rec):
        if rec["source"] == "extension":  # its word is the idempotent
            return None
        code = rec["code"]
        return self._memo(("record", _digest(rec)), lambda: witness_problem(
            code["n"], code["q"], code["defining_set"], rec["bch_bound"],
            rec["divisor"], rec["k"], 1, rec["generator_word"]))

    def _memo(self, key, compute):
        if key not in self._done:
            self._done[key] = compute()
        return self._done[key]


def _cli_root(n, q):
    """The root the CLI uses: default modulus, generator power."""
    from bchbound.galois import build_field, nth_root
    from bchbound.modring import multiplicative_order

    return nth_root(build_field(q, multiplicative_order(q, n)), n)


def _divisors_with_support(root, n, q, support):
    """Monic divisors of x^n - 1 over GF(q) with exactly this support."""
    from bchbound.polyring import Poly, divisor_enumerate, factor_xn

    support = frozenset(support)
    degree = max(support)
    if q == 2:
        yield Poly.from_ints(root.spec, [int(i in support)
                                         for i in range(degree + 1)])
        return
    for g, _roots in divisor_enumerate(factor_xn(n, root), target_degree=degree):
        if g.support() == support:
            yield g


def witness_problem(n, q, defining_set, delta, divisor, k, a=1,
                    word_support=None):
    """None when some divisor with this support is a valid witness.

    The word c = idft(x^k g) must have prime-field coefficients and weight
    delta, and c(x^a), which undoes the root change of representative a,
    must be a codeword of the code with the given defining set.
    """
    from bchbound.codes import code_from_defining_set
    from bchbound.errors import CoefficientLeak
    from bchbound.polyring import QuotientPoly, cyclic_shift
    from bchbound.spectral import Spectrum, idft

    root = _cli_root(n, q)
    code = code_from_defining_set(n, q, root, defining_set)
    problem = "no divisor of x^n - 1 has the certificate's support"
    for g in _divisors_with_support(root, n, q, divisor):
        f = cyclic_shift(QuotientPoly.from_poly(g, n), k)
        word = idft(Spectrum(n, root, f.coeffs))
        try:
            coeffs = word.int_coeffs()
        except CoefficientLeak:
            problem = "witness has coefficients outside GF(q)"
            continue
        weight = sum(1 for c in coeffs if c)
        if weight != delta:
            problem = f"witness weight {weight}, bound {delta}"
            continue
        if word_support is not None and word.support() != set(word_support):
            problem = "witness differs from the reported generator word"
            continue
        permuted = [0] * n
        for i, c in enumerate(coeffs):
            permuted[a * i % n] = c
        if not code.contains(QuotientPoly.from_ints(root.spec, n, permuted)):
            problem = "witness is not a codeword"
            continue
        return None
    return problem


def job_problem(job, result, expected, witnesses):
    """None when the job's answer is right, else what is wrong with it."""
    if result.get("rc") != 0:
        tail = result.get("err", "").strip().splitlines()[-1:]
        return f"exit code {result.get('rc')}" + (f": {tail[0]}" if tail else "")
    if job["kind"] == "roundtrip":
        return None if result["ok"] else "idft(dft(w)) != w"
    argv = job["argv"]
    if argv[0] == "reproduce":
        return reproduce_problem(argv[1], result["out"])
    key = " ".join(argv)
    if key not in expected:
        return "no frozen answer"
    try:
        got = summarize(argv, result["out"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    if got != expected[key]:
        diff = sorted(f for f in set(got) | set(expected[key])
                      if got.get(f) != expected[key].get(f))
        return f"answer differs from the frozen one in {', '.join(diff)}"
    payload = json.loads(result["out"])
    if kind_of(argv) == "certify" and payload["certificate"] is not None:
        return witnesses.certificate_problem(payload)
    if argv[0] == "forge":
        for rec in payload["records"]:
            problem = witnesses.record_problem(rec)
            if problem:
                return problem
    return None
