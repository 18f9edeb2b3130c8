"""Command line front end: analysis, construction, distance, reproduction.

Exit codes: 0 success, 1 reproduction mismatch, 2 usage error,
3 computational error.  Output cut off by a closed pipe (``| head``) ends
quietly with the exit code of success.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import tables
from .bounds import certify_equality, code_apparent_distance
from .codes import bose_distance, code_from_defining_set
from .errors import BchboundError
from .forge import (
    congruence_construct,
    construct_from_quotient,
    extend_to_bch,
    primitive_family,
)
from .galois import (
    MAX_FIELD_ORDER,
    build_field,
    exceeds_field_cap,
    is_prime,
    nth_root,
    root_from_x,
)
from .modring import (
    MAX_N,
    coset_closure,
    cyclotomic_cosets,
    multiplicative_order,
)
from .polyring import Poly, factor_xn
from .wtdist import DEFAULT_CAP, min_distance

EXIT_OK, EXIT_MISMATCH, EXIT_USAGE, EXIT_COMPUTE = 0, 1, 2, 3


def _check_args(args):
    """Reject a bad --n, --q, --subfield or --cap before any work starts."""
    n, q = getattr(args, "n", None), getattr(args, "q", None)
    if q is not None and not (q <= MAX_FIELD_ORDER and is_prime(q)):
        raise argparse.ArgumentTypeError(
            f"--q must be a prime at most {MAX_FIELD_ORDER}, not {q}")
    if n is not None and not 1 <= n <= MAX_N:
        raise argparse.ArgumentTypeError(f"--n must lie in 1..{MAX_N}, not {n}")
    if n is not None and math.gcd(n, q) != 1:
        raise argparse.ArgumentTypeError(f"--n {n} and --q {q} must be coprime")
    if getattr(args, "subfield", 1) < 1:
        raise argparse.ArgumentTypeError(
            f"--subfield must be a positive degree, not {args.subfield}")
    if getattr(args, "cap", 1) < 1:
        raise argparse.ArgumentTypeError(
            f"--cap must be a positive number of combinations, not {args.cap}")


def _parse_field_poly(text, q):
    """Coefficients of --field-poly: terms e (coefficient 1) or e:c."""
    terms = {}
    try:
        for term in text.split(","):
            e, colon, c = term.partition(":")
            e, c = int(e), int(c) if colon else 1
            if terms.setdefault(e, c) != c:
                raise argparse.ArgumentTypeError(
                    f"--field-poly gives x^{e} two coefficients")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad field polynomial {text!r}")
    for e, c in sorted(terms.items()):
        if not 1 <= c < q:
            raise argparse.ArgumentTypeError(
                f"--field-poly coefficient {c} of x^{e} is outside 1..{q - 1}")
    m = max(terms)
    if min(terms) != 0:
        raise argparse.ArgumentTypeError(
            "field polynomial needs a constant term (exponent 0)")
    if m < 1:
        raise argparse.ArgumentTypeError(
            f"--field-poly has degree m = {m}; the splitting field needs m >= 1")
    if exceeds_field_cap(q, m):
        raise argparse.ArgumentTypeError(
            f"--field-poly has degree m = {m}, and q^m = {q}^{m} "
            f"exceeds the field-order cap {MAX_FIELD_ORDER}")
    coeffs = [0] * (m + 1)
    for e, c in terms.items():
        coeffs[e] = c
    return tuple(coeffs)


def _make_root(n, q, field_poly=None):
    """Primitive n-th root plus the "field_poly" and "alpha" keys of a record.

    A user modulus shows as terms in both keys.  A default modulus keeps the
    bare exponent list its records have always had.
    """
    if field_poly is not None:
        m = len(field_poly) - 1
        if pow(q, m, n) != 1 % n:
            raise argparse.ArgumentTypeError(
                f"--field-poly has degree m = {m}, and n = {n} does not "
                f"divide q^m - 1 = {q}^{m} - 1")
        spec = build_field(q, m, field_poly)
        terms = _poly_terms(spec.modulus)
        try:
            root = root_from_x(spec, n)
            return root, {"field_poly": terms, "alpha": {"min_poly": terms}}
        except BchboundError:
            root = nth_root(spec, n)
    else:
        m = multiplicative_order(q, n)
        spec = build_field(q, m)
        root = nth_root(spec, n)
        terms = _poly_exponents(spec.modulus)
    exponent = (spec.order - 1) // n
    return root, {"field_poly": terms,
                  "alpha": {"generator_exponent": exponent}}


def _poly_exponents(coeffs):
    return sorted((i for i, c in enumerate(coeffs) if c), reverse=True)


def _poly_terms(coeffs):
    """Exponents, highest first; a coefficient c other than 1 shows as "e:c"."""
    return [e if coeffs[e] == 1 else f"{e}:{coeffs[e]}"
            for e in _poly_exponents(coeffs)]


def _parse_defining_set(text, n, q):
    body = text
    if text.startswith("coset:"):
        body = text[len("coset:"):]
    try:
        members = [int(t) % n for t in body.split(",") if t.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad defining set {text!r}")
    if text.startswith("coset:"):
        return coset_closure(members, n, q)
    return frozenset(members)


def _parse_coset_list(text):
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad coset list {text!r}")


def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _code_record(code, field_info):
    """The --json record of a code."""
    report = code_apparent_distance(code)
    rec = {
        "n": code.n,
        "q": code.q,
        **field_info,
        "defining_set": sorted(code.defining_set),
        "dimension": code.dimension,
        "generator_poly": code.generator.exponents(),
        "idempotent": sorted(code.idempotent.support()),
        "bch_bound": report.overall,
        "optimal_reps": sorted(report.optimal_reps),
        "bose_distance": bose_distance(code),
    }
    return rec


def _build_code(args):
    root, field_info = _make_root(args.n, args.q, args.field_poly)
    d_set = _parse_defining_set(args.defining_set, args.n, args.q)
    return code_from_defining_set(args.n, args.q, root, d_set), field_info


def cmd_cosets(args):
    part = cyclotomic_cosets(args.n, args.q)
    order = part.order
    payload = {
        "n": args.n,
        "q": args.q,
        "cosets": [list(c) for c in part.cosets],
        "representatives": [c[0] for c in part.cosets],
        "a_set": list(part.a_set),
        "order": order,
    }
    lines = [f"{len(part.cosets)} cosets mod {args.n} under multiplication "
             f"by {args.q} (ord = {order})"]
    lines += [f"  C({c[0]}) = {{{', '.join(map(str, c))}}}" for c in part.cosets]
    lines.append(f"A({args.n}) = {{{', '.join(map(str, part.a_set))}}}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_factor(args):
    root, field_info = _make_root(args.n, args.q, args.field_poly)
    factors = factor_xn(args.n, root, subfield_degree=args.subfield)
    items = [{"coset_rep": min(coset), "coset": sorted(coset),
              "exponents": poly.exponents()}
             for poly, coset in factors.factors]
    payload = {"n": args.n, "q": args.q, **field_info,
               "subfield_degree": args.subfield, "factors": items}
    lines = [f"x^{args.n} - 1 has {len(items)} irreducible factors over "
             f"GF({args.q ** args.subfield})"]
    for item, (poly, _) in zip(items, factors.factors):
        lines.append(f"  C({item['coset_rep']}): {poly}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_analyze(args):
    code, field_info = _build_code(args)
    rec = _code_record(code, field_info)
    lines = [
        f"[{code.n},{code.dimension}] code over GF({code.q})",
        f"defining set: {sorted(code.defining_set)}",
        f"generator:    {code.generator}",
        f"BCH bound:    {rec['bch_bound']} "
        f"(optimal representatives {rec['optimal_reps']})",
        f"Bose distance: {rec['bose_distance']}",
    ]
    if args.certify:
        cert = certify_equality(code)
        if cert is None:
            rec["certificate"] = None
            lines.append("certificate:  none found (d may exceed the bound)")
        else:
            rec["certificate"] = {
                "divisor": cert.divisor.exponents(),
                "k": cert.k,
                "representative": cert.representative,
            }
            lines.append(f"certificate:  divisor of degree "
                         f"{cert.divisor.degree}, shift {cert.k}, "
                         f"representative {cert.representative}")
    _emit(args, rec, lines)
    return EXIT_OK


def cmd_mindist(args):
    code, field_info = _build_code(args)
    rec = _code_record(code, field_info)
    res = min_distance(code, cap=args.cap)
    rec["min_distance"] = res.distance
    rec["exhaustive"] = res.exhaustive
    rec["lower_bound"] = res.lower_bound
    qualifier = ("exact" if res.exhaustive
                 else f"upper bound; d >= {res.lower_bound}")
    lines = [
        f"[{code.n},{code.dimension}] code over GF({code.q})",
        f"minimum distance: {res.distance} ({qualifier}) "
        f"after {res.enumerated} combinations",
        f"BCH bound:        {rec['bch_bound']}",
    ]
    _emit(args, rec, lines)
    return EXIT_OK


def _record_payload(rec, field_info):
    code_rec = _code_record(rec.code, field_info)
    payload = {
        "source": rec.source,
        "divisor": rec.divisor.exponents(),
        "k": rec.k,
        "dimension": rec.dimension,
        "bch_bound": rec.bch_bound,
        "generator_word": sorted(rec.generator_word.support()),
        "verified": rec.verified,
        "code": code_rec,
    }
    if rec.verified:
        payload["min_distance"] = rec.bch_bound
    return payload


def _forge_divisor(args, root):
    factors = factor_xn(args.n, root, subfield_degree=args.subfield)
    if args.quotient is None:
        raise argparse.ArgumentTypeError(
            "--quotient is required for divisor and extend modes")
    removed = []
    for rep in args.quotient:
        f = factors.factor_for_coset_rep(rep)
        if f in removed:  # a usage error, though quotient() divides it once
            raise argparse.ArgumentTypeError(
                f"--quotient names the factor of C({rep % args.n}) twice")
        removed.append(f)
    return construct_from_quotient(factors, args.quotient, args.shift)


def cmd_forge(args):
    root, field_info = _make_root(args.n, args.q, args.field_poly)
    records = []
    if args.mode == "divisor":
        records = [_forge_divisor(args, root)]
    elif args.mode == "extend":
        records = extend_to_bch(_forge_divisor(args, root))
    elif args.mode == "congruence":
        if args.coset is None:
            raise argparse.ArgumentTypeError(
                "--coset is required for congruence mode")
        factors = factor_xn(args.n, root, subfield_degree=args.subfield)
        coset = next(c for _, c in factors.factors if args.coset % args.n in c)
        if args.j is not None and args.j % args.n not in coset:
            raise argparse.ArgumentTypeError(
                f"--j {args.j} is not in the coset of --coset {args.coset}")
        members = [args.j] if args.j is not None else sorted(coset)
        for j in members:
            rec = congruence_construct(factors, j)
            if rec is not None:
                records.append(rec)
                break
    elif args.mode == "primitive":
        m = args.n.bit_length()
        if args.n != (1 << m) - 1 or m < 2 or args.q != 2:
            raise argparse.ArgumentTypeError(
                "primitive mode needs q = 2 and n = 2^m - 1 with m >= 2")
        records = primitive_family(root)
    if args.verify:
        records = [rec.verify() for rec in records]
    payload = {"mode": args.mode,
               "records": [_record_payload(r, field_info) for r in records]}
    lines = [f"{len(records)} construction(s) in {args.mode} mode"]
    for rec in records:
        status = "verified d = bound" if rec.verified else "unverified"
        lines.append(f"  dim {rec.dimension}, bound {rec.bch_bound}, "
                     f"shift {rec.k}, word exponents "
                     f"{sorted(rec.generator_word.support())} [{status}]")
    if not records:
        lines.append("  (the construction hypothesis failed; nothing built)")
    _emit(args, payload, lines)
    return EXIT_OK


def _row_dict(row):
    return {
        "n": row.n, "q": row.q,
        "complement_defining_set": list(row.complement_reps),
        "dimension": row.dimension, "min_distance": row.min_distance,
        "bch_bound": row.bch_bound, "bose_distance": row.bose_distance,
        "flag": row.flag,
    }


def cmd_reproduce(args):
    golden = tables.golden_rows(args.table)
    fresh = tables.recompute(args.table)
    report = sys.stderr if args.emit else sys.stdout
    failures = 0
    for idx, (want, got) in enumerate(zip(golden, fresh)):
        fields = []
        if want.complement_reps != got.complement_reps:
            fields.append(("complement", want.complement_reps,
                           got.complement_reps))
        for name, a, b in zip(("dim", "d", "bound", "bose"),
                              want.values(), got.values()):
            if a != b:
                fields.append((name, a, b))
        if not fields:
            note = f" [{want.flag}]" if want.flag else ""
            print(f"row {idx + 1:2d}: ok   n={want.n} "
                  f"C({','.join(map(str, want.complement_reps))}) "
                  f"dim={want.dimension} d={want.min_distance} "
                  f"bound={want.bch_bound}{note}", file=report)
            continue
        detail = "; ".join(f"{f}: golden {a} vs recomputed {b}"
                           for f, a, b in fields)
        if want.flag == "dup":
            print(f"row {idx + 1:2d}: info (duplicated source row) {detail}",
                  file=report)
        else:
            failures += 1
            print(f"row {idx + 1:2d}: FAIL {detail}", file=report)
    if len(golden) != len(fresh):
        failures += 1
        print(f"row count differs: golden {len(golden)}, "
              f"recomputed {len(fresh)}", file=report)
    print(f"{args.table}: {len(golden)} rows, {failures} mismatch(es)",
          file=report)
    if args.emit == "csv":
        tables.write_csv(fresh, sys.stdout)
    elif args.emit == "json":
        print(json.dumps([_row_dict(r) for r in fresh], indent=2,
                         sort_keys=True))
    return EXIT_MISMATCH if failures else EXIT_OK


def _add_code_args(sub, defining_set=True):
    sub.add_argument("--n", type=int, required=True, help="code length")
    sub.add_argument("--q", type=int, required=True, help="alphabet size")
    sub.add_argument("--field-poly", default=None,
                     help="splitting-field modulus as terms e or e:c "
                          "(coefficient c), e.g. 12,3,0 or 3,1:2,0")
    if defining_set:
        sub.add_argument("--defining-set", required=True,
                         help="explicit list 1,2,4 or coset:a1,a2 shorthand")
    sub.add_argument("--json", action="store_true", help="emit JSON")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bchbound",
        description="Cyclic and BCH codes: BCH bounds, distances, and "
                    "constructions meeting the bound.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("cosets", help="cyclotomic cosets and A(n)")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_cosets)

    sub = subs.add_parser("factor", help="factor x^n - 1 into minimal "
                                         "polynomials")
    _add_code_args(sub, defining_set=False)
    sub.add_argument("--subfield", type=int, default=1,
                     help="factor over GF(q^D) instead of GF(q)")
    sub.set_defaults(func=cmd_factor)

    sub = subs.add_parser("analyze", help="BCH bound, Bose distance, "
                                          "optional equality certificate")
    _add_code_args(sub)
    sub.add_argument("--certify", action="store_true",
                     help="search for a divisor certificate of d = bound")
    sub.set_defaults(func=cmd_analyze)

    sub = subs.add_parser("mindist", help="exact minimum distance")
    _add_code_args(sub)
    sub.add_argument("--cap", type=int, default=DEFAULT_CAP,
                     help="search budget in combinations (messages "
                          "visited)")
    sub.set_defaults(func=cmd_mindist)

    sub = subs.add_parser("forge", help="build codes whose distance meets "
                                        "the BCH bound")
    _add_code_args(sub, defining_set=False)
    sub.add_argument("--mode", required=True,
                     choices=("divisor", "congruence", "primitive", "extend"))
    sub.add_argument("--subfield", type=int, default=1)
    sub.add_argument("--quotient", type=_parse_coset_list,
                     default=None,
                     help="coset reps of the factors removed from x^n - 1")
    sub.add_argument("--shift", type=int, default=None,
                     help="cyclic shift k (default: smallest rational one)")
    sub.add_argument("--coset", type=int, default=None,
                     help="congruence mode: coset rep of the factor h")
    sub.add_argument("--j", type=int, default=None,
                     help="congruence mode: evaluation exponent")
    sub.add_argument("--verify", action="store_true",
                     help="recheck bound and distance")
    sub.set_defaults(func=cmd_forge)

    sub = subs.add_parser("reproduce", help="recompute a reference table "
                                            "and diff it against the golden "
                                            "copy")
    sub.add_argument("table", choices=tables.TABLE_IDS)
    sub.add_argument("--emit", choices=("csv", "json"), default=None,
                     help="write the recomputed table to stdout")
    sub.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        if getattr(args, "field_poly", None) is not None:
            args.field_poly = _parse_field_poly(args.field_poly, args.q)
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        parser.exit(EXIT_USAGE, f"error: {exc}\n")
    except BchboundError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except BrokenPipeError:
        # the reader stopped early; point stdout at devnull so that neither
        # the rest of it nor the interpreter's final flush raises again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
