"""Run one job list in a fresh process, the way a bchbound user would.

Reads the job list (JSON) on stdin and writes one JSON result on stdout:
the set-up time, each job's exit code, time and captured output, the
summed job time, the peak resident memory and, when traced, the span
summary. Times are given in plain seconds and in reference seconds
(``scaled``), measured with machine-speed probes (calib.py). Run from the
checkout root; bchbound is imported from ``src/``.

Usage: python3 perfbench/worker.py [--trace 0|1] [--spans PATH]
       [--setup-only] < jobs.json
"""

from __future__ import annotations

import time

STARTED = time.monotonic()  # noqa: E402 (set-up is timed from here)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calib  # noqa: E402


def _code_params(job, tables):
    """(n, q) pairs whose field and root the job uses."""
    if job["kind"] == "roundtrip":
        return [(job["n"], job["q"])]
    argv = job["argv"]
    if argv[0] == "reproduce":
        return sorted({(row.n, row.q) for row in tables.golden_rows(argv[1])})
    return [(int(argv[argv.index("--n") + 1]), int(argv[argv.index("--q") + 1]))]


def set_up(jobs):
    """Import bchbound and build every field and root the jobs use."""
    from bchbound import cli, galois, modring, polyring, spectral, tables

    roots = {}
    for job in jobs:
        for n, q in _code_params(job, tables):
            if (n, q) not in roots:
                spec = galois.build_field(q, modring.multiplicative_order(q, n))
                roots[n, q] = galois.nth_root(spec, n)
    return cli, polyring, spectral, roots


def _cli_job(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed job, not a failed benchmark
        rc = None
        err.write(traceback.format_exc())
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def _roundtrip_job(spectral, w, root):
    try:
        back = spectral.idft(spectral.dft(w, root))
    except Exception:
        return {"rc": None, "ok": False, "err": traceback.format_exc()}
    return {"rc": 0, "ok": back.coeffs == w.coeffs}


def run_job(meter, job, cli, polyring, spectral, roots):
    if job["kind"] == "roundtrip":
        root = roots[job["n"], job["q"]]
        w = polyring.QuotientPoly.from_ints(root.spec, root.n, job["word"])
        result, plain, ref = meter.measure(_roundtrip_job, spectral, w, root)
    else:
        result, plain, ref = meter.measure(_cli_job, cli, job["argv"])
    result.update(elapsed=plain, scaled=ref)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="write the raw spans here as TSV (traced runs)")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up (extra set-up samples)")
    args = parser.parse_args()
    jobs = json.load(sys.stdin)
    # set-up starts at STARTED; the part before the meter is warm is timed
    # by the parent, which has a probe time to scale it with
    ready = time.monotonic()
    meter = calib.Meter(sample=not args.trace)
    (cli, polyring, spectral, roots), plain, ref = meter.measure(set_up, jobs)
    setup = {"started": STARTED, "ready": ready, "setup_plain_s": plain,
             "setup_ref_s": ref}
    if args.setup_only:
        json.dump(setup, sys.stdout)
        return
    from bchbound.wtdist import HAVE_COMPILED_KERNEL

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    results = []
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.current_job = idx
        results.append(run_job(meter, job, cli, polyring, spectral, roots))
    wall = sum(r["elapsed"] for r in results)
    trace = None
    if tracer is not None:
        trace = tracer.summary()
        if args.spans:
            tracer.write_tsv(args.spans)
    json.dump({**setup, "wall_s": wall, "jobs": results,
               "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               "compiled_kernel": HAVE_COMPILED_KERNEL, "trace": trace},
              sys.stdout)


if __name__ == "__main__":
    main()
