"""Freeze the answers of every pooled job into perfbench/expected.json.

Runs each command line the job pools can produce through bchbound.cli.main,
checks certificates and divisor-built records by their witnesses, and
writes the summaries that checks.summarize makes. Rerun it only when a
pool changes or a documented fix changes an answer; the benchmark then
compares every later commit with these values.

Usage (from the repository root): python3 perfbench/freeze.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import jobs  # noqa: E402

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")


def main():
    from bchbound import cli

    expected = {}
    witnesses = checks.WitnessChecker()
    for argv in jobs.frozen_argvs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        if rc != 0:
            sys.exit(f"{' '.join(argv)}: exit code {rc}")
        key = " ".join(argv)
        expected[key] = checks.summarize(argv, out.getvalue())
        job = {"kind": checks.kind_of(argv), "argv": argv}
        problem = checks.job_problem(job, {"rc": 0, "out": out.getvalue()},
                                     expected, witnesses)
        if problem:
            sys.exit(f"{key}: {problem}")
        print(key, file=sys.stderr)
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
