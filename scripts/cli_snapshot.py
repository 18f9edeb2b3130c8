#!/usr/bin/env python3
"""Print a digest of the CLI's output on every frozen benchmark command.

Each command line of perfbench/jobs.frozen_argvs(), then
``reproduce <table> --emit json`` for every golden table, runs in this
process through bchbound.cli.main.  One line is printed per command: the
sha256 of its stdout, its exit code and the command.  Run it in two
checkouts and diff the outputs to see whether a change moved any byte of
the CLI's answers:

    python3 scripts/cli_snapshot.py > before.txt   # in the first checkout
    python3 scripts/cli_snapshot.py > after.txt    # in the second
    diff before.txt after.txt

Stdlib only.  perfbench/ is only read: no bytecode is cached there.
"""

import contextlib
import hashlib
import io
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import jobs  # noqa: E402
from bchbound import cli  # noqa: E402


def command_lines():
    """The frozen benchmark argvs, then every table's JSON reproduction."""
    return jobs.frozen_argvs() + [["reproduce", table, "--emit", "json"]
                                  for table in jobs.TABLE_IDS]


def digest(argv):
    """(sha256 of stdout, exit code) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), rc


def main():
    for argv in command_lines():
        sha, rc = digest(argv)
        print(sha, rc, " ".join(argv))


if __name__ == "__main__":
    main()
