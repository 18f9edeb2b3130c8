"""Fuzz the command line: every input either works or fails by contract.

Commands run in-process through ``cli.main``.  An exception other than
SystemExit is what the ``bchbound`` command would print as a traceback, so
it fails the test; the exit code must be 0, 2 (usage) or 3 (computation).
The examples are derandomized, so the suite sees the same inputs each run.
The parser of the named command alone must parse each input as the full
parser does.
"""

import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bchbound import cli

_ints = st.integers(-70, 140).map(str)
_junk = st.text(alphabet="0123456789,:- xcoset", max_size=8)


def _int_list(prefix=""):
    return st.lists(_ints, min_size=1, max_size=4).map(
        lambda xs: prefix + ",".join(xs))


# well-formed strings outnumber malformed ones, so that most inputs get
# past argument checking and into the computation
_defining_sets = st.one_of(_int_list("coset:"), _int_list(), _junk,
                           st.sampled_from(("", "coset:")))
_quotients = st.one_of(_int_list(), _int_list(), _junk)
_cosets = st.one_of(_ints, _ints, _junk)
_subfields = st.one_of(st.integers(-1, 6).map(str), _junk)
_field_polys = st.one_of(
    st.lists(st.integers(0, 8), min_size=1, max_size=4).map(
        lambda es: ",".join(map(str, sorted(set(es) | {0}, reverse=True)))),
    # e:c terms with c in 0..3: in range and out of range over GF(3), and
    # now and then one exponent with two coefficients
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 3)), min_size=1,
             max_size=4).map(lambda ts: ",".join(
                 f"{e}:{c}" for e, c in sorted(ts, reverse=True)) + ",0:1"),
    st.sampled_from(("0", "0:2")),  # degree 0
    _junk)
# q from -1..7, drawn from the primes half of the time
_qs = st.one_of(st.sampled_from((2, 3, 5, 7)), st.integers(-1, 7))

# the forge options each mode reads; primitive reads none of them and only
# the default --subfield 1
_FORGE_OPTIONS = {"quotient": _quotients, "shift": _ints, "coset": _cosets,
                  "j": st.integers(-2, 8).map(str), "subfield": _subfields}
_FORGE_READS = {"divisor": ("quotient", "shift", "subfield"),
                "extend": ("quotient", "shift", "subfield"),
                "congruence": ("coset", "j", "subfield"),
                "primitive": ()}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(
        ("cosets", "factor", "analyze", "mindist")
        + tuple(f"forge:{mode}" for mode in _FORGE_READS)))
    n = draw(st.integers(-2, 64))
    q = draw(_qs)
    name, _, mode = command.partition(":")
    argv = [name, f"--n={n}", f"--q={q}"]
    if name in ("analyze", "mindist"):
        argv.append(f"--defining-set={draw(_defining_sets)}")
    if name == "mindist":
        argv.append("--cap=1000")
    if name == "forge":
        argv.append(f"--mode={mode}")
        # a mode's own options half of the time, an option it does not read
        # (a usage error) one time in eight, so most inputs reach the work
        for option, values in _FORGE_OPTIONS.items():
            if (draw(st.booleans()) if option in _FORGE_READS[mode]
                    else draw(st.integers(0, 7)) == 0):
                argv.append(f"--{option}={draw(values)}")
    if name == "factor" and draw(st.booleans()):
        argv.append(f"--subfield={draw(_subfields)}")
    if name != "cosets" and draw(st.integers(0, 3)) == 0:
        argv.append(f"--field-poly={draw(_field_polys)}")
    return argv


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_argv())
@example(argv=["forge", "--n=1", "--q=2", "--mode=primitive"])
@example(argv=["analyze", "--n=13", "--q=3", "--field-poly=1,0",
               "--defining-set=coset:1"])
@example(argv=["factor", "--n=1", "--q=2", "--field-poly=89,38,0"])
@example(argv=["factor", "--n=1", "--q=2", "--field-poly=0"])
@example(argv=["analyze", "--n=13", "--q=3", "--field-poly=3,1:2,0:2",
               "--defining-set=coset:1"])
def test_cli_exits_by_contract(argv):
    assert _exit_code(argv) in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_COMPUTE)


def _parsed(parser, argv):
    """The Namespace parser gives argv, or its usage error's code and text."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            return parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code, err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_argv())
@example(argv=["reproduce", "n45", "--emit=json"])
@example(argv=["forge", "--n=15", "--q=2", "--mode=divisor", "--quotient=5",
               "--shift=1", "--verify"])
def test_command_parser_parses_as_the_full_tree(argv):
    assert (_parsed(cli.build_parser(argv[0]), argv)
            == _parsed(cli.build_parser(), argv))
