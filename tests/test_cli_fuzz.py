"""Fuzz the command line: every input either works or fails by contract.

Commands run in-process through ``cli.main``.  An exception other than
SystemExit is what the ``bchbound`` command would print as a traceback, so
it fails the test; the exit code must be 0, 2 (usage) or 3 (computation),
and 2 when a long option is cut short, since none may be abbreviated.
The examples are derandomized, so the suite sees the same inputs each run.
The parser of the named command alone must parse each input as the full
parser does.
"""

import contextlib
import io
import math

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
# forge draws its (n, q) from these seven times in eight, so that most forge
# inputs pass the --n, --q and coprimality checks and reach a route;
# primitive mode takes only the binary primitive lengths 2^m - 1, m >= 2
_coprime_pairs = st.sampled_from([(n, q) for q in (2, 3, 5, 7)
                                  for n in range(1, 65) if math.gcd(n, q) == 1])
_primitive_lengths = st.sampled_from([((1 << m) - 1, 2) for m in range(2, 7)])

# a forge option's value is well formed three times in four: residues below
# 64 for the cosets it names, a subfield degree of 1 or 2
_residues = st.integers(0, 63).map(str)
_reps = st.lists(_residues, min_size=1, max_size=2, unique=True).map(",".join)
_degrees = st.sampled_from(("1", "2"))

# values of the forge options; cli.FORGE_READS says which mode reads which
_FORGE_OPTIONS = {
    "quotient": st.one_of(_reps, _reps, _reps, _quotients),
    "shift": _ints,
    "coset": st.one_of(_residues, _residues, _residues, _cosets),
    "subfield": st.one_of(_degrees, _degrees, _degrees, _subfields)}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(
        ("cosets", "factor", "analyze", "mindist")
        + tuple(f"forge:{mode}" for mode in cli.FORGE_READS)))
    name, _, mode = command.partition(":")
    if name == "forge" and draw(st.integers(0, 7)):
        n, q = draw(_primitive_lengths if mode == "primitive"
                    else _coprime_pairs)
    else:
        n, q = draw(st.integers(-2, 64)), draw(_qs)
    argv = [name, f"--n={n}", f"--q={q}"]
    if name in ("analyze", "mindist"):
        argv.append(f"--defining-set={draw(_defining_sets)}")
    if name == "mindist":
        argv.append("--cap=1000")
    if name == "forge":
        argv.append(f"--mode={mode}")
        # the option the route needs seven times in eight, the mode's other
        # options half of the time, and one option it does not read (a usage
        # error) one time in eight, so most inputs reach the work
        reads = cli.FORGE_READS[mode]
        options = [o for o in reads[1:] if draw(st.booleans())]
        if reads and draw(st.integers(0, 7)):
            options.insert(0, reads[0])
        if draw(st.integers(0, 7)) == 0:
            options.append(draw(st.sampled_from(
                [o for o in _FORGE_OPTIONS if o not in reads])))
        for option in options:
            argv.append(f"--{option}={draw(_FORGE_OPTIONS[option])}")
    if name == "factor" and draw(st.booleans()):
        argv.append(f"--subfield={draw(_subfields)}")
    if name != "cosets" and draw(st.integers(0, 3)) == 0:
        argv.append(f"--field-poly={draw(_field_polys)}")
    return argv


def _prefixes(option):
    """The strict prefixes of a long option that name no other option: "--"
    and one letter or more, but not --n or --q (--q begins --quotient)."""
    if not option.startswith("--"):
        return []
    return [option[:i] for i in range(3, len(option))
            if option[:i] not in ("--n", "--q")]


@st.composite
def _cases(draw):
    """An argv, and whether one of its long options is cut short to a strict
    prefix (one time in eight), which must be a usage error."""
    argv = draw(_argv())
    cut = [i for i, arg in enumerate(argv) if _prefixes(arg.partition("=")[0])]
    if not cut or draw(st.integers(0, 7)):
        return argv, False
    i = draw(st.sampled_from(cut))
    option, eq, value = argv[i].partition("=")
    argv[i] = draw(st.sampled_from(_prefixes(option))) + eq + value
    return argv, True


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_cases())
@example(case=(["forge", "--n=1", "--q=2", "--mode=primitive"], False))
@example(case=(["analyze", "--n=13", "--q=3", "--field-poly=1,0",
                "--defining-set=coset:1"], False))
@example(case=(["factor", "--n=1", "--q=2", "--field-poly=89,38,0"], False))
@example(case=(["factor", "--n=1", "--q=2", "--field-poly=0"], False))
@example(case=(["analyze", "--n=13", "--q=3", "--field-poly=3,1:2,0:2",
                "--defining-set=coset:1"], False))
@example(case=(["forge", "--n=15", "--q=2", "--mode=congruence", "--coset=3",
                "--j"], True))
def test_cli_exits_by_contract(case):
    argv, cut = case
    if cut:
        assert _exit_code(argv) == cli.EXIT_USAGE
    else:
        assert _exit_code(argv) in (cli.EXIT_OK, cli.EXIT_USAGE,
                                    cli.EXIT_COMPUTE)


def _parsed(parser, argv):
    """The Namespace parser gives argv, or its usage error's code and text."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            return parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code, err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_cases().map(lambda case: case[0]))
@example(argv=["reproduce", "n45", "--emit=json"])
@example(argv=["forge", "--n=15", "--q=2", "--mode=divisor", "--quotient=5",
               "--shift=1", "--verify"])
def test_command_parser_parses_as_the_full_tree(argv):
    assert (_parsed(cli.build_parser(argv[0]), argv)
            == _parsed(cli.build_parser(), argv))
