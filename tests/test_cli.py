import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from bchbound import cli, tables
from bchbound.records import replace


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cosets_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "cosets", "--n", "21", "--q", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["a_set"] == [1, 5]
    assert payload["order"] == 6
    assert payload["representatives"] == [0, 1, 3, 5, 7, 9]
    # parse -> re-emit -> byte equality
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out


def test_closed_pipe_ends_quietly():
    # a reader that stops after one line, like `| head -1`, is no error
    src = pathlib.Path(cli.__file__).parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "bchbound.cli", "cosets", "--n", "65535",
         "--q", "2", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (cli.EXIT_OK, b"")


def test_factor_text(capsys):
    code, out, _ = run_cli(capsys, "factor", "--n", "15", "--q", "2",
                           "--field-poly", "4,1,0")
    assert code == 0
    assert "5 irreducible factors" in out


def test_factor_json_echoes_field_poly(capsys):
    code, out, _ = run_cli(capsys, "factor", "--n", "15", "--q", "2",
                           "--field-poly", "4,1,0", "--json")
    payload = json.loads(out)
    assert payload["field_poly"] == [4, 1, 0]
    assert payload["alpha"] == {"min_poly": [4, 1, 0]}
    assert len(payload["factors"]) == 5


def test_field_poly_takes_coefficients(capsys):
    # x^3 + 2x + 2 over GF(3): x-bar has order 13, so it is the root, and
    # its field's tables are walked from a generator other than x-bar
    code, out, _ = run_cli(capsys, "analyze", "--n", "13", "--q", "3",
                           "--field-poly", "3,1:2,0:2",
                           "--defining-set", "coset:1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == {"min_poly": [3, "1:2", "0:2"]}
    assert payload["field_poly"] == [3, "1:2", "0:2"]
    assert payload["dimension"] == 10
    code, out, _ = run_cli(capsys, "factor", "--n", "13", "--q", "3",
                           "--field-poly", "3,1:2,0:2", "--json")
    payload = json.loads(out)
    assert payload["field_poly"] == payload["alpha"]["min_poly"]
    # x^3 + 2x + 1 is primitive: x-bar has order 26
    code, out, _ = run_cli(capsys, "factor", "--n", "26", "--q", "3",
                           "--field-poly", "3,1:2,0", "--json")
    # 2x^3 + x + 2 is 2 * (x^3 + 2x + 1), and is made monic
    assert run_cli(capsys, "factor", "--n", "26", "--q", "3", "--field-poly",
                   "3:2,1,0:2", "--json") == (code, out, "")
    payload = json.loads(out)
    assert payload["alpha"] == {"min_poly": [3, "1:2", 0]}
    assert payload["field_poly"] == [3, "1:2", 0]
    # that is GF(3^3)'s default modulus, whose record keeps the bare
    # exponent list it has always had
    code, out, _ = run_cli(capsys, "factor", "--n", "26", "--q", "3",
                           "--json")
    assert json.loads(out)["field_poly"] == [3, 1, 0]
    # x-bar of x^4 + x + 2 has order 80, not 5, so another root is taken
    code, out, _ = run_cli(capsys, "factor", "--n", "5", "--q", "3",
                           "--field-poly", "4,1,0:2", "--json")
    payload = json.loads(out)
    assert "min_poly" not in payload["alpha"]
    assert payload["field_poly"] == [4, 1, "0:2"]
    # a coefficient 1 may be written either way
    code, out, _ = run_cli(capsys, "factor", "--n", "15", "--q", "2",
                           "--field-poly", "4:1,1,0:1", "--json")
    assert json.loads(out)["alpha"] == {"min_poly": [4, 1, 0]}


def test_analyze_remark_n41(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--n", "41", "--q", "2",
                           "--defining-set", "coset:1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bch_bound"] == 6
    assert payload["optimal_reps"] == [3]
    assert payload["dimension"] == 21


def test_analyze_certify(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--n", "21", "--q", "2",
                           "--defining-set", "coset:1,3,7", "--certify",
                           "--json")
    payload = json.loads(out)
    assert payload["bch_bound"] == 5
    assert payload["bose_distance"] == 4
    assert payload["certificate"] is not None


def test_analyze_rejects_open_set(capsys):
    code, _, err = run_cli(capsys, "analyze", "--n", "21", "--q", "2",
                           "--defining-set", "1,2")
    assert code == cli.EXIT_COMPUTE
    assert "NotCosetClosed" in err


def test_mindist(capsys):
    code, out, _ = run_cli(capsys, "mindist", "--n", "15", "--q", "2",
                           "--defining-set", "coset:1,3", "--json")
    payload = json.loads(out)
    assert payload["dimension"] == 7
    assert payload["min_distance"] == 5
    assert payload["exhaustive"] is True
    assert payload["lower_bound"] == 5


def test_mindist_computes_the_bch_bound_once(capsys, monkeypatch):
    from bchbound import bounds, codes, modring

    calls = {"bound": 0, "runs": 0}

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    original = bounds.code_apparent_distance
    bound = counting("bound", original)
    for name, module in list(sys.modules.items()):
        if (name.startswith("bchbound")
                and getattr(module, "code_apparent_distance", None) is original):
            monkeypatch.setattr(module, "code_apparent_distance", bound)
    monkeypatch.setattr(codes, "longest_run",
                        counting("runs", modring.longest_run))
    code, out, _ = run_cli(capsys, "mindist", "--n", "127", "--q", "2",
                           "--defining-set", "coset:1,3,5", "--json")
    payload = json.loads(out)
    assert (code, payload["bch_bound"], payload["min_distance"]) == (0, 7, 7)
    assert calls["bound"] == 1
    # one scan of the mask of a*D for each a in A(127), shared by the bound,
    # the Bose distance and the search's starting bound
    a_set = modring.cyclotomic_cosets(127, 2).a_set
    assert calls["runs"] == len(a_set) == 18


def test_mindist_cap_reports_both_bounds(capsys):
    argv = ["mindist", "--n", "41", "--q", "2", "--defining-set", "coset:1"]
    code, out, _ = run_cli(capsys, *argv, "--cap", "100", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["exhaustive"] is False
    assert 6 <= payload["lower_bound"] <= 9 <= payload["min_distance"]
    _, out, _ = run_cli(capsys, *argv, "--cap", "100")
    assert f"(upper bound; d >= {payload['lower_bound']}) after 100 " \
        "combinations" in out
    _, out, _ = run_cli(capsys, *argv)
    assert "minimum distance: 9 (exact)" in out


def test_forge_divisor(capsys):
    code, out, _ = run_cli(capsys, "forge", "--n", "15", "--q", "2",
                           "--field-poly", "4,1,0", "--mode", "divisor",
                           "--quotient", "5", "--verify", "--json")
    payload = json.loads(out)
    rec = payload["records"][0]
    assert rec["dimension"] == 10
    assert rec["bch_bound"] == 2
    assert rec["generator_word"] == [5, 10]
    assert rec["verified"] is True
    assert rec["min_distance"] == 2


def test_forge_primitive(capsys):
    code, out, _ = run_cli(capsys, "forge", "--n", "15", "--q", "2",
                           "--mode", "primitive", "--json")
    payload = json.loads(out)
    assert len(payload["records"]) == 2


def test_forge_primitive_127_verifies(capsys):
    code, out, _ = run_cli(capsys, "forge", "--n", "127", "--q", "2",
                           "--mode", "primitive", "--verify", "--json")
    records = json.loads(out)["records"]
    assert code == 0
    assert len(records) == 18
    assert all(r["verified"] and r["min_distance"] == r["bch_bound"]
               for r in records)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["analyze", "--n", "21"])
    assert excinfo.value.code == cli.EXIT_USAGE
    capsys.readouterr()


# argv whose output is argparse's own: help text or a usage error
_PARSER_CORPUS = [
    [], ["-h"], ["--help"], ["bogus"],
    *([name, "-h"] for name in cli._COMMANDS),
    ["analyze", "--n", "21"],  # missing required options
    ["reproduce"],
    ["analyze", "--n", "21", "--q", "2", "--defining-set", "1", "--bogus"],
    ["forge", "--n", "15", "--q", "2", "--mode", "bogus"],
    ["reproduce", "nope"],
    ["cosets", "--n", "x", "--q", "2"],
]


@pytest.mark.parametrize("argv", _PARSER_CORPUS,
                         ids=lambda argv: " ".join(argv) or "no-argv")
def test_main_prints_what_the_full_tree_prints(capsys, argv):
    # main builds only the named command's subparser; its help and usage
    # errors must still match the full tree's byte for byte
    outcomes = []
    for call in (cli.main, cli.build_parser().parse_args):
        with pytest.raises(SystemExit) as excinfo:
            call(argv)
        outcomes.append((excinfo.value.code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] in (cli.EXIT_OK, cli.EXIT_USAGE)


@pytest.mark.parametrize("argv,message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice"),
])
def test_command_errors_name_the_command(capsys, argv, message):
    # the narrowed tree's metavar must not leak into the full tree's errors
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == cli.EXIT_USAGE
    assert message in capsys.readouterr().err


def test_named_command_builds_only_its_subparser(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.build_parser("analyze").parse_args(["cosets", "--n", "7",
                                                "--q", "2"])
    assert excinfo.value.code == cli.EXIT_USAGE
    capsys.readouterr()


def test_console_script_reads_sys_argv(capsys, monkeypatch):
    # the installed bchbound entry point calls main() with no argument
    monkeypatch.setattr(sys, "argv", ["bchbound", "cosets", "--n", "21",
                                      "--q", "2", "--json"])
    assert cli.main() == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["a_set"] == [1, 5]
    monkeypatch.setattr(sys, "argv", ["bchbound"])
    with pytest.raises(SystemExit) as excinfo:
        cli.main()
    assert excinfo.value.code == cli.EXIT_USAGE
    assert "required: command" in capsys.readouterr().err


# (exit code, sha256 of stdout) of binary commands whose generators and
# search rows come from the GF(2) minimal polynomials and packed rows, as
# printed when both were still computed in L and packed symbol by symbol
@pytest.mark.parametrize("argv,exit_code,digest", [
    ("analyze --n 1023 --q 2 --defining-set coset:1,3,5 --json", 0,
     "40b85786ca7397c87db24f0bb28ac93aaea61cdb3940886e7e30cf1dd6398377"),
    ("mindist --n 41 --q 2 --defining-set coset:1 --json", 0,
     "517a9edc27bd6eda287daecc5d2d3b61cf994a47955c2ac7360e7be3c72944a5"),
    ("forge --n 63 --q 2 --mode primitive --verify --json", 0,
     "a43e4d502fd0e503404f5700f2bf251a02e5822044e3a4ce102bbdf0fa8b19f1"),
    ("reproduce n45 --emit json", 0,
     "6bbbf0e3d796bdb1992648d5f2421a274d989eb26c3725975600ccea7b730e32"),
    ("factor --n 255 --q 2 --json", 0,
     "6c2e8a33012d28023b867c37cf0674fe6fe29c4c35f61e2071cd7128efa5eaa4"),
])
def test_binary_outputs_are_byte_identical(capsys, argv, exit_code, digest):
    code, out, _ = run_cli(capsys, *argv.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, digest)


def test_reproduce_all_tables(capsys):
    for table in tables.TABLE_IDS:
        code, out, _ = run_cli(capsys, "reproduce", table)
        assert code == 0, f"{table} mismatched:\n{out}"
        assert "0 mismatch(es)" in out


def _bump_distance(rows, index):
    out = list(rows)
    out[index] = replace(rows[index],
                         min_distance=rows[index].min_distance + 1)
    return out


_GOLDEN_SMALL = tables.golden_rows("small-codes")
_FIRST_DUP = next(i for i, row in enumerate(_GOLDEN_SMALL) if row.flag == "dup")


@pytest.mark.parametrize("fresh,exit_code,fails,lines", [
    (_bump_distance(_GOLDEN_SMALL, 0), cli.EXIT_MISMATCH, 1,
     [f"row  1: FAIL d: golden {_GOLDEN_SMALL[0].min_distance} vs recomputed "
      f"{_GOLDEN_SMALL[0].min_distance + 1}",
      "small-codes: 59 rows, 1 mismatch(es)"]),
    # a row that repeats an earlier source row only informs
    (_bump_distance(_GOLDEN_SMALL, _FIRST_DUP), cli.EXIT_OK, 0,
     [f"row {_FIRST_DUP + 1:2d}: info (duplicated source row) d:",
      "small-codes: 59 rows, 0 mismatch(es)"]),
    (_GOLDEN_SMALL[:-1], cli.EXIT_MISMATCH, 0,
     ["row count differs: golden 59, recomputed 58",
      "small-codes: 59 rows, 1 mismatch(es)"]),
], ids=["changed-row", "changed-dup-row", "dropped-row"])
def test_reproduce_mismatch_is_exit_1(capsys, monkeypatch, fresh, exit_code,
                                      fails, lines):
    # exit 1 means a reproduction mismatch and nothing else
    monkeypatch.setattr(tables, "recompute", lambda table: fresh)
    code, out, _ = run_cli(capsys, "reproduce", "small-codes")
    assert code == exit_code
    assert out.count("FAIL") == fails
    assert all(line in out for line in lines)


def test_reproduce_emit_csv_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "n45", "--emit", "csv")
    assert code == 0
    golden = tables.golden_rows("n45")
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert len(lines) == len(golden) + 1  # header plus one line per row


def test_reproduce_emit_json(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "n33", "--emit", "json")
    payload = json.loads(out)
    assert [r["dimension"] for r in payload] == [11, 23]
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out


def test_unknown_table_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["reproduce", "nope"])
    assert excinfo.value.code == cli.EXIT_USAGE
    capsys.readouterr()


def test_forge_congruence_needs_coset(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["forge", "--n", "15", "--q", "2", "--mode", "congruence"])
    assert excinfo.value.code == cli.EXIT_USAGE
    assert "--coset is required" in capsys.readouterr().err


# a value of each forge option that every mode reading it accepts at n = 15
_FORGE_VALUES = {"quotient": "5", "shift": "1", "coset": "1", "subfield": "1"}


@pytest.mark.parametrize("mode", cli.FORGE_READS)
def test_forge_reads_the_options_its_table_lists(capsys, mode):
    reads = cli.FORGE_READS[mode]
    argv = ["forge", "--n", "15", "--q", "2", "--mode", mode]
    for option in reads:
        argv += [f"--{option}", _FORGE_VALUES[option]]
    assert run_cli(capsys, *argv)[0] == cli.EXIT_OK
    for option in sorted(_FORGE_VALUES.keys() - reads):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv + [f"--{option}", _FORGE_VALUES[option]])
        assert excinfo.value.code == cli.EXIT_USAGE
        assert (f"--{option} is not read in {mode} mode"
                in capsys.readouterr().err)


def test_forge_congruence_accepts_any_coset_member(capsys):
    _, rep, _ = run_cli(capsys, "forge", "--n", "15", "--q", "2", "--mode",
                        "congruence", "--coset", "1", "--json")
    for member in ("2", "8", "16"):  # 16 is 1 past n
        code, out, _ = run_cli(capsys, "forge", "--n", "15", "--q", "2",
                               "--mode", "congruence", "--coset", member,
                               "--json")
        assert code == 0
        assert out == rep


def test_forge_congruence_that_builds_nothing_exits_0(capsys):
    # at n = 5, g(alpha) is no power of alpha
    code, out, _ = run_cli(capsys, "forge", "--n", "5", "--q", "2", "--mode",
                           "congruence", "--coset", "1")
    assert code == 0
    assert out == ("0 construction(s) in congruence mode\n"
                   "  (the construction hypothesis failed; nothing built)\n")


@pytest.mark.parametrize("argv,message", [
    (["cosets", "--n", "15", "--q", "4"], "--q must be a prime"),
    (["analyze", "--n", "15", "--q", "4", "--defining-set", "coset:1"],
     "--q must be a prime"),
    (["cosets", "--n", "15", "--q", "1"], "--q must be a prime"),
    (["analyze", "--n", "15", "--q", "6", "--defining-set", "coset:1"],
     "--q must be a prime"),
    (["cosets", "--n", "0", "--q", "2"], "--n must lie in"),
    (["cosets", "--n", "70000", "--q", "3"], "--n must lie in"),
    (["factor", "--n", "14", "--q", "2"], "must be coprime"),
    (["mindist", "--n", "15", "--q", "2", "--defining-set", "coset:1",
      "--cap", "0"], "--cap must be a positive"),
    (["mindist", "--n", "13", "--q", "3", "--defining-set", "coset:1",
      "--cap", "-5"], "--cap must be a positive"),
    (["factor", "--n", "15", "--q", "2", "--field-poly", "x"],
     "bad field polynomial"),
    (["forge", "--n", "1", "--q", "2", "--mode", "primitive"],
     "primitive mode needs"),
    (["forge", "--n", "7", "--q", "2", "--mode", "divisor", "--quotient",
      "1,4", "--verify"], "names the factor of C(4) twice"),
    (["analyze", "--n", "13", "--q", "3", "--field-poly", "1,0",
      "--defining-set", "coset:1"],
     "--field-poly has degree m = 1, and n = 13 does not divide q^m - 1"),
    # past the field-order cap: refused before the modulus is built
    (["factor", "--n", "1", "--q", "2", "--field-poly", "89,38,0"],
     "--field-poly has degree m = 89, and q^m = 2^89 exceeds the field-order "
     "cap 16777216"),
    (["factor", "--n", "1", "--q", "2", "--field-poly", "31,3,0"],
     "--field-poly has degree m = 31, and q^m = 2^31 exceeds the field-order "
     "cap 16777216"),
    # e:c terms and degree 0
    (["factor", "--n", "1", "--q", "2", "--field-poly", "0"],
     "--field-poly has degree m = 0; the splitting field needs m >= 1"),
    (["factor", "--n", "13", "--q", "3", "--field-poly", "3,1:3,0"],
     "--field-poly coefficient 3 of x^1 is outside 1..2"),
    (["factor", "--n", "13", "--q", "3", "--field-poly", "3,1:0,0"],
     "--field-poly coefficient 0 of x^1 is outside 1..2"),
    (["factor", "--n", "13", "--q", "3", "--field-poly", "3,1:2,1,0"],
     "--field-poly gives x^1 two coefficients"),
    (["factor", "--n", "13", "--q", "3", "--field-poly", "3:,0"],
     "bad field polynomial"),
    (["factor", "--n", "15", "--q", "2", "--subfield", "0"],
     "--subfield must be a positive degree, not 0"),
    (["factor", "--n", "15", "--q", "2", "--field-poly", "4,1"],
     "field polynomial needs a constant term (exponent 0)"),
    (["forge", "--n", "15", "--q", "2", "--mode", "divisor", "--quotient",
      "a"], "argument --quotient: bad coset list 'a'"),
    (["forge", "--n", "15", "--q", "2", "--mode", "divisor", "--quotient",
      "5,"], "argument --quotient: bad coset list '5,'"),
    # forge has no --j, and no long option may be abbreviated
    (["forge", "--n", "15", "--q", "2", "--mode", "congruence", "--coset",
      "3", "--j", "5"], "unrecognized arguments: --j 5"),
    # the terms as written sum to x^4 + 1 over GF(2)
    (["factor", "--n", "15", "--q", "2", "--field-poly", "4,1,1,0"],
     "--field-poly gives x^1 twice"),
    (["factor", "--n", "15", "--q", "2", "--field-poly", "4,-1,0"],
     "--field-poly exponent -1 is negative"),
    # an option the chosen forge mode never reads
    (["forge", "--n", "31", "--q", "2", "--mode", "primitive", "--subfield",
      "5"], "--subfield is not read in primitive mode"),
    (["forge", "--n", "31", "--q", "2", "--mode", "primitive", "--j", "1"],
     "unrecognized arguments: --j 1"),
    (["forge", "--n", "15", "--q", "2", "--mode", "congruence", "--coset",
      "1", "--shift", "2"], "--shift is not read in congruence mode"),
    (["forge", "--n", "15", "--q", "2", "--mode", "divisor", "--quotient",
      "5", "--coset", "3"], "--coset is not read in divisor mode"),
    (["forge", "--n", "45", "--q", "2", "--mode", "extend", "--quotient",
      "0,3", "--j", "1"], "unrecognized arguments: --j 1"),
    (["analyze", "--n", "15", "--q", "2", "--defining-set", "1,x"],
     "bad defining set '1,x'"),
    # the option each forge route requires
    (["forge", "--n", "21", "--q", "2", "--mode", "divisor"],
     "--quotient is required for divisor mode"),
    (["forge", "--n", "21", "--q", "2", "--mode", "extend", "--shift", "1"],
     "--quotient is required for extend mode"),
    (["forge", "--n", "21", "--q", "2", "--mode", "congruence", "--subfield",
      "1"], "--coset is required for congruence mode"),
    # abbreviations of --json, --verify and --quotient
    (["forge", "--n", "21", "--q", "2", "--mode", "divisor", "--quotient",
      "7", "--j"], "unrecognized arguments: --j"),
    (["forge", "--n", "21", "--q", "2", "--mode", "divisor", "--quotient",
      "7", "--ver"], "unrecognized arguments: --ver"),
    (["forge", "--n", "21", "--q", "2", "--mode", "divisor", "--quotient",
      "7", "--quot", "7"], "unrecognized arguments: --quot 7"),
    # primitive mode reads no --subfield, not even the degree 1 of GF(q)
    (["forge", "--n", "31", "--q", "2", "--mode", "primitive", "--subfield",
      "1"], "--subfield is not read in primitive mode"),
])
def test_bad_code_arguments_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == cli.EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,error", [
    (["factor", "--n", "15", "--q", "2", "--subfield", "3"], "InvalidSubfield"),
    (["mindist", "--n", "65536", "--q", "3", "--defining-set", "1"],
     "NoDefaultPolynomial"),  # GF(3^16384) is past the field-size cap
    (["forge", "--n", "15", "--q", "2", "--mode", "divisor", "--quotient", "3"],
     "NotRational: no rational shift exists"),
])
def test_unsupported_inputs_are_named_errors(capsys, argv, error):
    code, _, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_COMPUTE
    assert err.startswith(f"error: {error}")
