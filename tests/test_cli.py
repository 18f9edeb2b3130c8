import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

from bchbound import cli, tables


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
    monkeypatch.setattr(codes, "cyclic_runs",
                        counting("runs", modring.cyclic_runs))
    code, out, _ = run_cli(capsys, "mindist", "--n", "127", "--q", "2",
                           "--defining-set", "coset:1,3,5", "--json")
    payload = json.loads(out)
    assert (code, payload["bch_bound"], payload["min_distance"]) == (0, 7, 7)
    assert calls["bound"] == 1
    # one scan of a*D for each a in A(127), shared by the bound, the Bose
    # distance and the search's starting bound
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


def test_reproduce_all_tables(capsys):
    for table in tables.TABLE_IDS:
        code, out, _ = run_cli(capsys, "reproduce", table)
        assert code == 0, f"{table} mismatched:\n{out}"
        assert "0 mismatch(es)" in out


def _bump_distance(rows, index):
    out = list(rows)
    out[index] = dataclasses.replace(rows[index],
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


def test_forge_congruence_accepts_any_coset_member(capsys):
    _, rep, _ = run_cli(capsys, "forge", "--n", "15", "--q", "2", "--mode",
                        "congruence", "--coset", "1", "--json")
    code, member, _ = run_cli(capsys, "forge", "--n", "15", "--q", "2",
                              "--mode", "congruence", "--coset", "2", "--json")
    assert code == 0
    assert member == rep


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
    # 5 lies in C(5) = {5, 10}, not in C(3)
    (["forge", "--n", "15", "--q", "2", "--mode", "congruence", "--coset",
      "3", "--j", "5"], "--j 5 is not in the coset of --coset 3"),
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
