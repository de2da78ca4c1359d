import json

import pytest

from cycloseq.autocorr import distribution, profile_as_json_dict
from cycloseq.cli import (ALL_TRIPLES, CHECK_NAMES, SWEEP_COLUMNS, _checked, main,
                          render_sweep, run_sweep)
from cycloseq.numtheory import odd_prime_pairs


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_generate_bits(capsys):
    rc, out, err = run(capsys, "generate", "--p", "3", "--q", "5", "--abc", "100")
    assert rc == 0
    assert out == "000100110101111\n"


def test_generate_separate_bit_flags(capsys):
    rc, out, _ = run(capsys, "generate", "--p", "3", "--q", "5",
                     "--a", "1", "--b", "0", "--c", "0")
    assert rc == 0
    assert out == "000100110101111\n"


def test_generate_json(capsys):
    rc, out, _ = run(capsys, "generate", "--p", "3", "--q", "5", "--abc", "100",
                     "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"p": 3, "q": 5, "a": 1, "b": 0, "c": 0,
                               "bits": "000100110101111"}


def test_generate_out_file(tmp_path, capsys):
    target = tmp_path / "seq.txt"
    rc, out, _ = run(capsys, "generate", "--p", "3", "--q", "5", "--abc", "100",
                     "--out", str(target))
    assert rc == 0
    assert out == ""
    assert target.read_text() == "000100110101111\n"


@pytest.mark.parametrize("argv,fragment", [
    (("generate", "--p", "4", "--q", "5", "--abc", "100"), "p must be an odd prime"),
    (("generate", "--p", "5", "--q", "5", "--abc", "100"), "p and q must be distinct"),
    (("generate", "--p", "3", "--q", "5"), "fill bits required"),
    (("generate", "--p", "3", "--q", "5", "--abc", "100", "--a", "1"), "not both"),
    (("generate", "--p", "3", "--q", "5", "--abc", "12"), "three characters"),
    (("generate", "--p", "3", "--q", "5", "--abc", "102"), "three characters"),
])
def test_usage_errors_exit_1(capsys, argv, fragment):
    rc, _, err = run(capsys, *argv)
    assert rc == 1
    assert fragment in err


def test_missing_required_flag_exits_1(capsys):
    rc, _, err = run(capsys, "generate", "--p", "3", "--abc", "100")
    assert rc == 1
    assert "--q" in err


def test_unknown_subcommand_exits_1(capsys):
    rc, _, _ = run(capsys, "frobnicate")
    assert rc == 1
    rc, _, _ = run(capsys)
    assert rc == 1


def test_autocorr_default_per_shift_csv(capsys):
    rc, out, _ = run(capsys, "autocorr", "--p", "3", "--q", "7", "--abc", "100")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "tau,class,c_s"
    assert lines[1] == "0,zero,21"
    assert lines[2] == "1,unit,1"
    assert lines[3] == "2,unit,-3"
    assert lines[4] == "3,p,1"
    assert lines[8] == "7,q,-3"
    assert "# family: ThreeValuedOptimal" in lines
    assert "# max_nontrivial_abs: 3" in lines


def test_autocorr_aggregate_csv(capsys):
    rc, out, _ = run(capsys, "autocorr", "--p", "3", "--q", "7", "--abc", "100",
                     "--aggregate")
    assert rc == 0
    assert out == ("value,count\n"
                   "-3,8\n"
                   "1,12\n"
                   "21,1\n"
                   "# distribution: -3:8 1:12 21:1\n"
                   "# family: ThreeValuedOptimal\n"
                   "# max_nontrivial_abs: 3\n")


def test_autocorr_both_routes_agree(capsys):
    rc, out, _ = run(capsys, "autocorr", "--p", "5", "--q", "7", "--abc", "011",
                     "--both")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "tau,class,empirical,closed,match"
    assert all(line.endswith(",true") for line in lines[1:36])
    assert "# empirical_matches_closed: true" in lines


def test_autocorr_empirical_json(capsys):
    rc, out, _ = run(capsys, "autocorr", "--p", "3", "--q", "7", "--abc", "100",
                     "--empirical", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["family"] == "ThreeValuedOptimal"
    assert obj["distribution"] == {"-3": 8, "1": 12, "21": 1}
    assert "empirical_matches_closed" not in obj


def test_autocorr_both_json(capsys):
    rc, out, _ = run(capsys, "autocorr", "--p", "3", "--q", "5", "--abc", "100",
                     "--both", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["empirical_matches_closed"] is True
    assert obj["family"] == "Ideal"


def test_autocorr_route_flags_exclusive(capsys):
    rc, _, err = run(capsys, "autocorr", "--p", "3", "--q", "5", "--abc", "100",
                     "--both", "--empirical")
    assert rc == 1
    assert "not allowed" in err


def test_autocorr_aggregate_is_refused_with_json(capsys):
    # JSON always carries the distribution, so the flag would change nothing
    rc, out, err = run(capsys, "autocorr", "--p", "3", "--q", "7", "--abc", "100",
                       "--format", "json", "--aggregate")
    assert (rc, out) == (1, "")
    assert err == ("error: --aggregate shapes CSV output only; "
                   "JSON always carries the distribution\n")


def test_adic_json(capsys):
    rc, out, _ = run(capsys, "adic", "--p", "3", "--q", "13", "--abc", "010")
    assert rc == 0
    obj = json.loads(out)
    assert obj["complexity_float"] == pytest.approx(36.193, abs=1e-3)
    del obj["complexity_float"]
    assert obj == {
        "p": 3, "q": 13, "a": 0, "b": 1, "c": 0, "n": 39,
        "d": 7, "d_p": 7, "d_q": 1, "d_star": 1, "best_value": False,
        "complexity_bits_exact": "log2((2^39-1)/7)",
        "deviations": [],
    }


def test_adic_csv(capsys):
    rc, out, _ = run(capsys, "adic", "--p", "3", "--q", "5", "--abc", "100",
                     "--format", "csv")
    assert rc == 0
    assert out == ("p,q,a,b,c,n,d,d_p,d_q,d_star,best_value,complexity_float\n"
                   "3,5,1,0,0,15,1,1,1,1,true,14.999956\n")


def test_verify_all_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--p", "3", "--q", "5", "--all")
    assert rc == 0
    lines = out.splitlines()
    assert lines == [
        "theorem1 (p=3, q=5): PASS",
        "lemma1 (p=3, q=5): PASS",
        "theorem2 (p=3, q=5): PASS",
        "correlation_identity (p=3, q=5): PASS",
        "4/4 checks pass",
    ]


def test_verify_reports_failure(capsys):
    rc, out, _ = run(capsys, "verify", "--p", "3", "--q", "17")
    assert rc == 2
    lines = out.splitlines()
    assert "theorem1 (p=3, q=17): PASS" in lines
    assert any(line.startswith("theorem2 (p=3, q=17): FAIL (abc=001") for line in lines)
    assert lines[-1] == "3/4 checks pass"


def test_verify_check_subset(capsys):
    rc, out, _ = run(capsys, "verify", "--p", "3", "--q", "17",
                     "--check", "theorem1,lemma1")
    assert rc == 0
    assert out.splitlines()[-1] == "2/2 checks pass"
    rc, out, _ = run(capsys, "verify", "--p", "3", "--q", "17",
                     "--check", "theorem2")
    assert rc == 2
    assert out.splitlines()[-1] == "0/1 checks pass"


def test_verify_unknown_check(capsys):
    rc, _, err = run(capsys, "verify", "--p", "3", "--q", "5", "--check", "bogus")
    assert rc == 1
    assert "unknown checks: bogus" in err


def test_sweep_frozen_row(capsys):
    rc, out, err = run(capsys, "sweep", "--pairs", "3,5", "--triples", "100")
    assert rc == 0
    assert out == ("p,q,a,b,c,n,family,ac_P,ac_Q,ac_unit_plus,ac_unit_minus,"
                   "max_abs,d,d_p,d_q,d_star,best_value,checks_passed\n"
                   "3,5,1,0,0,15,Ideal,-1,-1,-1,-1,1,1,1,1,1,true,4/4\n")
    assert err == "sweep: 1 rows (1 pairs x 1 triples), 0 rows with failing checks\n"


def test_sweep_range_counts_and_failures(capsys):
    rc, out, err = run(capsys, "sweep", "--max-n", "60")
    assert rc == 2
    lines = out.splitlines()
    assert len(lines) == 65  # header plus 8 pairs x 8 triples
    failing = [line for line in lines if line.endswith("3/4")]
    assert len(failing) == 2
    assert all(line.startswith("3,17,") for line in failing)
    assert "sweep: 64 rows (8 pairs x 8 triples), 2 rows with failing checks" in err


def test_sweep_degenerate_row_values(capsys):
    rc, out, _ = run(capsys, "sweep", "--pairs", "3,17", "--triples", "001")
    assert rc == 2
    row = out.splitlines()[1]
    assert row == "3,17,0,0,1,51,Other,11,-17,3,3,17,917497,7,131071,1,false,3/4"


def test_sweep_triples_order_and_dedup(capsys):
    rc, out, _ = run(capsys, "sweep", "--pairs", "3,5", "--triples", "100,011,100")
    assert rc == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 2
    assert rows[0].startswith("3,5,0,1,1,")
    assert rows[1].startswith("3,5,1,0,0,")


def test_sweep_checks_subset(capsys):
    rc, out, _ = run(capsys, "sweep", "--pairs", "3,17", "--triples", "001",
                     "--checks", "theorem1,lemma1")
    assert rc == 0
    assert out.splitlines()[1].endswith("2/2")


def test_sweep_json_format(capsys):
    rc, out, _ = run(capsys, "sweep", "--pairs", "3,5", "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 8
    assert rows[0]["p"] == 3 and rows[0]["q"] == 5
    assert isinstance(rows[0]["best_value"], bool)
    assert all(row["checks_passed"] == "4/4" for row in rows)


def test_sweep_merges_and_sorts_pair_sources(capsys):
    rc, out, _ = run(capsys, "sweep", "--max-n", "21", "--pairs", "3,5",
                     "--pairs", "5,7", "--triples", "000")
    assert rc == 0
    rows = out.splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["3", "5"], ["3", "7"], ["5", "7"]]


@pytest.mark.parametrize("argv,fragment", [
    (("sweep", "--triples", "000"), "no prime pairs selected"),
    (("sweep", "--pairs", "5"), "--pairs expects"),
    (("sweep", "--max-n", "60", "--triples", "10"), "three bits"),
    (("sweep", "--max-n", "60", "--checks", "nope"), "unknown checks"),
    (("sweep", "--max-n", "60", "--checks", ""), "at least one check"),
])
def test_sweep_usage_errors(capsys, argv, fragment):
    rc, _, err = run(capsys, *argv)
    assert rc == 1
    assert fragment in err


def test_sweep_deterministic_output(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    rc1, out1, _ = run(capsys, "sweep", "--max-n", "60", "--out", str(first))
    rc2, out2, _ = run(capsys, "sweep", "--max-n", "60", "--out", str(second))
    assert rc1 == rc2 == 2
    assert first.read_bytes() == second.read_bytes()
    assert "sweep: 64 rows" in out1  # summary moves to stdout when --out is set
    # file content matches the stdout rendering of the same invocation
    rc3, out3, _ = run(capsys, "sweep", "--max-n", "60")
    assert first.read_text() == out3


@pytest.mark.parametrize("argv", [("generate", "--p", "3", "--q", "5", "--abc", "100"),
                                  ("sweep", "--pairs", "3,5")])
def test_unwritable_out_path_exits_1(tmp_path, capsys, argv):
    # a directory, then a file in a directory that does not exist
    for out in (tmp_path, tmp_path / "missing" / "out.txt"):
        rc, _, err = run(capsys, *argv, "--out", str(out))
        assert rc == 1
        assert err.startswith("error: [Errno ")


def test_verify_frozen_stdout(capsys):
    rc, out, _ = run(capsys, "verify", "--p", "3", "--q", "17")
    assert rc == 2
    assert out == ("theorem1 (p=3, q=17): PASS\n"
                   "lemma1 (p=3, q=17): PASS\n"
                   "theorem2 (p=3, q=17): FAIL (abc=001 d != max(d_p, d_q); "
                   "min(d_p, d_q) != 1)\n"
                   "correlation_identity (p=3, q=17): PASS\n"
                   "3/4 checks pass\n")
    rc, out, _ = run(capsys, "verify", "--p", "3", "--q", "17",
                     "--check", "theorem2,correlation_identity")
    assert rc == 2
    assert out == ("theorem2 (p=3, q=17): FAIL (abc=001 d != max(d_p, d_q); "
                   "min(d_p, d_q) != 1)\n"
                   "correlation_identity (p=3, q=17): PASS\n"
                   "1/2 checks pass\n")


def test_sweep_rows_hold_the_values_of_the_autocorr_and_adic_json():
    # A sweep row is SWEEP_COLUMNS zipped with values read off its pair;
    # the oracle picks them out of the autocorr and adic JSON mappings, so
    # the sweep schema cannot drift from those.
    pairs = list(odd_prime_pairs(400))
    rows, failing = run_sweep(pairs, ALL_TRIPLES, CHECK_NAMES)
    oracle = []
    for pair, t, results in _checked(pairs, ALL_TRIPLES, CHECK_NAMES):
        row = {**profile_as_json_dict(distribution(pair.params[t])),
               **pair.reports[t].as_json_dict(),
               "checks_passed": f"{sum(map(bool, results.values()))}/{len(CHECK_NAMES)}"}
        row["max_abs"] = row.pop("max_nontrivial_abs")
        oracle.append({col: row[col] for col in SWEEP_COLUMNS})
    assert len(rows) == 8 * len(pairs)
    assert json.dumps(rows) == json.dumps(oracle)  # keys, values and their types
    assert failing == sum(row["checks_passed"] != "4/4" for row in oracle) > 0
    keys = [list(row) for row in json.loads(render_sweep(rows, "json"))]
    assert keys == [list(SWEEP_COLUMNS)] * len(rows)
