"""The CHECKS registry that verify and sweep share, and the work it does."""

import csv
import io
import sys
from collections import Counter

import numpy as np
import pytest

import cycloseq.autocorr
import cycloseq.cli as cli
import cycloseq.groupring
import cycloseq.sequence
from cycloseq.numtheory import OddPrimePair
from cycloseq.sequence import CheckResult


@pytest.fixture
def calls(monkeypatch):
    """Count the calls of generate, empirical_profile, closed_form_profile,
    crt_blocks, verify_lemma1 and crt_sign_products under every name the
    package binds them to."""
    counts = Counter()
    for module, name in ((cycloseq.sequence, "generate"),
                         (cycloseq.autocorr, "empirical_profile"),
                         (cycloseq.autocorr, "closed_form_profile"),
                         (cycloseq.groupring, "crt_blocks"),
                         (cycloseq.groupring, "verify_lemma1"),
                         (cycloseq.groupring, "crt_sign_products")):
        original = getattr(module, name)

        def counted(*args, _fn=original, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("cycloseq")
                    and getattr(mod, name, None) is original):
                monkeypatch.setattr(mod, name, counted)
    return counts


@pytest.mark.parametrize("argv", [["verify", "--p", "5", "--q", "7"],
                                  ["sweep", "--pairs", "5,7"]])
def test_each_instance_is_built_once(calls, capsys, argv):
    # crt_blocks: once for the pair, and lemma1 and the sign products read
    # the same blocks
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls == {"generate": 8, "empirical_profile": 8,
                     "closed_form_profile": 8, "crt_blocks": 1, "verify_lemma1": 1,
                     "crt_sign_products": 1}


@pytest.mark.parametrize("argv,code,runs", [
    (["sweep", "--pairs", "5,7", "--pairs", "3,17"], 2, 2),
    (["verify", "--p", "5", "--q", "7"], 0, 1),
    (["verify", "--p", "5", "--q", "7", "--check", "theorem1"], 0, 0),
])
def test_lemma1_runs_once_per_pair_and_only_when_selected(calls, capsys, argv,
                                                         code, runs):
    assert cli.main(argv) == code
    capsys.readouterr()
    assert calls["verify_lemma1"] == runs


@pytest.mark.parametrize("argv,code,runs", [
    (["sweep", "--pairs", "5,7", "--pairs", "3,17"], 2, 2),
    (["verify", "--p", "5", "--q", "7"], 0, 1),
    (["verify", "--p", "5", "--q", "7", "--check", "theorem1"], 0, 0),
    (["verify", "--p", "5", "--q", "7", "--check", "lemma1"], 0, 0),
])
def test_sign_products_run_once_per_pair_and_only_for_correlation_identity(
        calls, capsys, argv, code, runs):
    # The 16 products sigma(atom k) * atom l serve all 8 triples of a pair.
    assert cli.main(argv) == code
    capsys.readouterr()
    assert calls["crt_sign_products"] == runs


def test_residue_tables_are_built_once_per_pair(monkeypatch, capsys):
    # Four for the blocks (chi_p and chi_q of gauss_gp, gauss_gq and unit) and
    # two for the residue-class codes that every by_class call of the pair
    # reads; 8 generate and 8 closed_form_profile calls add none.
    runs = Counter()
    original = cycloseq.sequence.residue_table

    def residue_table(r):
        runs[r] += 1
        return original(r)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("cycloseq")
                and getattr(mod, "residue_table", None) is original):
            monkeypatch.setattr(mod, "residue_table", residue_table)
    cycloseq.sequence._class_codes.cache_clear()
    assert cli.main(["verify", "--p", "5", "--q", "7"]) == 0
    capsys.readouterr()
    assert runs == {5: 3, 7: 3}


def test_sweep_without_profile_checks_builds_no_profile(calls, capsys):
    assert cli.main(["sweep", "--pairs", "5,7", "--checks", "theorem2"]) == 0
    capsys.readouterr()
    assert calls == {"generate": 8}


@pytest.mark.parametrize("argv,built", [
    (["autocorr", "--empirical", "--format", "json"],
     {"generate": 1, "empirical_profile": 1}),
    (["generate"], {"generate": 1}),
    (["adic"], {"generate": 1}),
    (["autocorr", "--both"],
     {"generate": 1, "empirical_profile": 1, "closed_form_profile": 1}),
    (["autocorr"], {"closed_form_profile": 1}),
], ids=["autocorr-empirical-json", "generate", "adic", "autocorr-both",
        "autocorr-per-shift"])
def test_each_command_builds_what_it_prints_once(calls, capsys, argv, built):
    # Every command builds through one cli._Instance, which builds a piece on
    # first use and at most once.
    command, *flags = argv
    assert cli.main([command, "--p", "5", "--q", "7", "--abc", "100", *flags]) == 0
    capsys.readouterr()
    assert calls == built


def test_autocorr_json_builds_nothing_it_does_not_print(calls, capsys):
    # The closed-route JSON reads the class values alone: no per-shift profile.
    assert cli.main(["autocorr", "--p", "5", "--q", "7", "--abc", "100",
                     "--format", "json"]) == 0
    capsys.readouterr()
    assert calls == {}


def test_verify_refuses_all_together_with_check(calls, capsys):
    # --all used to run every check and drop --check silently; the two are
    # exclusive, as autocorr's route flags are, and nothing is built.
    assert cli.main(["verify", "--p", "3", "--q", "5", "--all",
                     "--check", "theorem1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --check: not allowed with argument --all" in err
    assert calls == {}


def test_registry_names_and_results():
    assert cli.CHECK_NAMES == tuple(cli.CHECKS) == (
        "theorem1", "lemma1", "theorem2", "correlation_identity")
    inst = cli._Instance(cli._Pair(OddPrimePair(3, 17)), 0, 0, 1)
    assert [cli.CHECKS[name](inst) for name in cli.CHECK_NAMES] == [
        CheckResult("theorem1", True),
        CheckResult("lemma1", True),
        CheckResult("theorem2", False, "d != max(d_p, d_q); min(d_p, d_q) != 1"),
        CheckResult("correlation_identity", True),
    ]


def test_sweep_rows_count_passing_check_results(capsys):
    assert cli.main(["sweep", "--pairs", "3,17", "--pairs", "5,7"]) == 2
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 16
    for row in rows:
        inst = cli._Instance(cli._Pair(OddPrimePair(int(row["p"]), int(row["q"]))),
                             int(row["a"]), int(row["b"]), int(row["c"]))
        passed = sum(bool(check(inst)) for check in cli.CHECKS.values())
        assert row["checks_passed"] == f"{passed}/{len(cli.CHECKS)}", row
    assert {row["checks_passed"] for row in rows} == {"3/4", "4/4"}


def test_lemma1_failure_is_reported_once_per_pair(monkeypatch, capsys):
    failed = CheckResult("lemma1", False, "gauss_gp_squared first differs at exponent 5")
    runs = Counter()

    def lemma1(blocks):
        runs[blocks.one.primes] += 1
        return failed

    monkeypatch.setattr(cli.gr, "verify_lemma1", lemma1)
    assert cli.main(["verify", "--p", "5", "--q", "7", "--check", "lemma1"]) == 2
    assert capsys.readouterr().out == (
        "lemma1 (p=5, q=7): FAIL (gauss_gp_squared first differs at exponent 5)\n"
        "0/1 checks pass\n")
    assert cli.main(["sweep", "--pairs", "5,7", "--pairs", "3,5",
                     "--checks", "lemma1,theorem2"]) == 2
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert {row["checks_passed"] for row in rows} == {"1/2"}
    assert runs == {OddPrimePair(5, 7): 2, OddPrimePair(3, 5): 1}


def test_int64_overflow_is_refused_as_an_error(monkeypatch, capsys):
    # A lowered limit makes the first sigma(S) * S contraction refuse. lemma1
    # cannot reach the limit: it multiplies length-p and length-q factors,
    # whose products are bounded by max(p, q) < 2**32.
    monkeypatch.setattr(cycloseq.groupring, "_INT64_LIMIT", 8)
    assert cli.main(["verify", "--p", "5", "--q", "7",
                     "--check", "correlation_identity"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: dense coefficients could exceed int64\n")


def test_refused_allocation_is_reported_as_an_error(monkeypatch, capsys):
    # numpy raises MemoryError at once when the machine refuses a request.
    def generate(params):
        raise MemoryError("Unable to allocate 9.31 GiB")

    monkeypatch.setattr(cli, "generate", generate)
    assert cli.main(["generate", "--p", "3", "--q", "5", "--abc", "100"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: Unable to allocate 9.31 GiB\n")


def test_theorem1_holds_at_large_n_along_the_crt_grid(monkeypatch):
    # A direct correlation would take seconds at (307, 311) and minutes at
    # (1009, 1013), so every correlation here must run along one grid axis;
    # one that spans the whole period fails at once instead of running on.
    original = cycloseq.autocorr._correlations

    def along_one_axis(xs, ys):
        length = np.shape(xs)[1]
        assert length <= 1013, f"a correlation of length {length} spans the period"
        return original(xs, ys)

    monkeypatch.setattr(cycloseq.autocorr, "_correlations", along_one_axis)
    pairs = (OddPrimePair(307, 311), OddPrimePair(1009, 1013))
    results = [(inst.params.abc, check["theorem1"])
               for inst, check in cli._checked(pairs, ((1, 0, 0), (0, 1, 0)),
                                                ("theorem1",))]
    assert results == [(abc, CheckResult("theorem1", True))
                       for abc in ("100", "010") * 2]
