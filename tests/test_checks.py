"""The CHECKS registry that verify and sweep share, and the work it does."""

import csv
import io
import sys
from collections import Counter

import numpy as np
import pytest

import cycloseq.adic
import cycloseq.autocorr
import cycloseq.cli as cli
import cycloseq.groupring
import cycloseq.numtheory
import cycloseq.sequence
from cycloseq.numtheory import OddPrimePair
from cycloseq.sequence import CheckResult


@pytest.fixture
def calls(monkeypatch):
    """Count the calls of generate, empirical_profile, RowTable,
    closed_form_profile, crt_basis, verify_lemma1 and crt_factors under every
    name the package binds them to."""
    counts = Counter()
    for module, name in ((cycloseq.sequence, "generate"),
                         (cycloseq.autocorr, "empirical_profile"),
                         (cycloseq.autocorr, "RowTable"),
                         (cycloseq.autocorr, "closed_form_profile"),
                         (cycloseq.groupring, "crt_basis"),
                         (cycloseq.groupring, "verify_lemma1"),
                         (cycloseq.groupring, "crt_factors")):
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
    # generate: once for the pair, one stack of its 8 sequences;
    # crt_basis and crt_factors: once for the pair, and lemma1 and
    # correlation_identity read the same table; RowTable: once for the pair;
    # closed_form_profile: once for the pair's one stacked pass (n = 35, so
    # all 8 triples make one chunk), whose stacks of the 8 empirical and
    # closed-form profiles serve theorem1 and correlation_identity alike
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls == {"generate": 1, "RowTable": 1, "closed_form_profile": 1,
                     "verify_lemma1": 1, "crt_basis": 1, "crt_factors": 1}


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
    (["verify", "--p", "5", "--q", "7", "--check", "lemma1"], 0, 1),
    (["verify", "--p", "5", "--q", "7", "--check", "correlation_identity"], 0, 1),
])
def test_factors_run_once_per_pair_and_only_for_lemma1_or_correlation_identity(
        calls, capsys, argv, code, runs):
    # One product table per pair serves lemma1 and the pair's stacked pass,
    # which checks all 8 triples of correlation_identity; a pass that runs
    # theorem1 alone builds none.
    assert cli.main(argv) == code
    capsys.readouterr()
    assert calls["crt_factors"] == runs


def test_the_pair_table_is_the_groupring_kernel_work(monkeypatch, capsys):
    # The table is one mul per pair: one _correlations call per prime, 4
    # lefts by 3 rights. Every triple's sigma(S) * S contracts the table, so
    # no triple adds a kernel call.
    shapes = []
    original = cycloseq.groupring._correlations

    def counted(xs, ys):
        shapes.append((np.shape(xs), np.shape(ys)))
        return original(xs, ys)

    monkeypatch.setattr(cycloseq.groupring, "_correlations", counted)
    assert cli.main(["verify", "--p", "5", "--q", "7", "--all"]) == 0
    capsys.readouterr()
    assert shapes == [((4, 5), (3, 5)), ((4, 7), (3, 7))]
    pair = cli._Pair(OddPrimePair(5, 7))
    t = pair.triples.index((0, 1, 1))
    factors = pair.factors
    shapes.clear()
    assert cycloseq.groupring.verify_correlation_identity(
        factors, pair.seqs[t], pair.table.profile(t), pair.closed(t)
    ) == CheckResult("correlation_identity", True)
    assert shapes == []


def _record_stacked_contractions(monkeypatch) -> tuple:
    """The leading dimension of every groupring._contract output, the
    matrices it contracts at once, and of every RowTable.profile read, the
    sequences it reads at once (None for a one-sequence read)."""
    contracts, reads = [], []
    contract = cycloseq.groupring._contract
    profile = cycloseq.autocorr.RowTable.profile

    def counted_contract(us, ms, vs):
        grids = contract(us, ms, vs)
        contracts.append(len(grids))
        return grids

    def counted_profile(table, t):
        values = profile(table, t)
        reads.append(len(values) if values.ndim == 2 else None)
        return values

    monkeypatch.setattr(cycloseq.groupring, "_contract", counted_contract)
    monkeypatch.setattr(cycloseq.autocorr.RowTable, "profile", counted_profile)
    return contracts, reads


def test_the_checks_run_one_stacked_pass_per_chunk_of_triples(monkeypatch, capsys):
    # A chunk holds max(1, 2**13 // n) triples. At (5, 7) all 8 make one:
    # one profile read of 8, one contraction of the 8 C (x) C and one of the
    # 8 E and 8 C; lemma1 passes, so it contracts nothing. A sweep makes the
    # same two contractions per pair, whatever its triples. At (307, 311),
    # n = 95477 > 2**13, so every chunk is one triple.
    contracts, reads = _record_stacked_contractions(monkeypatch)
    assert cli.main(["verify", "--p", "5", "--q", "7", "--all"]) == 0
    assert (contracts, reads) == ([8, 16], [8])
    contracts.clear()
    reads.clear()
    assert cli.main(["sweep", "--pairs", "3,5", "--pairs", "5,7", "--pairs", "3,17",
                     "--triples", "000,011,101", "--checks", "correlation_identity"]) == 0
    assert (contracts, reads) == ([3, 6] * 3, [3] * 3)
    contracts.clear()
    reads.clear()
    assert cli.main(["verify", "--p", "307", "--q", "311", "--check",
                     "theorem1,correlation_identity"]) == 0
    capsys.readouterr()
    assert (contracts, reads) == ([1, 2] * 8, [1] * 8)


def test_a_pairs_reports_are_one_stacked_call_per_chunk(monkeypatch, capsys):
    # The reports come in the chunks of the check pass: all 8 triples at
    # (5, 7), one triple at a time at (307, 311), where n = 95477 > 2**13.
    sizes = []
    original = cycloseq.adic.complexity_report

    def counted(params):
        reports = original(params)
        sizes.append(len(reports))
        return reports

    monkeypatch.setattr(cli.adic, "complexity_report", counted)
    assert cli.main(["verify", "--p", "5", "--q", "7", "--check", "theorem2"]) == 0
    assert sizes == [8]
    sizes.clear()
    assert cli.main(["verify", "--p", "307", "--q", "311", "--check", "theorem2"]) == 0
    capsys.readouterr()
    assert sizes == [1] * 8


def test_the_row_table_lays_its_sequences_on_the_grid_at_once(monkeypatch):
    # One crt_grid call of the (k, n) stack of the table's sequences, with
    # either prime the shorter axis; test_autocorr checks the profiles.
    shapes = []
    original = cycloseq.autocorr.crt_grid

    def counted(primes, values):
        shapes.append(np.shape(values))
        return original(primes, values)

    monkeypatch.setattr(cycloseq.autocorr, "crt_grid", counted)
    for primes in (OddPrimePair(5, 7), OddPrimePair(7, 5)):
        cli._Pair(primes).table
        assert shapes == [(8, 35)], primes
        shapes.clear()


def _count_autocorr_kernel_calls(monkeypatch) -> list:
    """The shapes of the arguments of every autocorr._correlations call."""
    shapes = []
    original = cycloseq.autocorr._correlations

    def counted(xs, ys):
        shapes.append((np.shape(xs), np.shape(ys)))
        return original(xs, ys)

    monkeypatch.setattr(cycloseq.autocorr, "_correlations", counted)
    return shapes


def test_the_row_table_is_the_autocorr_kernel_work(monkeypatch, capsys):
    # One table per pair: one _correlations call on each axis, the 3 line
    # indicators of the 8 triples along q and their 8 distinct rows along
    # p, the shorter axis. Reading a triple's profile adds no call.
    shapes = _count_autocorr_kernel_calls(monkeypatch)
    assert cli.main(["verify", "--p", "5", "--q", "7", "--all"]) == 0
    capsys.readouterr()
    assert shapes == [((3, 7), (3, 7)), ((8, 5), (8, 5))]
    shapes.clear()
    pairs = [(3, 5), (5, 7), (3, 17), (17, 19), (7, 61)]
    argv = ["sweep"] + [arg for p, q in pairs for arg in ("--pairs", f"{p},{q}")]
    assert cli.main(argv + ["--checks", "theorem1,correlation_identity"]) == 0
    capsys.readouterr()
    assert len(shapes) == 2 * len(pairs)


def test_the_row_table_holds_no_per_shift_array():
    # At (307, 311) a profile is n = 95477 int64 values; the table of all 8
    # triples holds its kernel outputs and line-to-row indices in fewer
    # bytes than n, so it holds no profile, no grid and no per-shift stack.
    pair = cli._Pair(OddPrimePair(307, 311))
    table = pair.table
    arrays = [table.across, table.along, table.own]
    assert all(isinstance(array, np.ndarray) for array in arrays)
    assert sum(array.nbytes for array in arrays) < pair.primes.n
    assert {name for name in table.__slots__
            if isinstance(getattr(table, name), np.ndarray)} == {
        "across", "along", "own"}


def test_residue_tables_are_built_once_per_pair(monkeypatch, capsys):
    # One per prime for the product table (its chi) and one per prime for
    # the residue-class codes that every by_class call of the pair reads;
    # 8 generate and 8 closed_form_profile calls add none.
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
    assert runs == {5: 2, 7: 2}


def test_legendre_runs_twice_per_pair(monkeypatch, capsys):
    # (-1/p) and (-1/q), once per pair: every triple's closed forms, its
    # expanded form and lemma1 read them off the pair, and the residue
    # tables are built from the squares, with no symbol evaluated.
    moduli = Counter()
    original = cycloseq.numtheory.legendre

    def legendre(a, r):
        moduli[a, r] += 1
        return original(a, r)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("cycloseq")
                and getattr(mod, "legendre", None) is original):
            monkeypatch.setattr(mod, "legendre", legendre)
    pairs = [(3, 5), (5, 7), (3, 17), (17, 19), (7, 61)]
    argv = ["sweep"] + [arg for p, q in pairs for arg in ("--pairs", f"{p},{q}")]
    assert cli.main(argv) == 2
    capsys.readouterr()
    assert moduli == Counter((-1, r) for pair in pairs for r in pair)


def test_sweep_without_profile_checks_builds_no_profile(calls, capsys):
    # theorem2 reads the reports, which are built from the params alone
    assert cli.main(["sweep", "--pairs", "5,7", "--checks", "theorem2"]) == 0
    capsys.readouterr()
    assert calls == {}


@pytest.mark.parametrize("argv,built", [
    (["autocorr", "--empirical", "--format", "json"],
     {"generate": 1, "RowTable": 1}),
    (["generate"], {"generate": 1}),
    (["adic"], {}),
    (["autocorr", "--both"],
     {"generate": 1, "RowTable": 1, "closed_form_profile": 1}),
    (["autocorr"], {"closed_form_profile": 1}),
], ids=["autocorr-empirical-json", "generate", "adic", "autocorr-both",
        "autocorr-per-shift"])
def test_each_command_builds_what_it_prints_once(calls, capsys, argv, built):
    # Every command builds through one cli._Pair, which builds a piece on
    # first use and at most once; a one-triple command's pair holds one
    # sequence and a one-row table.
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
    # Each check takes a pair and returns one result per triple, in the
    # pair's order; theorem2 fails where p = 3 makes the d_q argument 0.
    pair = cli._Pair(OddPrimePair(3, 17))
    assert pair.triples == cli.ALL_TRIPLES
    failed = CheckResult("theorem2", False, "d != max(d_p, d_q); min(d_p, d_q) != 1")
    for name in cli.CHECK_NAMES:
        assert cli.CHECKS[name](pair) == [
            failed if name == "theorem2" and abc in ((0, 0, 1), (1, 1, 0))
            else CheckResult(name, True) for abc in cli.ALL_TRIPLES], name


def test_sweep_rows_count_passing_check_results(capsys):
    assert cli.main(["sweep", "--pairs", "3,17", "--pairs", "5,7"]) == 2
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 16
    for row in rows:
        pair = cli._Pair(OddPrimePair(int(row["p"]), int(row["q"])),
                         ((int(row["a"]), int(row["b"]), int(row["c"])),))
        passed = sum(bool(check(pair)[0]) for check in cli.CHECKS.values())
        assert row["checks_passed"] == f"{passed}/{len(cli.CHECKS)}", row
    assert {row["checks_passed"] for row in rows} == {"3/4", "4/4"}


def test_lemma1_failure_is_reported_once_per_pair(monkeypatch, capsys):
    failed = CheckResult("lemma1", False, "gauss_gp_squared first differs at exponent 5")
    runs = Counter()

    def lemma1(factors):
        runs[factors.primes] += 1
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
    results = [(pair.params[t].abc, check["theorem1"])
               for pair, t, check in cli._checked(pairs, ((1, 0, 0), (0, 1, 0)),
                                                   ("theorem1",))]
    assert results == [(abc, CheckResult("theorem1", True))
                       for abc in ("100", "010") * 2]
