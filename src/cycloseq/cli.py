"""Command-line front end.

Subcommands: generate, autocorr, adic, verify, sweep. Exit codes: 0 success,
1 usage/parameter error, input too large for int64 group-ring arithmetic, an
allocation the machine refused (MemoryError) or an output file that cannot
be written (OSError), 2 at least one theorem check failed. Data files are
byte-identical across reruns of the same invocation: rows are emitted in
sorted order and no timestamps or environment details are written.

This is the only module that composes the layers, and all five commands
build through ``_Pair``. A ``_Pair`` holds the triples a command reads and
the checks it runs, and builds their bits, one ``family_bits`` stack of
grids, its ``RowTable`` (one kernel call per axis for all of them), their
closed-form profiles and the product table, one ``mul`` over the basis
(delta, J, chi) of each prime (the package's one ``crt_factors`` call),
which ``lemma1`` reads once and ``correlation_identity`` contracts with no
product of its own. theorem1 and correlation_identity run as one pass per
pair, over chunks of max(1, 2**13 // n) triples: a chunk's empirical
profiles are one stacked read of the row table and its closed forms one
``by_class``, and both checks compare the chunk's grids at once, keeping
one ``CheckResult`` per triple and check, not the profiles. Its
complexity reports are one stacked ``complexity_report`` of the params per
chunk of the same size, which builds no sequence. Each piece is built on
first use and at most once, so a command builds only the pieces it prints;
``generate``, ``autocorr`` and ``adic`` read row 0 of a one-triple pair, in
Z_n order (``crt_read``) only where they print it.
``verify``, ``sweep`` and the acceptance gate run the ``CHECKS`` registry
through one pair x triple loop, ``_checked``, which runs each check once per
pair and yields row t of its results with the pair; a check is a function
of one ``_Pair`` that returns one ``CheckResult`` per triple, in
``pair.triples`` order. Every CSV table is written by ``_csv_text``; a sweep
row is ``SWEEP_COLUMNS`` zipped with one tuple of values.
"""

import argparse
import csv
import io
import json
import sys
from functools import cached_property

import numpy as np

from . import adic
from . import autocorr as ac
from . import groupring as gr
from .numtheory import OddPrimePair, odd_prime_pairs
from .sequence import (BinarySequence, SequenceParams, as_json_dict, bitstring, by_class,
                       crt_read, family_bits)

ALL_TRIPLES = tuple((a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1))

ADIC_COLUMNS = ("p", "q", "a", "b", "c", "n", "d", "d_p", "d_q", "d_star",
                "best_value", "complexity_float")

SWEEP_COLUMNS = ("p", "q", "a", "b", "c", "n", "family", "ac_P", "ac_Q",
                 "ac_unit_plus", "ac_unit_minus", "max_abs", "d", "d_p", "d_q",
                 "d_star", "best_value", "checks_passed")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage by default; the contract wants 1.

    ``add_args``, when given, adds this parser's arguments on its first
    ``parse_known_args``. Each ``add_argument`` builds a help formatter that
    asks the terminal for its size, so a call builds only the subcommand it
    runs; help and usage text come out the same.
    """

    def __init__(self, *args, add_args=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_args = add_args

    def parse_known_args(self, args=None, namespace=None):
        if self._add_args is not None:
            add_args, self._add_args = self._add_args, None
            add_args(self)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _pair_args(parser):
    parser.add_argument("--p", type=int, required=True, help="first odd prime")
    parser.add_argument("--q", type=int, required=True, help="second odd prime")


def _bit_args(parser):
    parser.add_argument("--abc", help="fill bits as a compact string, e.g. 100")
    parser.add_argument("--a", type=int, help="fill bit on nonzero multiples of p")
    parser.add_argument("--b", type=int, help="fill bit on nonzero multiples of q")
    parser.add_argument("--c", type=int, help="fill bit at position 0")


def _pair_from(args) -> "_Pair":
    if args.abc is not None:
        if args.a is not None or args.b is not None or args.c is not None:
            raise ValueError("use either --abc or --a/--b/--c, not both")
        if len(args.abc) != 3 or set(args.abc) - {"0", "1"}:
            raise ValueError("--abc must be exactly three characters, each 0 or 1")
        a, b, c = (int(ch) for ch in args.abc)
    elif args.a is not None and args.b is not None and args.c is not None:
        a, b, c = args.a, args.b, args.c
    else:
        raise ValueError("fill bits required: pass --abc or all of --a/--b/--c")
    return _Pair(OddPrimePair(args.p, args.q), ((a, b, c),))


def _write_out(text: str, out) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_cell(value):
    if isinstance(value, bool):
        return str(value).lower()
    return f"{value:.6f}" if isinstance(value, float) else value


def _csv_text(columns, rows) -> str:
    """The one CSV writer: booleans print lower-case, floats to six decimals."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_csv_cell(value) for value in row] for row in rows)
    return buf.getvalue()


# A stacked pass of the checks reads at most max(1, _CHUNK_VALUES // n)
# triples at a time, so its per-shift stacks hold about this many values.
_CHUNK_VALUES = 1 << 13


class _Pair:
    """One prime pair, the triples a command reads of it and the checks it
    runs on them. Its bits (grid t of the (k, p, q) stack is triple t), row
    table, product table, lemma1, the results of the stacked pass and the
    complexity reports are each built on first use only."""

    def __init__(self, primes: OddPrimePair, triples=ALL_TRIPLES,
                 checks=("theorem1", "correlation_identity")):
        self.primes = primes
        self.triples = tuple(triples)
        self.params = tuple(SequenceParams(primes, *abc) for abc in self.triples)
        self.checks = tuple(checks)

    @cached_property
    def bits(self):
        return family_bits(self.params)

    @cached_property
    def table(self):
        return ac.RowTable(self.primes, self.bits)

    @cached_property
    def factors(self):
        return gr.crt_factors(gr.crt_basis(self.primes))

    @cached_property
    def lemma1(self):
        return gr.verify_lemma1(self.factors)

    def closed(self, rows):
        """The closed-form grid of triple ``rows``, or the (k, p, q) stack of a
        slice of triples."""
        return ac.closed_form_profile(self.params[rows])

    def _chunks(self):
        """Slices of max(1, _CHUNK_VALUES // n) triples that cover the pair's."""
        step = max(1, _CHUNK_VALUES // self.primes.n)
        return [slice(start, start + step) for start in range(0, len(self.triples), step)]

    @cached_property
    def reports(self) -> list:
        """The complexity report of every triple: one stacked
        ``complexity_report`` per chunk of triples."""
        return [report for rows in self._chunks()
                for report in adic.complexity_report(self.params[rows])]

    @cached_property
    def results(self) -> dict:
        """The ``CheckResult`` of every triple, in a list per check, for
        theorem1 and correlation_identity as far as the pair runs them: one
        pass over chunks of max(1, _CHUNK_VALUES // n) triples, in which each
        chunk's empirical and closed-form stacks are read once and serve
        both checks."""
        results = {name: [] for name in ("theorem1", "correlation_identity")
                   if name in self.checks}
        if not results:
            return results
        for rows in self._chunks():
            emp, closed = self.table.profile(rows), self.closed(rows)
            if "theorem1" in results:
                results["theorem1"] += ac.verify_theorem1(emp, closed)
            if "correlation_identity" in results:
                results["correlation_identity"] += gr.verify_correlation_identity(
                    self.factors, self.params[rows], self.bits[rows], emp, closed)
        return results


def cmd_generate(args) -> int:
    pair = _pair_from(args)
    seq = BinarySequence(pair.params[0], crt_read(pair.primes, pair.bits[0]))
    if args.format == "bits":
        text = bitstring(seq) + "\n"
    else:
        text = json.dumps(as_json_dict(seq)) + "\n"
    _write_out(text, args.out)
    return 0


def _class_names(primes: OddPrimePair) -> np.ndarray:
    return crt_read(primes, by_class(primes, "zero", "p", "q", "unit", "unit", object))


def cmd_autocorr(args) -> int:
    if args.aggregate and args.format == "json":
        raise ValueError("--aggregate shapes CSV output only; "
                         "JSON always carries the distribution")
    pair = _pair_from(args)
    params = pair.params[0]
    per_shift = args.format == "csv" and not args.aggregate
    emp = pair.table.profile(0) if args.empirical or args.both else None
    closed = pair.closed(0) if args.both or (per_shift and not args.empirical) else None
    profile = ac.distribution(params, emp if args.empirical else None)
    all_match = ac.verify_theorem1(emp, closed).ok if args.both else True

    if args.format == "json":
        obj = ac.profile_as_json_dict(profile)
        if args.both:
            obj["empirical_matches_closed"] = all_match
        text = json.dumps(obj) + "\n"
    else:
        if args.aggregate:
            text = _csv_text(("value", "count"), sorted(profile.distribution.items()))
        elif args.both:
            emp, closed = crt_read(pair.primes, emp), crt_read(pair.primes, closed)
            text = _csv_text(("tau", "class", "empirical", "closed", "match"),
                             zip(range(params.n), _class_names(pair.primes), emp.tolist(),
                                 closed.tolist(), (emp == closed).tolist()))
        else:
            single = crt_read(pair.primes, emp if args.empirical else closed)
            text = _csv_text(("tau", "class", "c_s"),
                             zip(range(params.n), _class_names(pair.primes), single.tolist()))
        dist = " ".join(f"{v}:{c}" for v, c in sorted(profile.distribution.items()))
        text += (f"# distribution: {dist}\n"
                 f"# family: {profile.family.value}\n"
                 f"# max_nontrivial_abs: {profile.max_nontrivial_abs}\n")
        if args.both:
            text += f"# empirical_matches_closed: {str(all_match).lower()}\n"

    _write_out(text, args.out)
    return 0 if all_match else 2


def cmd_adic(args) -> int:
    obj = _pair_from(args).reports[0].as_json_dict()
    if args.format == "json":
        text = json.dumps(obj) + "\n"
    else:
        text = _csv_text(ADIC_COLUMNS, [[obj[col] for col in ADIC_COLUMNS]])
    _write_out(text, args.out)
    return 0


CHECKS = {
    "theorem1": lambda pair: pair.results["theorem1"],
    "lemma1": lambda pair: [pair.lemma1] * len(pair.triples),
    "theorem2": lambda pair: [adic.verify_theorem2(report) for report in pair.reports],
    "correlation_identity": lambda pair: pair.results["correlation_identity"],
}

CHECK_NAMES = tuple(CHECKS)


def _checked(pairs, triples, checks):
    """Yield (pair, t, {name: CheckResult}) per pair x triple, each check run
    once per pair and the pairs built in turn."""
    for primes in pairs:
        pair = _Pair(primes, triples, checks)
        results = {name: CHECKS[name](pair) for name in checks}
        for t in range(len(pair.triples)):
            yield pair, t, {name: results[name][t] for name in checks}


def _parse_checks(values) -> tuple:
    if not values:
        return CHECK_NAMES
    names = []
    for value in values:
        names.extend(part.strip() for part in value.split(",") if part.strip())
    bad = [n for n in names if n not in CHECK_NAMES]
    if bad:
        raise ValueError(f"unknown checks: {', '.join(bad)}; "
                         f"choose from {', '.join(CHECK_NAMES)}")
    if not names:
        raise ValueError("at least one check must be selected")
    return tuple(n for n in CHECK_NAMES if n in names)


def cmd_verify(args) -> int:
    primes = OddPrimePair(args.p, args.q)
    checks = _parse_checks(args.check)
    failures = {}
    for pair, t, results in _checked((primes,), ALL_TRIPLES, checks):
        # Each check reports its first failing triple; lemma1 has none.
        for name, result in results.items():
            if not result and name not in failures:
                where = "" if name == "lemma1" else f"abc={pair.params[t].abc} "
                failures[name] = where + result.detail
    for name in checks:
        verdict = f"FAIL ({failures[name]})" if name in failures else "PASS"
        print(f"{name} (p={primes.p}, q={primes.q}): {verdict}")
    passed = len(checks) - len(failures)
    print(f"{passed}/{len(checks)} checks pass")
    return 0 if not failures else 2


def build_sweep_spec(args) -> tuple:
    pairs = []
    if args.max_n is not None:
        pairs.extend(odd_prime_pairs(args.max_n))
    for text in args.pairs or ():
        try:
            p, q = map(int, text.split(","))
        except ValueError:  # not two parts, or a part that is not an integer
            raise ValueError(f"--pairs expects 'p,q', got {text!r}") from None
        pairs.append(OddPrimePair(p, q))
    pairs = sorted(set(pairs), key=lambda pr: (pr.p, pr.q))
    if not pairs:
        raise ValueError("no prime pairs selected: pass --max-n and/or --pairs")

    if args.triples in (None, "all"):
        triples = ALL_TRIPLES
    else:
        texts = [text.strip() for text in args.triples.split(",")]
        for text in texts:
            if len(text) != 3 or set(text) - {"0", "1"}:
                raise ValueError(f"--triples entries must be three bits, got {text!r}")
        # bit tuples sort as the integers abc they spell
        triples = tuple(sorted({tuple(int(ch) for ch in text) for text in texts}))
    checks = _parse_checks(None if args.checks in (None, "all") else [args.checks])
    return pairs, triples, checks


def run_sweep(pairs, triples, checks):
    """Rows sorted by (p, q, abc-as-integer), each ``SWEEP_COLUMNS`` zipped with
    the values it prints; returns (rows, failing_row_count)."""
    rows = []
    failing = 0
    for pair, t, results in _checked(pairs, triples, checks):
        passed = sum(map(bool, results.values()))
        if passed < len(checks):
            failing += 1
        x, report = pair.params[t], pair.reports[t]
        profile = ac.distribution(x)
        rows.append(dict(zip(SWEEP_COLUMNS, (
            x.p, x.q, x.a, x.b, x.c, x.n, profile.family.value, profile.value_class_p,
            profile.value_class_q, profile.value_unit_plus, profile.value_unit_minus,
            profile.max_nontrivial_abs, report.d_exact, report.d_p, report.d_q, 1,
            report.best_value, f"{passed}/{len(checks)}"))))
    return rows, failing


def render_sweep(rows, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows) + "\n"
    return _csv_text(SWEEP_COLUMNS, ([row[col] for col in SWEEP_COLUMNS] for row in rows))


def cmd_sweep(args) -> int:
    pairs, triples, checks = build_sweep_spec(args)
    rows, failing = run_sweep(pairs, triples, checks)
    _write_out(render_sweep(rows, args.format), args.out)
    summary = (f"sweep: {len(rows)} rows ({len(pairs)} pairs x "
               f"{len(triples)} triples), {failing} rows with failing checks\n")
    stream = sys.stdout if args.out else sys.stderr
    stream.write(summary)
    return 0 if failing == 0 else 2


def _generate_args(parser):
    _pair_args(parser)
    _bit_args(parser)
    parser.add_argument("--format", choices=("bits", "json"), default="bits")
    parser.add_argument("--out", help="output path (default: stdout)")


def _autocorr_args(parser):
    _pair_args(parser)
    _bit_args(parser)
    route = parser.add_mutually_exclusive_group()
    route.add_argument("--empirical", action="store_true",
                       help="recompute every shift from the sequence")
    route.add_argument("--closed", action="store_true",
                       help="evaluate the per-class closed form (default)")
    route.add_argument("--both", action="store_true",
                       help="compute both routes and compare; mismatch exits 2")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--aggregate", action="store_true",
                        help="CSV as (value, count) rows instead of per-shift rows")
    parser.add_argument("--out", help="output path (default: stdout)")


def _adic_args(parser):
    _pair_args(parser)
    _bit_args(parser)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", help="output path (default: stdout)")


def _verify_args(parser):
    _pair_args(parser)
    which = parser.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true", help="run every check (default)")
    which.add_argument("--check", action="append",
                       help="check name (repeatable or comma-separated): "
                            + ", ".join(CHECK_NAMES))


def _sweep_args(parser):
    parser.add_argument("--max-n", type=int, help="include all pairs with p*q <= this")
    parser.add_argument("--pairs", action="append", help="explicit pair 'p,q' (repeatable)")
    parser.add_argument("--triples", help="comma-separated bit triples, or 'all' (default)")
    parser.add_argument("--checks", help="comma-separated subset of: "
                                         + ", ".join(CHECK_NAMES) + " (default all)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", help="output path (default: stdout; summary goes "
                                      "to the other stream)")


# name -> (help, the function that adds its arguments, command)
_COMMANDS = {
    "generate": ("emit one period of S(a, b, c)", _generate_args, cmd_generate),
    "autocorr": ("autocorrelation values and distribution", _autocorr_args, cmd_autocorr),
    "adic": ("exact 2-adic complexity report", _adic_args, cmd_adic),
    "verify": ("run theorem checks for one prime pair", _verify_args, cmd_verify),
    "sweep": ("batch table over pairs and fill bits", _sweep_args, cmd_sweep),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cycloseq",
                     description="Two-prime cyclotomic binary sequences: "
                                 "generation, autocorrelation, 2-adic complexity.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, func) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, add_args=add_args).set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (ValueError, OverflowError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
