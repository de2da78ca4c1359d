"""Source rules that a unit test can enforce."""

import ast
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import cycloseq
from cycloseq import autocorr, cli, groupring

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cycloseq"


def test_no_assert_statements_in_src():
    # python -O strips asserts, so no correctness check may live in one.
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_the_golden_cli_transcripts_hold_under_python_O():
    # python -O strips every assert, so the twelve transcripts of
    # tests/golden/cli/, the failing verify --p 3 --q 17 among them, must
    # come out byte for byte under it too: no check lives in an assert.
    child = ("import json, runpy, sys\n"
             f"golden = runpy.run_path({str(ROOT / 'tests' / 'test_cli_golden.py')!r})\n"
             "print(json.dumps([sys.flags.optimize, [\n"
             "    (golden['golden_path'](command).read_text(encoding='utf-8'),\n"
             "     golden['transcript'](command.split()))\n"
             "    for command in golden['INVOCATIONS']]]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", child], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    optimize, pairs = json.loads(proc.stdout)
    assert optimize == 1 and len(pairs) == 12
    assert any(want.startswith("$ cycloseq verify --p 3 --q 17 --check theorem2,lemma1\n"
                               "exit 2\n") for want, _ in pairs)
    for want, got in pairs:
        assert got == want


def _exception_name(node) -> str:
    return getattr(node.func if isinstance(node, ast.Call) else node, "id", None)


def test_src_raises_only_what_cli_main_catches():
    # cli.main turns ValueError and OverflowError into "error: ..." and exit 1,
    # so an exception raised in src/ never reaches the user as a traceback; a
    # failed comparison is a CheckResult, not an exception.
    raised = {f"{path.relative_to(SRC)}:{node.lineno}": _exception_name(node.exc)
              for path in sorted(SRC.rglob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(), str(path)))
              if isinstance(node, ast.Raise)}
    assert raised
    assert {where: name for where, name in raised.items()
            if name not in {"ValueError", "OverflowError"}} == {}
    main = ast.parse(inspect.getsource(cli.main))
    caught = {_exception_name(elt)
              for handler in ast.walk(main) if isinstance(handler, ast.ExceptHandler)
              for elt in getattr(handler.type, "elts", [handler.type])}
    assert {"ValueError", "OverflowError"} <= caught


def _names_imported_from_package(source: str) -> set:
    return {alias.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "cycloseq"
            for alias in node.names}


def test_all_covers_the_demos_and_the_readme():
    # __all__ holds exactly what the demos and the README quick start import
    # from the package, so an export they stop using cannot linger, and
    # nothing it cannot resolve.
    sources = [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    sources += re.findall(r"```python\n(.*?)```", readme, re.S)
    used = set().union(*map(_names_imported_from_package, sources))
    assert {"SequenceParams", "generate", "complexity_report"} <= used
    assert set(cycloseq.__all__) - {"__version__"} == used
    for name in cycloseq.__all__:
        assert hasattr(cycloseq, name), name


def _package_modules_imported(source: str) -> set:
    """Modules of the package a module imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("cycloseq"):
                continue
            module = (node.module or "").removeprefix("cycloseq").strip(".")
            found |= ({module.split(".")[0]} if module
                      else {alias.name for alias in node.names})
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("cycloseq.")}
    return found


def test_check_layers_import_only_numtheory_and_sequence():
    # Only cli composes layers: the modules whose checks compare pieces they
    # are handed build nothing from each other.
    for name in ("autocorr", "groupring", "adic"):
        imported = _package_modules_imported((SRC / f"{name}.py").read_text())
        assert imported <= {"numtheory", "sequence"}, (name, imported)
        assert "sequence" in imported, name


def _calls_of(tree, names) -> list:
    """(name, line) of every call in tree of a function named in names."""
    return sorted((name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  for name in {getattr(node.func, "id", None),
                               getattr(node.func, "attr", None)} & names)


def test_only_cli_builds_the_pairs_blocks():
    # A pair's product table is built once, by cli._Pair; every library
    # check takes it as an argument. Its row table is built by cli._Pair
    # too, and by empirical_profile for one sequence.
    callers = {path.stem
               for path in sorted(SRC.rglob("*.py"))
               if _calls_of(ast.parse(path.read_text(), str(path)), {"crt_factors"})}
    assert callers == {"cli"}
    assert _top_level_users({"RowTable"}) == {"autocorr.empirical_profile", "cli._Pair"}
    # Every command builds through one path: in cli, the pair's pieces (its
    # family_bits stack of grids, both tables, the closed-form grids, which
    # its stacked pass reads a chunk of triples at a time, and the complexity
    # reports, built in the same chunks) are built only inside _Pair; every
    # command and check reads its row of each off the pair's. The pair
    # reorders nothing between Z_n and the grid: only the commands that print
    # Z_n order read it.
    tree = ast.parse((SRC / "cli.py").read_text())
    pair = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "_Pair")
    names = {"family_bits", "RowTable", "crt_basis", "crt_factors", "verify_lemma1",
             "closed_form_profile", "complexity_report"}
    built = _calls_of(pair, names)
    assert {name for name, _ in built} == names
    assert _calls_of(tree, names) == built
    assert _calls_of(tree, {"empirical_profile"}) == []
    assert _calls_of(pair, {"crt_read", "crt_grid"}) == []


def test_the_closed_forms_read_the_pairs_symbols_and_call_no_legendre():
    # (-1/p) and (-1/q) are taken once per pair, by OddPrimePair.epsilons;
    # the closed forms and the Lemma-1 identities of every triple read them
    # there, so none of them calls legendre, which tests its modulus for
    # primality on every call.
    for module, name in (("autocorr", "class_values"), ("groupring", "_expanded_matrix"),
                         ("groupring", "_lemma1")):
        tree = ast.parse((SRC / f"{module}.py").read_text())
        function = next(node for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name == name)
        assert "epsilons" in ast.dump(function), name
        assert _calls_of(function, {"legendre"}) == [], name


def test_only_by_class_lays_out_the_residue_classes():
    # sequence.by_class places {0}, P, Q and the units for every per-shift
    # vector; a strided fill such as bits[p::p] or a pointwise class test such
    # as lam % primes.p == 0 would be a second layout.
    found = [f"{path.relative_to(SRC)}:{lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for lineno, line in enumerate(path.read_text().splitlines(), 1)
             if re.search(r"::\s*(params\.)?[pq]\b", line)
             or re.search(r"%\s*[a-z_.]*\b[pq]\b\s*==\s*0", line)]
    assert found == []


def test_functions_the_benchmark_trace_names_stay_plain_functions():
    # The benchmark reports per-layer metrics of these functions; one that is
    # removed, renamed or wrapped would read as a silent "absent" entry.
    spec = importlib.util.spec_from_file_location("layertrace",
                                                  ROOT / "bench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    assert "numtheory.is_prime" in layertrace.NAMED
    for name in layertrace.NAMED:
        layer, function = name.split(".")
        module = importlib.import_module(f"cycloseq.{layer}")
        obj = getattr(module, function, None)
        assert inspect.isfunction(obj) and obj.__module__ == module.__name__, name


def test_cli_csv_text_is_the_one_csv_writer():
    # Every CSV table goes through cli._csv_text, so one cell rule holds.
    calls = [(path.stem, node.lineno)
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "writer"
             and getattr(node.func.value, "id", None) == "csv"]
    lines, start = inspect.getsourcelines(cli._csv_text)
    assert len(calls) == 1, calls
    assert calls[0][0] == "cli" and start <= calls[0][1] < start + len(lines)


def _top_level_users(names: set) -> set:
    """module.name of every top-level statement in src/ that uses one of
    names as a name, an attribute or an import."""
    users = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            users |= {f"{path.stem}.{getattr(top, 'name', top.lineno)}"
                      for node in ast.walk(top)
                      if node is not top and names & {
                          getattr(node, "id", None), getattr(node, "attr", None),
                          node.name if isinstance(node, ast.alias) else None}}
    return users


def _imports() -> set:
    """module.lineno of every top-level import statement in src/, as
    _top_level_users names it."""
    return {f"{path.stem}.{top.lineno}" for path in sorted(SRC.rglob("*.py"))
            for top in ast.parse(path.read_text(), str(path)).body
            if isinstance(top, (ast.Import, ast.ImportFrom))}


def test_only_generate_and_the_report_build_bits_from_params():
    # sequence.family_bits is called by sequence.generate, by cli._Pair for
    # its one stack of the pair's bits and by adic.complexity_report, which
    # packs the bits of its params itself; cli and adic import it, and adic
    # builds no sequence: no top-level statement of adic, its imports among
    # them, uses generate.
    assert _top_level_users({"family_bits"}) - _imports() == {
        "sequence.generate", "cli._Pair", "adic.complexity_report"}
    assert {user for user in _top_level_users({"generate"})
            if user.startswith("adic.")} == set()


def test_z_n_order_is_read_only_for_output_and_failure_details():
    # The check pass compares on the p x q grid. crt_read, grid -> Z_n, is
    # used by what prints or returns Z_n order (generate's bits, the T(2)
    # words of the report, the oracle empirical_profile, CrtElement.dense,
    # generate's and autocorr's output in cli), by first_difference, which
    # names a failing tau, and by RowTable, whose direct route correlates
    # over Z_n; crt_grid, Z_n -> grid, only by that route and the oracle.
    assert _top_level_users({"crt_read"}) - _imports() == {
        "sequence.first_difference", "sequence.generate", "adic.complexity_report",
        "autocorr.RowTable", "autocorr.empirical_profile", "groupring.CrtElement",
        "cli.cmd_generate", "cli._class_names", "cli.cmd_autocorr"}
    assert _top_level_users({"crt_grid"}) - _imports() == {
        "autocorr.RowTable", "autocorr.empirical_profile"}
    # first_difference is the one failure-detail reader: the checks that
    # name a shift call it, and nothing else does.
    assert _top_level_users({"first_difference"}) - _imports() == {
        "autocorr.verify_theorem1", "groupring.verify_lemma1"}


def test_crt_index_is_read_only_by_crt_read_and_crt_grid():
    # The Good-Thomas map lives in one place in both directions: every use of
    # sequence._crt_index sits inside crt_read (grid -> vector) or crt_grid
    # (vector -> grid).
    assert _top_level_users({"_crt_index"}) == {"sequence.crt_read", "sequence.crt_grid"}


def test_only_the_kernel_correlates():
    # sequence._correlations is the one exact int64 correlation kernel, with
    # its packing and size rule inside: np.correlate or np.convolve anywhere
    # else in src/ would be a second kernel.
    assert _top_level_users({"correlate", "convolve"}) == {"sequence._correlations"}


def test_only_contract_multiplies_matrices_in_groupring():
    # groupring._contract is the one int64 contraction there, with its bound
    # read from the data inside: a matmul, dot or einsum anywhere else in the
    # module would skip that bound.
    tree = ast.parse((SRC / "groupring.py").read_text())
    users = {top.name
             for top in tree.body
             for node in ast.walk(top)
             if node is not top and (
                 isinstance(getattr(node, "op", None), ast.MatMult)
                 or {"matmul", "dot", "einsum"} & {getattr(node, "id", None),
                                                   getattr(node, "attr", None)})}
    assert users == {"_contract"}


def test_only_contract_reads_row_peaks_in_groupring():
    # The int64 bound of a contraction comes from the rows it is handed:
    # groupring._peaks is used inside _contract alone, and an element holds
    # its primes, rows and weights and nothing else, so no cached bound can
    # come back and go stale.
    tree = ast.parse((SRC / "groupring.py").read_text())
    users = {getattr(top, "name", top.lineno)
             for top in tree.body
             for node in ast.walk(top)
             if isinstance(node, ast.Name) and node.id == "_peaks"}
    assert users == {"_contract"}
    assert groupring.CrtElement.__slots__ == ("primes", "us", "m", "vs")


def test_only_mul_calls_the_kernel_in_groupring():
    # groupring.mul is the one ring product: the pair's table, whose rows
    # are those of sigma(S) * S, and every element product go through it, so
    # every use of the correlation kernel in the module sits inside it, and
    # no second product path can grow back.
    tree = ast.parse((SRC / "groupring.py").read_text())
    users = {getattr(top, "name", top.lineno)
             for top in tree.body
             for node in ast.walk(top)
             if node is not top and "_correlations" in {getattr(node, "id", None),
                                                        getattr(node, "attr", None)}}
    assert users == {"mul"}


def test_only_the_row_table_calls_the_kernel_in_autocorr():
    # autocorr.RowTable is the one empirical route: its constructor makes
    # the pair's one kernel call per axis and its direct route one call per
    # sequence, so every use of the correlation kernel in the module sits
    # inside it and no per-triple route can grow back.
    tree = ast.parse((SRC / "autocorr.py").read_text())
    users = {getattr(top, "name", top.lineno)
             for top in tree.body
             for node in ast.walk(top)
             if node is not top and "_correlations" in {getattr(node, "id", None),
                                                        getattr(node, "attr", None)}}
    assert users == {"RowTable"}


def test_only_the_row_table_profile_multiplies_matrices_in_autocorr():
    # RowTable.profile is the one contraction of the row table, with the
    # bound of its partial sums argued in the class docstring: a matmul,
    # dot or einsum anywhere else in the module would be a second one.
    tree = ast.parse((SRC / "autocorr.py").read_text())
    products = [node.lineno for node in ast.walk(tree)
                if isinstance(getattr(node, "op", None), ast.MatMult)
                or {"matmul", "dot", "einsum", "tensordot"} & {getattr(node, "id", None),
                                                               getattr(node, "attr", None)}]
    lines, start = inspect.getsourcelines(autocorr.RowTable.profile)
    assert products and all(start <= line < start + len(lines) for line in products)


def _units() -> dict:
    """module.name -> node of every top-level statement in src/ other than
    an import, with each statement of a class body as module.Class.name."""
    units = {}
    for path in sorted(SRC.rglob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            if isinstance(top, ast.ClassDef):
                units.update({f"{path.stem}.{top.name}.{getattr(node, 'name', node.lineno)}":
                              node for node in top.body})
            elif not isinstance(top, (ast.Import, ast.ImportFrom)):
                units[f"{path.stem}.{getattr(top, 'name', top.lineno)}"] = top
    return units


def test_only_the_sequence_and_row_table_constructors_check_bits():
    # sequence._checked_bits is the one 0/1 check: every BinarySequence holds
    # bits its constructor passed through it, and every RowTable a stack its
    # constructor passed through it once; BinarySequence has no unchecked
    # _of to build a sequence around the check.
    units = _units()
    users = {name for name, node in units.items()
             if "_checked_bits" in {getattr(n, "id", None) for n in ast.walk(node)}}
    assert (users, "sequence.BinarySequence._of" in units) == (
        {"sequence.BinarySequence.__init__", "autocorr.RowTable.__init__"}, False)


def test_sweep_rows_build_no_json_dicts():
    # A sweep row zips SWEEP_COLUMNS with the values it prints. The autocorr
    # and adic JSON mappings compute fields no column prints (a sorted
    # distribution, complexity_float, deviations), so run_sweep reads none.
    users = _top_level_users({"profile_as_json_dict", "as_json_dict"})
    assert {"cli.cmd_autocorr", "cli.cmd_adic"} <= users
    assert "cli.run_sweep" not in users
