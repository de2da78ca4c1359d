"""Source rules that a unit test can enforce."""

import ast
import importlib.util
import inspect
import re
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
    # sequences, both tables, the closed-form profiles, which its stacked
    # pass reads a chunk of triples at a time, and the complexity reports,
    # built in the same chunks) are built only inside _Pair; every command
    # and check reads its row of each off the pair's.
    tree = ast.parse((SRC / "cli.py").read_text())
    pair = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "_Pair")
    names = {"generate", "RowTable", "crt_basis", "crt_factors", "verify_lemma1",
             "closed_form_profile", "complexity_report"}
    built = _calls_of(pair, names)
    assert {name for name, _ in built} == names
    assert _calls_of(tree, names) == built
    assert _calls_of(tree, {"empirical_profile"}) == []


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


def test_only_generate_and_the_report_build_bits_from_params():
    # sequence.family_bits is called by sequence.generate and by
    # adic.complexity_report, which packs the bits of its params itself; adic
    # imports it, and builds no sequence: no top-level statement of adic,
    # its imports among them, uses generate.
    tree = ast.parse((SRC / "adic.py").read_text())
    imports = {f"adic.{top.lineno}" for top in tree.body
               if isinstance(top, (ast.Import, ast.ImportFrom))}
    assert _top_level_users({"family_bits"}) - imports == {"sequence.generate",
                                                          "adic.complexity_report"}
    assert {user for user in _top_level_users({"generate"})
            if user.startswith("adic.")} == set()


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


def test_only_generate_builds_unchecked_sequences():
    # Every BinarySequence holds bits that sequence._checked_bits passed. The
    # constructor takes its own bits through it; generate takes its whole
    # stack through it once and builds each row with the unchecked
    # BinarySequence._of, which nothing else calls. Every other _of in src/
    # is groupring's CrtElement._of.
    assert _top_level_users({"_checked_bits"}) == {"sequence.BinarySequence",
                                                   "sequence.generate"}
    tree = ast.parse((SRC / "sequence.py").read_text())
    seq_class = next(node for node in tree.body
                     if isinstance(node, ast.ClassDef) and node.name == "BinarySequence")
    assert {method.name for method in seq_class.body if isinstance(method, ast.FunctionDef)
            for node in ast.walk(method)
            if getattr(node, "id", None) == "_checked_bits"} == {"__init__"}
    owners = {getattr(node.value, "id", None)
              for path in SRC.rglob("*.py") for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Attribute) and node.attr == "_of"}
    assert owners == {"BinarySequence", "CrtElement"}
    assert (_top_level_users({"_of"}) & _top_level_users({"BinarySequence"})
            == {"sequence.generate"})


def test_sweep_rows_build_no_json_dicts():
    # A sweep row zips SWEEP_COLUMNS with the values it prints. The autocorr
    # and adic JSON mappings compute fields no column prints (a sorted
    # distribution, complexity_float, deviations), so run_sweep reads none.
    users = _top_level_users({"profile_as_json_dict", "as_json_dict"})
    assert {"cli.cmd_autocorr", "cli.cmd_adic"} <= users
    assert "cli.run_sweep" not in users
