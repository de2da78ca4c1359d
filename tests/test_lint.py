"""Source rules that a unit test can enforce."""

import ast
import importlib.util
import inspect
import re
from pathlib import Path

import cycloseq
from cycloseq import cli

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
    # A pair's CRT blocks and sign products are built once, by cli._Pair;
    # every library check takes them as arguments.
    callers = {path.stem
               for path in sorted(SRC.rglob("*.py"))
               if _calls_of(ast.parse(path.read_text(), str(path)),
                            {"crt_blocks", "crt_sign_products"})}
    assert callers == {"cli"}
    # Every command builds through one path: in cli, the pair's pieces are
    # built only inside _Pair and the instance's only inside _Instance.
    tree = ast.parse((SRC / "cli.py").read_text())
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    for owner, names in (("_Pair", {"crt_blocks", "verify_lemma1",
                                    "crt_sign_products"}),
                         ("_Instance", {"generate", "empirical_profile",
                                        "closed_form_profile", "complexity_report"})):
        built = _calls_of(classes[owner], names)
        assert {name for name, _ in built} == names, owner
        assert _calls_of(tree, names) == built, owner


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
