"""The names the benchmark uses must still exist in the package.

``bench/tracing.py`` wraps ``(module, attribute)`` pairs by name; a rename
under ``src/`` would make ``bench/run.py --trace 1`` fail at install time.
The workloads call the package as ``P.<name>(..., keyword=...)``; a removed
name or parameter would fail them at run time. Everything is read from the
files' source with ``ast``, without importing anything from ``bench/``.
The package also keeps no dead import, apart from the names the tracer
swaps in the importing module, which must stay bound there and be called
through that name (``mp_search`` draws its trees through
``parsimony.enumerate_topologies``, or ``trees.topologies`` counts none), and
imports no
threading module: it runs in its caller's thread. No module imports ``os``:
a run reads its arguments, never the environment. Only the CLI imports
``time``: it alone reads a clock. Every refusal is a ValueError or the
CLI's UsageError, so it reaches ``cli.run``'s one-line handler. No module
calls ``np.log`` or ``math.fsum``: either rounds some costs differently
from the ``math.log`` left-to-right sums every reported number comes from.
"""

import ast
import builtins
import importlib
import inspect
from pathlib import Path

import pytest

import parsiml

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"
SRC = Path(parsiml.__file__).resolve().parent
TABLES = ("SPAN_SITES", "COUNT_SITES", "GENERATOR_SITES")
# names the package is bound to in bench/*.py
ROOTS = ("P", "parsiml")


def site_tables() -> dict:
    tables = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in TABLES:
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_every_table_found():
    tables = site_tables()
    assert sorted(tables) == sorted(TABLES)
    assert all(tables.values())


@pytest.mark.parametrize("table", TABLES)
def test_sites_resolve(table):
    for module_name, attr, _ in site_tables()[table]:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), \
            f"{module_name}.{attr} is gone"


def package_chain(node) -> list[str] | None:
    """["EdgeProbs", "uniform"] for ``P.EdgeProbs.uniform``; else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in ROOTS and names:
        return names[::-1]
    return None


def bench_uses() -> tuple[set, set]:
    """Every package attribute chain read, and every (chain, keyword) passed."""
    chains, keywords = set(), set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            chain = package_chain(node)
            if chain:
                chains.add(tuple(chain))
            if isinstance(node, ast.Call):
                chain = package_chain(node.func)
                if chain:
                    keywords.update((tuple(chain), kw.arg)
                                    for kw in node.keywords if kw.arg)
    return chains, keywords


def resolve(chain):
    """The package object a chain names, or None once it is gone."""
    obj = parsiml
    for name in chain:
        obj = getattr(obj, name, None)
    return obj


def test_bench_names_resolve():
    chains, _ = bench_uses()
    assert {("EdgeProbs", "uniform"), ("reduction", "ml_search")} <= chains
    missing = [".".join(c) for c in sorted(chains) if resolve(c) is None]
    assert not missing, f"bench reads names the package lacks: {missing}"


def test_bench_keywords_are_parameters():
    _, keywords = bench_uses()
    assert {(("ml_search",), "n_jobs"), (("pattern_likelihoods",), "anchor"),
            (("verify_claim1",), "epsilon"), (("verify_claim2",), "trials"),
            (("verify_claim2",), "seed"), (("verify_claim3",), "trials"),
            (("verify_claim3",), "seed"), (("verify_claim3",), "epsilon"),
            (("OptimizerConfig",), "seed")} <= keywords
    unknown = []
    for chain, keyword in sorted(keywords):
        target = resolve(chain)
        params = inspect.signature(target).parameters if target else {}
        takes_any = any(p.kind is p.VAR_KEYWORD for p in params.values())
        if keyword not in params and not takes_any:
            unknown.append(f"{'.'.join(chain)}({keyword}=)")
    assert not unknown, f"bench passes keywords the package lacks: {unknown}"


def test_mp_search_grows_through_the_swapped_name(monkeypatch):
    # the tracer counts trees.topologies by swapping the grower's name in
    # parsimony; a search bound to the grower any other way counts nothing
    from parsiml import parsimony

    assert ("parsiml.parsimony", "enumerate_topologies") in {
        (module, attr) for module, attr, _ in site_tables()["GENERATOR_SITES"]}
    drawn = []
    grower = parsimony.enumerate_topologies

    def counting(*args, **kwargs):
        for tree in grower(*args, **kwargs):
            drawn.append(tree)
            yield tree

    monkeypatch.setattr(parsimony, "enumerate_topologies", counting)
    _, optima = parsiml.mp_search(parsiml.random_instance(6, 8, 0))
    assert optima and set(optima) <= set(drawn)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_no_dead_imports(path):
    module = ast.parse(path.read_text())
    imported = set()
    for node in module.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    swapped = {attr for sites in site_tables().values()
               for module_name, attr, _ in sites
               if module_name == f"parsiml.{path.stem}"}
    dead = sorted(imported - used - swapped)
    assert not dead, f"{path.name} imports names it never uses: {dead}"


def top_level_imports(path) -> set:
    """The top-level package of every module ``path`` imports."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    return imported


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_thread(path):
    threaded = {"threading", "concurrent", "multiprocessing"}
    imported = top_level_imports(path)
    assert not imported & threaded, \
        f"{path.name} imports {sorted(imported & threaded)}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_environment(path):
    assert "os" not in top_level_imports(path), f"{path.name} imports os"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_clock(path):
    # the CLI times a verify check; a library report carries no wall clock
    if path.name != "cli.py":
        assert "time" not in top_level_imports(path), \
            f"{path.name} imports time"


# calls that would round a cost differently from math.log summed in order
# (np.log differs from math.log in the last bit on some inputs)
ROUNDING_CALLS = {("np", "log"), ("numpy", "log"), ("math", "fsum")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_costs_keep_their_bits(path):
    module = ast.parse(path.read_text())
    calls = sorted(
        f"{node.value.id}.{node.attr}" for node in ast.walk(module)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and (node.value.id, node.attr) in ROUNDING_CALLS)
    imported = sorted(
        f"{node.module}.{alias.name}" for node in ast.walk(module)
        if isinstance(node, ast.ImportFrom) for alias in node.names
        if (node.module, alias.name) in ROUNDING_CALLS)
    assert not calls + imported, \
        f"{path.name} uses {calls + imported} in place of math.log"


def raised_names(path):
    """(function, name) for every ``raise`` in ``path``: the exception's
    class name, or None for a bare re-raise or an expression."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.append((function, getattr(exc, "id", None)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_refusals_reach_the_one_line_handler(path):
    # cli.run prints a UsageError or ValueError as one stderr line, exit 1;
    # a catch-all except would turn a bug into a refusal or hide it
    from parsiml.cli import UsageError

    module = importlib.import_module(f"parsiml.{path.stem}")
    stray = []
    for function, name in raised_names(path):
        cls = getattr(module, name, getattr(builtins, name, None)) \
            if name else None
        ok = (isinstance(cls, type) and issubclass(cls, ValueError)
              or cls is UsageError
              or (path.name, function, cls) == ("cli.py", "main", SystemExit))
        if not ok:
            stray.append(f"{function}: raise {name}")
    assert not stray, f"{path.name} raises outside the refusal types: {stray}"
    catch_all = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ExceptHandler)
                 and (node.type is None
                      or getattr(node.type, "id", None) == "Exception")]
    assert not catch_all, f"{path.name} catches everything at {catch_all}"
