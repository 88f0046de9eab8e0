"""The names the benchmark uses must still exist in the package.

``bench/tracing.py`` wraps ``(module, attribute)`` pairs by name; a rename
under ``src/`` would make ``bench/run.py --trace 1`` fail at install time.
The workloads call the package as ``P.<name>(..., keyword=...)``; a removed
name or parameter would fail them at run time. Everything is read from the
files' source with ``ast``, without importing anything from ``bench/``.
The package also keeps no dead import, apart from the names the tracer
swaps in the importing module, which must stay bound there.
"""

import ast
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
