"""The names the benchmark's tracer swaps must still exist in the package.

``bench/tracing.py`` wraps ``(module, attribute)`` pairs by name; a rename
under ``src/`` would make ``bench/run.py --trace 1`` fail at install time.
The site tables are read from the file's source, without importing it.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
TABLES = ("SPAN_SITES", "COUNT_SITES", "GENERATOR_SITES")


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
