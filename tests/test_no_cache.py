"""No tsmamba function keeps a process-wide cache.

With `functools.lru_cache` or `functools.cache` on a function, what a call
computes (and the calls a trace counts) would depend on the calls made
before it in the same process; the benchmark's per-op call counts must be
equal from op to op.  A per-instance `functools.cached_property` is allowed.
"""

import ast
from pathlib import Path

import pytest

import tsmamba

SOURCES = sorted(Path(tsmamba.__file__).resolve().parent.glob("*.py"))
CACHES = {"lru_cache", "cache"}


def _cache_uses(tree):
    """Line numbers of every functools.lru_cache / functools.cache reference,
    attribute or imported name."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in CACHES
                and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names if alias.name in CACHES]
    return lines


def test_sources_found():
    assert {"model.py", "numerics.py", "trajectory.py"} <= {p.name for p in SOURCES}


def test_the_check_sees_both_spellings():
    tree = ast.parse("import functools\nfrom functools import cache\n"
                     "@functools.lru_cache(maxsize=4)\ndef f(n):\n    return n\n")
    assert _cache_uses(tree) == [2, 3]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_uses_a_process_wide_cache(path):
    assert _cache_uses(ast.parse(path.read_text())) == [], path.name
