"""The package's public names: `__all__` lists exactly what `__init__.py` binds."""
from __future__ import annotations

import ast
from pathlib import Path

import multirate_zeros

INIT = Path(multirate_zeros.__file__)


def imported_names() -> list[str]:
    """Every name an import statement in `__init__.py` binds."""
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names]


def test_every_listed_name_is_bound():
    assert [n for n in multirate_zeros.__all__ if not hasattr(multirate_zeros, n)] == []


def test_no_name_is_listed_twice():
    names = multirate_zeros.__all__
    assert sorted({n for n in names if names.count(n) > 1}) == []


def test_every_public_import_is_listed():
    public = [n for n in imported_names() if not n.startswith("_") or n == "__version__"]
    assert public
    assert [n for n in public if n not in multirate_zeros.__all__] == []
