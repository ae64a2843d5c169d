"""The README's "Library surface" block names only what the package exports,
and every export is either read by the package itself or documented there."""

import ast
import re
import types
from pathlib import Path

import hszego

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(hszego.__file__).resolve().parent


def _library_surface_names() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library surface", 1)[1]
    block = re.search(r"from hszego import \((.*?)\)", section, re.S).group(1)
    names = []
    for line in block.splitlines():
        names += [tok.strip() for tok in line.split("#", 1)[0].split(",") if tok.strip()]
    return names


def _names_read_by_package() -> set[str]:
    """Every name the package's code reads, as a variable or an attribute.

    A ``def``/``class`` line, an import list and the strings of ``__all__``
    read nothing, so a name that only they mention is not in the set.
    """
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_library_surface_names_are_exported():
    names = _library_surface_names()
    assert len(names) > 20
    missing = [name for name in names if not hasattr(hszego, name)]
    assert missing == []


def test_no_export_exists_only_for_tests():
    documented = set(_library_surface_names())
    read = _names_read_by_package()
    exports = [
        name for name in hszego.__all__
        if not isinstance(getattr(hszego, name), types.ModuleType)
    ]
    orphans = [name for name in exports if name not in read and name not in documented]
    assert orphans == []
