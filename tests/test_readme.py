"""The README's "Library surface" block names only what the package exports."""

import re
from pathlib import Path

import hszego

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_surface_names() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library surface", 1)[1]
    block = re.search(r"from hszego import \((.*?)\)", section, re.S).group(1)
    names = []
    for line in block.splitlines():
        names += [tok.strip() for tok in line.split("#", 1)[0].split(",") if tok.strip()]
    return names


def test_library_surface_names_are_exported():
    names = _library_surface_names()
    assert len(names) > 20
    missing = [name for name in names if not hasattr(hszego, name)]
    assert missing == []
