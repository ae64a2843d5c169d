"""The README's "Library surface" block names only what the package exports,
and every export is either read by the package itself or documented there.
Its configuration block parses, and every defaulted parameter of the
package is set by some call."""

import ast
import math
import re
import types
from pathlib import Path

import hszego
from hszego.config import RunConfig, parse_flat_config

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(hszego.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


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


def test_readme_config_block_parses_and_names_every_key():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Configuration format", 1)[1]
    flat = parse_flat_config(re.search(r"```ini\n(.*?)```", section, re.S).group(1))
    written = RunConfig.from_mapping(flat).canonical_text().splitlines()
    keys = {line.split(" = ", 1)[0] for line in written}
    # one tolerance line stands for all of them
    assert sorted(k for k in keys if not k.startswith("tolerance.") and k not in flat) == []


def _defaulted_parameters():
    """(function, parameter, position in a call) of each defaulted parameter of the package.

    The position skips ``self``/``cls``; keyword-only parameters have none.
    """
    out = []
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            shift = 1 if positional and positional[0].arg in ("self", "cls") else 0
            for i in range(len(positional) - len(args.defaults), len(positional)):
                out.append((node.name, positional[i].arg, i - shift))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out.append((node.name, arg.arg, None))
    return out


def _calls() -> dict[str, list[tuple[float, set]]]:
    """Per called name: (positional argument count, keyword names) of each call."""
    calls: dict[str, list[tuple[float, set]]] = {}
    for path in [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            star = any(isinstance(arg, ast.Starred) for arg in node.args)
            npos = math.inf if star else len(node.args)
            calls.setdefault(name, []).append((npos, {kw.arg for kw in node.keywords}))
    return calls


def test_every_default_is_set_by_some_call():
    # a parameter no call sets is a constant spelled as a knob; a call that
    # passes **kwargs (keyword None) may set any parameter
    calls = _calls()
    unset = [
        f"{fn}({name}=)"
        for fn, name, pos in _defaulted_parameters()
        if not any(
            name in kws or None in kws or (pos is not None and npos > pos)
            for npos, kws in calls.get(fn, [])
        )
    ]
    assert unset == []
