"""The README's "Library surface" block names only what the package exports,
and every export is either read by the package itself or documented there.
Its configuration block parses, every defaulted parameter of the package is
set by some call of the package or the benchmark harness, and the count of
settable values is pinned.  Every package binding the harness wraps resolves."""

import argparse
import ast
import importlib
import math
import re
import types
from pathlib import Path

import hszego
from hszego import cli
from hszego.config import RunConfig, parse_flat_config

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(hszego.__file__).resolve().parent
HARNESS = Path(__file__).resolve().parents[1] / "perfbench"


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
    assert sorted(keys - set(flat)) == []


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
    """Per called name: (positional argument count, keyword names) of each call.

    Only the package and the benchmark harness count (``perfbench/worker.py``
    sets ``main(argv)``): a value only tests set is a knob no run sets.
    """
    calls: dict[str, list[tuple[float, set]]] = {}
    for path in [*PACKAGE.glob("*.py"), *HARNESS.glob("*.py")]:
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


def _init_fields() -> list[tuple[str, str]]:
    """(class, field) of each dataclass field of the package that ``__init__`` takes."""
    out = []
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                continue
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign) or "ClassVar" in ast.unparse(stmt.annotation):
                    continue
                value = stmt.value
                if isinstance(value, ast.Call) and any(
                    kw.arg == "init" and getattr(kw.value, "value", True) is False
                    for kw in value.keywords
                ):
                    continue
                out.append((node.name, stmt.target.id))
    return out


def _config_keys() -> set[str]:
    """Every key the default config writes, with ``packet.N.*`` counted once."""
    lines = RunConfig().canonical_text().splitlines()
    return {re.sub(r"^packet\.\d+\.", "packet.N.", line.split(" = ", 1)[0]) for line in lines}


def _cli_flags() -> list[tuple[str, str]]:
    """(parser, first option string) of each CLI option other than ``-h``."""
    top = cli._build_parser()
    parsers = [top] + [
        sub
        for action in top._actions
        if isinstance(action, argparse._SubParsersAction)
        for sub in action.choices.values()
    ]
    return [
        (parser.prog, action.option_strings[0])
        for parser in parsers
        for action in parser._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    ]


def test_settable_value_count():
    # every value a caller, config file or command line can set; a new
    # option has to raise this figure on purpose
    counts = {
        "defaulted parameters": len(_defaulted_parameters()),
        "dataclass fields": len(_init_fields()),
        "config keys": len(_config_keys()),
        "cli flags": len(_cli_flags()),
    }
    assert sum(counts.values()) == 101, counts


def test_harness_bindings_resolve():
    # perfbench/spans.py wraps the package's functions at these bindings
    # (module, attribute); a moved or renamed name breaks only a traced
    # benchmark run, so it is checked here
    tree = ast.parse((HARNESS / "spans.py").read_text(encoding="utf-8"))
    bindings = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["BINDINGS"]
    )
    missing = []
    for entry in bindings.elts:
        module, attr = entry.elts[0].id, entry.elts[1].value
        owner = importlib.import_module(f"hszego.{module}")
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{module}.{attr}")
    assert len(bindings.elts) > 20
    assert missing == []
