"""The README's "Library surface" block names only what the package exports,
and every export is either read by the package itself or documented there.
Its configuration block parses, every defaulted parameter of the package is
set by some call of the package or the benchmark harness, and the count of
settable values is pinned.  Every package binding the harness wraps resolves,
and so do the other package names the harness reads and the modules'
``__all__`` lists, which cover what the package imports from its own
modules.  The pipeline in ``transform`` leaves the slice step to
``_kernels`` and the CR stencil to ``forms``, and the dense oracles share
no code with that pipeline beyond an allowed list.  The package runs on
numpy alone, as the README's install line says, and the README's CLI
section names exactly the subcommands the parser has."""

import argparse
import ast
import fnmatch
import importlib
import math
import os
import re
import subprocess
import sys
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
    assert sum(counts.values()) == 70, counts


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


def test_harness_reads_outside_its_bindings_resolve():
    # every benchmark run, traced or not, also reads these: perfbench/worker.py
    # records hszego._kernels.active_backend(), and perfbench/inputs.py and
    # perfbench/tests read RunConfig().grid2, .grid, .sig and .tolerances and
    # import names from the package
    missing = []
    for path in [*HARNESS.glob("*.py"), *HARNESS.glob("tests/*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hszego"):
                owner = importlib.import_module(node.module)
                missing += [
                    f"{node.module}.{alias.name}"
                    for alias in node.names
                    if not hasattr(owner, alias.name)
                ]
    assert missing == []
    assert isinstance(importlib.import_module("hszego._kernels").active_backend(), str)
    cfg = RunConfig()
    assert cfg.grid2 == hszego.GridSpec(3.5, 17, 30.0, 128)
    assert isinstance(cfg.grid, hszego.GridSpec) and cfg.sig.n == 1
    assert "wrap_share" in cfg.tolerances


def test_module_all_lists_resolve_and_cover_package_imports():
    # a name deleted from a module but left in its __all__ fails the first
    # check; a name the package imports from a module that does not list it
    # (e.g. a re-export through hszego/__init__.py) fails the second
    missing, unlisted = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "hszego" if path.stem == "__init__" else f"hszego.{path.stem}"
        module = importlib.import_module(name)
        listed = getattr(module, "__all__", ())  # the private _kernels has none
        missing += [f"{name}.{attr}" for attr in listed if not hasattr(module, attr)]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                owner = importlib.import_module(f"hszego.{node.module}")
                unlisted += [
                    f"{path.stem}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name not in getattr(owner, "__all__", ())
                ]
    assert missing == []
    assert unlisted == []


def test_package_imports_no_scipy():
    # numpy is the one runtime dependency: a fresh interpreter that imports
    # the package and its CLI loads no scipy module
    code = (
        "import sys, hszego, hszego.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
    assert "# runtime deps: numpy\n" in README.read_text(encoding="utf-8")


def test_transform_leaves_the_slice_step_to_kernels_and_the_stencil_to_forms():
    # the pipeline projects each slice with one _kernels call and takes the
    # CR residual through one forms entry: the sector moves and norms are
    # named only in _kernels, and transform reads no other private name of forms
    tree = ast.parse((PACKAGE / "transform.py").read_text(encoding="utf-8"))
    names, private = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id == "forms":
                private |= {node.attr} if node.attr.startswith("_") else set()
        elif isinstance(node, ast.ImportFrom) and node.module == "forms":
            private |= {alias.name for alias in node.names if alias.name.startswith("_")}
    sector = {"to_sectors", "apply_sectors", "from_sectors", "sector_sq", "sector_weights"}
    assert names & sector == set()
    assert private == {"_slab_cr_sq"}


def test_gate_takes_worst_values_without_builtin_max_or_min():
    # builtin max and min drop a NaN that comes after a finite value, so a
    # criterion's worst value is folded with numpy's, which keep it; the one
    # builtin call left is C01's quadrature node count, an int
    tree = ast.parse((PACKAGE / "verification.py").read_text(encoding="utf-8"))
    calls = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in ("max", "min")):
                    calls.append((fn.name, node.func.id, ast.unparse(node.args[0])))
    assert calls == [("c01_gamma", "max", "256")]


def _cli_section_commands() -> tuple[set[str], set[str]]:
    """The subcommands README's ``## CLI`` section runs in its code block and
    the ones its bullet list describes."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    run = {line.split()[1] for line in block.splitlines() if line.startswith("hszego ")}
    described = set(re.findall(r"^\* `([a-z-]+)`", section, re.M))
    return run, described


def test_readme_cli_section_names_exactly_the_subcommands():
    # a subcommand deleted from the parser must leave the docs with it, and a
    # new one must be documented
    top = cli._build_parser()
    parsers = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    run, described = _cli_section_commands()
    assert run == set(parsers.choices)
    assert described == set(parsers.choices)


def _package_call_graph() -> dict[str, set[str]]:
    """Each function and method of the package, as ``module.name`` or
    ``module.Class.name``, with the package functions and methods its body
    names.

    A bare name resolves in its own module or through a ``from .module
    import``; ``module.name`` through a package module the file imports.  A
    class stands for its dunder methods (``__post_init__`` runs on every
    construction).  An attribute of any other object may be any package
    method of that name, which over-counts.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    defs, methods, dunders = {}, {}, {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{mod}.{node.name}"] = (mod, node)
            elif isinstance(node, ast.ClassDef):
                dunders[f"{mod}.{node.name}"] = set()
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        qual = f"{mod}.{node.name}.{item.name}"
                        defs[qual] = (mod, item)
                        methods.setdefault(item.name, set()).add(qual)
                        if item.name.startswith("__"):
                            dunders[f"{mod}.{node.name}"].add(qual)
    scopes = {}
    for mod, tree in trees.items():
        scope = scopes[mod] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    name = alias.asname or alias.name
                    scope[name] = f"{node.module}.{alias.name}" if node.module else alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    scope[alias.asname or alias.name] = None  # numpy, math, ...

    def resolved(qual) -> set[str]:
        return {qual} if qual in defs else dunders.get(qual, set())

    def named(mod, node) -> set[str]:
        scope = scopes[mod]
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            return resolved(scope.get(node.id) or f"{mod}.{node.id}")
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in scope:
                owner = scope[node.value.id]
                return resolved(f"{owner}.{node.attr}") if owner in trees else set()
            return methods.get(node.attr, set())
        return set()

    return {
        qual: set().union(*(named(mod, sub) for sub in ast.walk(node)))
        for qual, (mod, node) in defs.items()
    }


def _reach(graph: dict[str, set[str]], roots) -> set[str]:
    seen, todo = set(), list(roots)
    while todo:
        qual = todo.pop()
        if qual not in seen:
            seen.add(qual)
            todo += graph[qual]
    return seen


#: the dense oracles C09 checks the pipeline against
ORACLES = ("transform.frequency_pairing", "transform.szego_apply_direct")

#: the fast path: the pipeline and the slice kernel it runs
FAST_PATH = (
    "transform._pipeline", "forms.component_side", "_kernels.axis_projector_exp",
    "_kernels.slice_operator", "_kernels.project_slice", "_kernels.slice_work",
    "_kernels.slice_weights", "_kernels._sector_blocks", "_kernels._flip_x",
    "_kernels.to_sectors", "_kernels.from_sectors", "_kernels.apply_sectors",
)

#: what an oracle may share with the fast path, with the reason
ORACLE_SHARES = {
    "core.GridSpec.*": "the grid's nodes, weights and steps: the discretization both routes use",
    "*.n": "the dimension of a field, point or signature",
    "*.__post_init__": "the data types' checks of their own fields",
    "core._lock": "ScalarField makes its values read-only with it",
    "transform._occupied": "C09a pairs the bins the pipeline's occupancy rule picks, "
                           "so it cannot see a wrong rule",
}


def test_dense_oracles_share_no_code_with_the_fast_path():
    # a check that shares code with what it checks is no check: walking the
    # package's call graph from each oracle must reach nothing the fast path
    # reaches, apart from ORACLE_SHARES, and each allowed entry is still used
    graph = _package_call_graph()
    assert set(ORACLES + FAST_PATH) <= graph.keys()
    shared = _reach(graph, ORACLES) & _reach(graph, FAST_PATH)
    unallowed = sorted(q for q in shared if not any(fnmatch.fnmatch(q, p) for p in ORACLE_SHARES))
    unused = sorted(p for p in ORACLE_SHARES if not fnmatch.filter(shared, p))
    assert unallowed == []
    assert unused == []
