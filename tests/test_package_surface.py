"""src/topdowndt keeps only what a run reaches.

Every top-level function and class of the package, and every public
method, must be referenced by name in the package outside its own body (a
call, an attribute read, or a string that getattr looks up), or be listed
in KEEP with the caller outside the package that needs it.  Code that only
tests call belongs in tests/reference.py.  The match is by name alone, so a
common method name such as split passes wherever any object's method of
that name is read.

No subcommand takes a flag it never reads: each field in a SUBCOMMANDS
entry's flags is read as an attribute of the config by its runner, or by a
module-level cli function that the runner (or such a function) passes the
config to.

Every module the package imports is declared: the standard library, the
package itself, or a [project].dependencies entry of pyproject.toml.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

from topdowndt import cli

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "topdowndt"

TRACER = "bench/tracer.py wraps it by name; ROADMAP item 7 takes the wrapper out"

# "module.name" or "module.Class.method" -> its caller outside the package
KEEP = {
    "tree.split": TRACER,
    "tree.path_of": TRACER,
    "hardinstance.evaluate": TRACER,
    "boolfn.to_spec": "bench/workloads.py writes its function specs with it",
    "realvalued.sample_teacher": "bench/workloads.py draws its real-sample CSVs with it",
    "hardinstance.HardInstance.shape_satisfied": "ROADMAP item 5's sweep over (ell, m', k)",
}


def _scan():
    """(definitions, references): (qualified name, module, node) of every
    checked definition, and (name, module, line, target) of every name
    read.  target is the package module the read resolves to when that can
    be told (a bare name, a name imported from a package module, or an
    attribute of an imported package module), else None."""
    defs, refs = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{module}.{node.name}", module, node))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{module}.{node.name}.{sub.name}", module, sub)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
                ]
        imported, modules = {}, {}  # local name -> (module, name); local name -> module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        imported[alias.asname or alias.name] = (node.module, alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                target, name = imported.get(node.id, (module, node.id))
                refs.append((name, module, node.lineno, target))
            elif isinstance(node, ast.Attribute):
                owner = node.value.id if isinstance(node.value, ast.Name) else None
                refs.append((node.attr, module, node.lineno, modules.get(owner)))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.append((node.value, module, node.lineno, None))
    return defs, refs


def _reached(resolved: bool) -> dict[str, bool]:
    """Whether each checked definition is read in the package outside its
    own body, by qualified name: by name alone, or, when resolved, a
    module-level definition only by a read that resolves to its module."""
    defs, refs = _scan()
    reached = {}
    for qualname, module, node in defs:
        name = qualname.rsplit(".", 1)[1]
        method = qualname.count(".") == 2
        reached[qualname] = any(
            r == name
            and (method or not resolved or t == module)
            and not (m == module and node.lineno <= line <= node.end_lineno)
            for r, m, line, t in refs
        )
    return reached


def test_every_definition_is_reached_from_the_package_or_kept():
    unreached = [q for q, hit in _reached(resolved=False).items() if not hit and q not in KEEP]
    assert unreached == []


def test_no_kept_name_is_reached_from_the_package():
    """A KEEP entry names what the package itself never reads.  Module-level
    names are resolved, so another object's split does not reach tree.split."""
    reached = _reached(resolved=True)
    assert sorted(q for q in KEEP if reached.get(q)) == []


def test_every_kept_name_is_defined():
    defined = {qualname for qualname, _, _ in _scan()[0]}
    assert sorted(KEEP.keys() - defined) == []


def _config_reads(functions: dict, name: str, param: str, seen: set) -> set[str]:
    """The attributes of parameter `param` that cli function `name` reads,
    itself or through the cli functions it passes `param` to."""
    if (name, param) in seen:
        return set()
    seen.add((name, param))
    reads = set()
    for node in ast.walk(functions[name]):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == param:
                reads.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            callee = functions.get(node.func.id)
            if callee is None:
                continue
            passed = [callee.args.args[i].arg for i, arg in enumerate(node.args)
                      if isinstance(arg, ast.Name) and arg.id == param]
            passed += [kw.arg for kw in node.keywords
                       if isinstance(kw.value, ast.Name) and kw.value.id == param]
            for callee_param in passed:
                reads |= _config_reads(functions, callee.name, callee_param, seen)
    return reads


def test_every_subcommand_flag_is_read():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    unread = {}
    for kind, command in cli.SUBCOMMANDS.items():
        runner = functions[command.runner.__name__]
        reads = _config_reads(functions, runner.name, runner.args.args[0].arg, set())
        if set(command.flags) - reads:
            unread[kind] = sorted(set(command.flags) - reads)
    assert unread == {}


def test_every_import_is_declared():
    """Each module the package imports, at module top or inside a function,
    is in the standard library, is the package's own, or is named in
    pyproject.toml's [project].dependencies."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())
    declared = {re.match(r"[\w.-]+", dep)[0] for dep in pyproject["project"]["dependencies"]}
    imported = {}  # top-level module -> a file that imports it
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # a relative import is the package's own
            for name in names:
                imported.setdefault(name.partition(".")[0], path.name)
    assert "numpy" in imported  # the oracle's, inside its methods
    known = sys.stdlib_module_names | {PACKAGE.name} | declared
    assert {m: f for m, f in imported.items() if m not in known} == {}
