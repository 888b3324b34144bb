"""src/topdowndt keeps only what a run reaches.

Every top-level function and class of the package, and every public
method, must be referenced by name in the package outside its own body (a
call, an attribute read, or a string that getattr looks up), or be listed
in KEEP with the caller outside the package that needs it.  Code that only
tests call belongs in tests/reference.py.  The match is by name alone, so a
common method name such as split passes wherever any object's method of
that name is read.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "topdowndt"

TRACER = "bench/tracer.py wraps it by name; ROADMAP item 7 takes the wrapper out"

# "module.name" or "module.Class.method" -> its caller outside the package
KEEP = {
    "tree.split": TRACER,
    "tree.path_of": TRACER,
    "tree.evaluate": TRACER,
    "hardinstance.evaluate": TRACER,
    "boolfn.to_spec": "bench/workloads.py writes its function specs with it",
    "realvalued.sample_teacher": "bench/workloads.py draws its real-sample CSVs with it",
    "hardinstance.HardInstance.shape_satisfied": "ROADMAP item 5's sweep over (ell, m', k)",
}


def _scan():
    """(definitions, references): (qualified name, module, node) of every
    checked definition, and (name, module, line) of every name read."""
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
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((node.id, module, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, module, node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.append((node.value, module, node.lineno))
    return defs, refs


def test_every_definition_is_reached_from_the_package_or_kept():
    defs, refs = _scan()
    unreached = []
    for qualname, module, node in defs:
        name = qualname.rsplit(".", 1)[1]
        outside = (
            r == name and not (m == module and node.lineno <= line <= node.end_lineno)
            for r, m, line in refs
        )
        if not any(outside) and qualname not in KEEP:
            unreached.append(qualname)
    assert unreached == []


def test_every_kept_name_is_defined():
    defined = {qualname for qualname, _, _ in _scan()[0]}
    assert sorted(KEEP.keys() - defined) == []
