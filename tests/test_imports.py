"""Every module-level import in the package is used (a stdlib-ast check,
since no linter is a test dependency), sympy, a test-only oracle, is
never imported by the package, and only matgroup sets a group's state."""

import ast
import os
import pathlib
import subprocess
import sys

import aimg

PACKAGE = pathlib.Path(aimg.__file__).parent


def _bound_names(tree):
    """Names bound by the module-level imports, except __future__."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _exported_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {e.value for e in node.value.elts}
    return set()


def test_no_unused_module_level_imports():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= _exported_names(tree)
        names = [n for n in _bound_names(tree) if n not in used]
        if names:
            unused[path.name] = names
    assert not unused, f"unused module-level imports: {unused}"


ROOT = pathlib.Path(__file__).resolve().parent.parent


def _references(paths):
    """Names used as a Name, an Attribute or an imported alias."""
    refs = set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name)
    return refs


def _user_references():
    """References from the package (bar __init__), the tests, the demos
    and the benchmark."""
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for folder in ("tests", "demos", "perfbench"):
        users += (ROOT / folder).glob("*.py")
    return _references(users)


def test_every_top_level_definition_is_referenced():
    refs = _user_references()
    dead = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = [node.name for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and node.name not in refs]
        if names:
            dead[path.name] = names
    assert not dead, f"top-level definitions referenced nowhere: {dead}"


def test_every_method_is_referenced():
    """The same scan for the non-dunder methods and properties of the
    package's classes."""
    refs = _user_references()
    dead = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = [f"{cls.name}.{node.name}"
                 for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for node in cls.body
                 if isinstance(node, ast.FunctionDef)
                 and not (node.name.startswith("__")
                          and node.name.endswith("__"))
                 and node.name not in refs]
        if names:
            dead[path.name] = names
    assert not dead, f"methods referenced nowhere: {dead}"


def test_package_never_imports_sympy():
    """No import of sympy anywhere in the package, at any depth."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in mods
                      if m.split(".")[0] == "sympy"]
    assert not found, f"sympy imported at {found}"


GROUP_STATE = {"_order", "_elements", "_eset"}


def test_only_matgroup_sets_group_state():
    """No module but matgroup.py stores a FiniteMatrixGroup's _order,
    _elements or _eset, as an attribute target or through setattr: a
    caller that knows an order passes it to the constructor."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "matgroup.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            stored = (isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Store)
                      and node.attr in GROUP_STATE)
            set_by_name = (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", ""))
                in ("setattr", "__setattr__")
                and any(isinstance(a, ast.Constant) and a.value in GROUP_STATE
                        for a in node.args))
            if stored or set_by_name:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"group state set outside matgroup at {found}"


def test_classify_run_leaves_sympy_unloaded(tmp_path):
    """Importing aimg and aimg.cli and classifying the shipped catalog
    through cli.main loads no sympy module, and none of the modules whose
    import would slow every start: dataclasses (with inspect) and
    importlib.resources.  The interpreter runs with -S, so that site
    preloads nothing."""
    unwanted = ("dataclasses", "inspect", "importlib.resources", "sympy")
    code = (
        "import sys\n"
        "import aimg, aimg.cli\n"
        f"rc = aimg.cli.main(['classify', '--out', {str(tmp_path / 'r.json')!r}])\n"
        "assert rc == 0, rc\n"
        f"loaded = [m for m in {unwanted!r} if m in sys.modules]\n"
        "assert not loaded, f'imported {loaded}'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE.parent)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
