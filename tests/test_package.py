import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

import resonance_lab

PACKAGE_DIR = Path(resonance_lab.__file__).parent
README = PACKAGE_DIR.parents[1] / "README.md"
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"resonance_lab.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"resonance_lab.{node.module}")
        assert [a.name for a in node.names if a.name not in module.__all__] == [], node.module


def test_readme_quick_start_runs():
    text = README.read_text()
    section = text[text.index("## Library quick start"):].split("\n## ")[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().count("\n") == 4   # one line per 3-torus record at w = 0.2, z = 0.1



def test_every_parameter_is_read():
    """Every module-level function and method reads each of its parameters.

    Nested functions are left out, since solver callbacks take ``t`` whether
    or not they read it.  The suites of ``verify`` all take the ``rng`` that
    ``run_suites`` passes them.
    """
    unread = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        defs += [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for node in cls.body if isinstance(node, ast.FunctionDef)]
        for fn in defs:
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                      if p is not None and p.arg not in ("self", "cls")]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)}
            for name in params:
                if name in read or (path.stem == "verify" and fn.name.startswith("suite_")
                                    and name == "rng"):
                    continue
                unread.append(f"{path.stem}.{fn.name}({name})")
    assert unread == []


def test_every_private_helper_is_referenced():
    """Every module-level ``_name`` function or class is used somewhere in the package.

    A use is a name, an attribute or an imported name in the syntax tree, so
    a helper that only a comment or a docstring mentions counts as dead.
    """
    helpers, used = [], set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        helpers += [f"{path.stem}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert helpers
    assert [h for h in helpers if h.split(".")[1] not in used] == []


_DOTTED = r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*"
_MISSING = object()


def _quoted_names(text: str, quote: str) -> set[str]:
    """Dotted names between two ``quote`` marks that start with ``_`` or with a module name."""
    names = re.findall(rf"(?<!`){quote}({_DOTTED}){quote}(?!`)", text)
    return {n for n in names if n.startswith("_") or n.split(".")[0] in MODULES}


def _resolves(name: str) -> bool:
    """``module.attr...`` of a package module, or ``_attr...`` of a module or of a module-level class."""
    head, *rest = name.split(".")
    modules = [importlib.import_module(f"resonance_lab.{m}") for m in MODULES]
    if head in MODULES:
        scopes, path = [modules[MODULES.index(head)]], rest
    else:
        scopes = modules + [v for m in modules for v in vars(m).values() if isinstance(v, type)]
        path = [head, *rest]
    for obj in scopes:
        for part in path:
            obj = getattr(obj, part, _MISSING)
            if obj is _MISSING:
                break
        else:
            return True
    return False


def test_quoted_names_resolve():
    """Private and module-qualified names quoted in the docs name code that exists.

    In a docstring of the package a name is quoted in double backquotes, in
    the README in single ones.
    """
    quoted = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                for name in _quoted_names(ast.get_docstring(node) or "", "``"):
                    quoted.setdefault(name, path.name)
    for name in _quoted_names(README.read_text(), "`"):
        quoted.setdefault(name, README.name)
    assert quoted
    assert {n: where for n, where in quoted.items() if not _resolves(n)} == {}
