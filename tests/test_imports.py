"""The package import stays light, and each module uses what it imports.

``import linkconformal`` is most of a small run's resident memory and part
of its set-up time, and SciPy's special-function, dense linear-algebra and
statistics modules would each add to both. The package needs only
``scipy.sparse``.

No linter runs on the package, so three scans stand in for one: an
unused-import scan, so that a helper deleted from its last caller leaves no
stale import behind; an unread-private-name scan, so that a caller deleted
last leaves no dead helper behind; and a range-message scan, so that no
module but ``errors.py`` words its own check of an argument's range, and
``errors.check_int`` and ``errors.check_real`` stay the only such checks.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "linkconformal"
HEAVY_MODULES = ("scipy.special", "scipy.linalg", "scipy.stats")


def test_package_import_loads_no_heavy_scipy_module():
    # A subprocess, so that modules that other tests imported do not count.
    code = f"import sys, linkconformal; print(*[m for m in {HEAVY_MODULES!r} if m in sys.modules])"
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == ""


def unused_imports(path):
    """Names imported by the module at ``path`` that it never reads.

    Imports of ``__future__`` and import statements marked ``# noqa: F401``
    (kept for a caller outside the module) do not count.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(module):
    assert unused_imports(PACKAGE / module) == []


def _private_definitions(tree):
    """Module-level private names (functions, classes, constants) that ``tree`` defines."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def unread_private_names(package):
    """(module, name) for each module-level private name of ``package`` that no module of it reads.

    A read is a name loaded anywhere in the package, or an attribute of that
    name; a name only imported or only stored does not count, nor does a
    read by the tests or the bench.
    """
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted((module, name) for module, tree in trees.items() for name in _private_definitions(tree) - read)


def test_every_private_name_is_read_by_the_package():
    assert unread_private_names(PACKAGE) == []


# Wordings of a hand-written check of a scalar argument's range, old ones included.
RANGE_WORDINGS = ("must lie in", "must be >=", "and finite", "finite and", "needs a finite", "must exceed",
                  "positive and finite")


def range_messages(path):
    """(line, text) of each string of the module at ``path``, docstrings aside, that words a scalar range check."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    return sorted((node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings
                  and any(wording in node.value for wording in RANGE_WORDINGS))


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "errors.py"))
def test_only_errors_words_a_range_check(module):
    assert range_messages(PACKAGE / module) == []
