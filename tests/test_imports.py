"""The package import stays light, and each module uses what it imports.

``import linkconformal`` is most of a small run's resident memory and part
of its set-up time, and SciPy's special-function, dense linear-algebra and
statistics modules would each add to both. The package needs only
``scipy.sparse``.

No linter runs on the package, so an unused-import scan stands in for one:
a helper deleted from its last caller leaves no stale import behind.
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
