"""The package import stays light.

``import linkconformal`` is most of a small run's resident memory and part
of its set-up time, and SciPy's special-function, dense linear-algebra and
statistics modules would each add to both. The package needs only
``scipy.sparse``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEAVY_MODULES = ("scipy.special", "scipy.linalg", "scipy.stats")


def test_package_import_loads_no_heavy_scipy_module():
    # A subprocess, so that modules that other tests imported do not count.
    code = f"import sys, linkconformal; print(*[m for m in {HEAVY_MODULES!r} if m in sys.modules])"
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == ""
