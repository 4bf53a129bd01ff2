import subprocess
import sys
from pathlib import Path

import psrank

IMPORT_ALL = """
import importlib, pkgutil, sys
sys.path.insert(0, {src!r})
import psrank
for module in pkgutil.iter_modules(psrank.__path__):
    importlib.import_module("psrank." + module.name)
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""


def test_no_psrank_module_imports_scipy():
    # scipy is a test dependency only; a fresh interpreter keeps the imports
    # made by the other tests out of the check.
    src = str(Path(psrank.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", IMPORT_ALL.format(src=src)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
