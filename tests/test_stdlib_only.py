"""``repro`` runs on the Python standard library alone."""

from __future__ import annotations

import os
import subprocess
import sys

import repro

#: Imports every ``repro`` module except the ``__main__`` entry points and
#: prints the top-level names of the modules those imports loaded that are
#: neither standard library nor ``repro``.  Modules loaded before the first
#: ``repro`` import (``site`` and the ``.pth`` hooks of installed packages)
#: are not the program's doing and are left out, and so is ``__mp_main__``,
#: the alias ``multiprocessing`` gives the main module on import.
_PROBE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name.rsplit(".", 1)[-1] != "__main__":
        importlib.import_module(info.name)
allowed = sys.stdlib_module_names | {"repro", "__mp_main__"}
print(sorted({
    name.split(".")[0] for name in set(sys.modules) - before
} - allowed))
"""


def test_repro_imports_only_the_standard_library():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"
