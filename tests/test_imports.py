"""The package imports with numpy alone: no module pulls in scipy."""

import os
import pkgutil
import subprocess
import sys

import freqcast


def test_no_module_imports_scipy():
    names = [f"freqcast.{m.name}" for m in pkgutil.iter_modules(freqcast.__path__)]
    assert "freqcast.model" in names
    code = ("import importlib, sys\n"
            f"for name in {names!r}:\n"
            "    importlib.import_module(name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(freqcast.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.strip() == "[]", run.stdout
