"""The package imports with numpy alone: no module pulls in scipy, and none
starts a thread.  Every module-level name in the package has a caller outside
the tests."""

import ast
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import freqcast

ROOT = Path(__file__).resolve().parents[1]


def run_with_src(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports this
    checkout's package."""
    src = os.path.dirname(os.path.dirname(freqcast.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return run.stdout.strip()


def test_no_module_imports_scipy():
    names = [f"freqcast.{m.name}" for m in pkgutil.iter_modules(freqcast.__path__)]
    assert "freqcast.model" in names
    code = ("import importlib, sys\n"
            f"for name in {names!r}:\n"
            "    importlib.import_module(name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert run_with_src(code) == "[]"


THREADS = """
import importlib, pkgutil, sys, threading
import numpy as np
import pytest

import freqcast
start = threading.active_count()
for m in pkgutil.iter_modules(freqcast.__path__):
    importlib.import_module("freqcast." + m.name)
assert threading.active_count() == start, threading.enumerate()
assert "concurrent.futures" not in sys.modules
from freqcast.config import RunConfig
from freqcast.model import forward, init_params
from freqcast.train import Adam, backward, mse_loss, predict
cfg = RunConfig(lookback=16, horizon=4, embed=4, windows=2, nfft=8, top_m=4, hidden=8)
params = init_params(cfg)
optim = Adam(params.named_tensors(), lr=cfg.lr)
rng = np.random.default_rng(0)
for _ in range(50):
    optim.zero_grads()
    x, y = rng.normal(size=(4, 16, 2)), rng.normal(size=(4, 4, 2))
    backward(mse_loss(forward(x, params, cfg), y))
    optim.step()
predict(params, cfg, rng.normal(size=(5, 16, 2)))
print(threading.active_count() - start)
"""


def test_threads_start_only_when_used_and_stay_at_one():
    """Importing starts no thread and loads no thread pool; training and
    inference add at most the one worker."""
    assert int(run_with_src(THREADS)) <= 1


FORK = """
import os, signal
from freqcast import autograd
autograd.side_by_side(lambda: 1, lambda: 2)
pid = os.fork()
if pid == 0:
    signal.alarm(10)
    os._exit(0 if autograd.side_by_side(lambda: 1, lambda: 2) == (1, 2) else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_worker():
    """A child inherits the executor but not its thread; without a fresh one
    its first side-by-side call would wait forever."""
    assert run_with_src(FORK) == "0"


def bound_names(stmt) -> list[str]:
    """Names a module-level statement binds: its function, its class or its
    assignment targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def references(stmt, with_strings: bool) -> Counter:
    """Identifiers a statement reads: loaded names, attribute names, imported
    names and, if asked, string constants."""
    refs = Counter()
    for n in ast.walk(stmt):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
        elif isinstance(n, ast.alias):
            refs[n.name] += 1
        elif with_strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            refs[n.value] += 1
    return refs


def test_every_module_level_name_has_a_caller_in_src_or_bench():
    """Code whose only caller is a test is deleted.  Each module-level function,
    class or assignment in ``src/freqcast`` must be referenced, by identifier,
    from some other statement in ``src/`` or ``bench/``.  String constants
    under ``bench/`` count, because ``bench/probe.py`` patches names it looks
    up by string."""
    src, bench = ROOT / "src" / "freqcast", ROOT / "bench"
    statements = [(path, stmt, references(stmt, with_strings=path.parent == bench))
                  for path in sorted(src.glob("*.py")) + sorted(bench.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    assert any(path.parent == bench for path, *_ in statements)
    total = sum((refs for *_, refs in statements), Counter())
    unused = [f"{path.stem}.{name}" for path, stmt, own in statements if path.parent == src
              for name in bound_names(stmt) if total[name] == own[name]]
    assert unused == [], f"referenced only by their own definitions: {unused}"
