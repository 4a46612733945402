"""List the statements of src/freqcast that neither the benchmark nor the CLI reaches.

    python tools/reach.py

Under ``sys.settrace`` and ``threading.settrace`` (training runs Adam's
update and matmul's backward on a worker thread), this runs
``bench/run.run_workload`` on each of the three workloads at ``--tiny``,
untraced and traced, and then every CLI verb on a small synthetic corpus:
``synth``, ``train`` on that CSV, from a config file and again from its
manifest, ``eval`` on the checkpoint's data and on other data (``--data``),
``ablate`` over top-M, every mask and every mixing backbone, and
``conformance --json``.  The bench set-ups run in this process only, so no
fresh interpreter goes untraced.

For each file it prints every statement no run reached, as
``path:line: source``, leaving out ``raise`` statements (an error path is a
test's to reach, not a working run's), and last the number of src lines
that ran.  A statement counts as reached when a line of it ran: the header
lines of a compound statement, decorators included, or its first body
statement.  Output is deterministic for a given tree, so the lists of two
trees compare with ``diff``.  It takes a few seconds and is not a test.
"""

import ast
import io
import sys
import tempfile
import threading
from collections import defaultdict
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "freqcast"
PREFIX = str(SRC) + "/"

hits: dict[str, set[int]] = defaultdict(set)


def _local(frame, event, arg):
    if event == "line":
        hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    """Trace lines only in frames of src/freqcast, so the rest runs at full speed."""
    return _local if frame.f_code.co_filename.startswith(PREFIX) else None


CLI_CONFIG = ["lookback=16", "horizon=4", "embed=4", "windows=2", "nfft=8", "top_m=4",
              "hidden=8", "epochs=2", "batch=16"]


def run_cli(out: Path) -> None:
    from freqcast.cli import main

    def call(*argv):
        code = main([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"reach: freqcast {' '.join(map(str, argv))} exited {code}")

    sets = [arg for kv in CLI_CONFIG for arg in ("--set", kv)]
    corpus = out / "corpus.csv"
    call("synth", "--length", 320, "--seed", 1, "--out", corpus)
    call("train", *sets, "--set", f"data={corpus}", "--seed", 2, "--out", out / "train")
    (run_dir,) = (out / "train").iterdir()
    config = out / "train.cfg"
    lines = CLI_CONFIG + [f"data={corpus}", "backbone=wm", "conjugate_neighbors=yes"]
    config.write_text("# the CLI config as a file\n\n" + "\n".join(lines) + "\n")
    call("train", "--config", config, "--out", out / "config")
    call("train", "--manifest", run_dir / "manifest.json", "--out", out / "again")
    call("eval", "--checkpoint", run_dir / "model.ckpt", "--horizons", "1,4",
         "--out", out / "eval")
    call("eval", "--checkpoint", run_dir / "model.ckpt", "--data", "synth:sinusoid_mix",
         "--out", out / "eval-data")
    synth = [*sets, "--set", "data=synth:sinusoid_mix", "--set", "synth_length=320"]
    call("ablate", "--sweep", "top_m", "--values", "1,max", *synth, "--out", out / "abl")
    for sweep in ("mask", "backbone"):  # each over its default values
        call("ablate", "--sweep", sweep, *synth, "--out", out / f"abl-{sweep}")
    call("conformance", "--seed", 3, "--json", out / "report.json")


def run_bench() -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    import run  # pins BLAS to one thread before numpy loads, and puts src/ on the path

    for workload in ("train-hc-default", "train-basic-p8", "predict-long"):
        for trace in (0, 1):
            args = run.parse_args(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                                   "--trace", str(trace), "--tiny"])
            args.setup_repeats, args.min_batches, args.table_repeats = 1, 4, 2
            result = run.run_workload(args)
            if not result["correct"]:
                raise SystemExit(f"reach: {workload} --trace {trace}: {result['problems']}")


def _span(node: ast.stmt) -> range:
    """The lines whose running reaches ``node``: a simple statement's own
    lines; a compound statement's header, decorators included."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, body[0].lineno)
    return range(first, node.end_lineno + 1)


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def unreached(path: Path) -> list[int]:
    """Lines of the statements in ``path`` that no run reached, raises aside."""
    ran = hits.get(str(path), set())
    out = []

    def visit(stmts) -> None:
        for node in stmts:
            if isinstance(node, (ast.Global, ast.Nonlocal)) or _is_docstring(node):
                continue
            body = getattr(node, "body", None)
            reached = not ran.isdisjoint(_span(node)) or (
                isinstance(body, list) and body and not ran.isdisjoint(_span(body[0])))
            if not reached and not isinstance(node, ast.Raise):
                out.append(node.lineno)
            for field in ("body", "orelse", "finalbody", "handlers", "cases"):
                for child in getattr(node, field, []):
                    visit(getattr(child, "body", []) if isinstance(
                        child, (ast.ExceptHandler, ast.match_case)) else [child])

    visit(ast.parse(path.read_text(encoding="utf-8")).body)
    return out


def main() -> int:
    sys.settrace(_global)
    threading.settrace(_global)
    try:
        with redirect_stdout(io.StringIO()), tempfile.TemporaryDirectory() as tmp:
            run_bench()
            run_cli(Path(tmp))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for n in unreached(path):
            print(f"src/freqcast/{path.name}:{n}: {lines[n - 1].strip()}")
    print(f"{sum(len(v) for v in hits.values())} src lines ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
