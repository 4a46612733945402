"""Benchmark freqcast on one workload, or on all of them.

    python3 bench/run.py --workload train-hc-default --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run it from a checkout of the repository: the package is imported from the
``src/`` directory next to this one and nowhere else.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A failed output check prints that
line with ``correct`` false and exits 1.  bench/README.md describes the
workloads and the metrics.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# Pin BLAS threads before numpy loads, so that every run uses the same
# count; 1 is no larger than the CPU count of any machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager, suppress  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

try:
    import numpy as np
    import freqcast
except ImportError as e:
    sys.exit(f"bench: cannot import freqcast from {SRC}: {e}")
if not Path(freqcast.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"bench: freqcast resolved to {freqcast.__file__}, not under {SRC}")

import workloads as wl  # noqa: E402
from probe import UNATTRIBUTED, Probe  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_REPEATS = 7  # set-ups per run: this process plus six fresh interpreters
MIN_BATCHES = 100  # so that p90 has ten batches beyond it
TRACE_PASSES = 2  # traced passes per run, so that their counts can be compared
TABLE_REPEATS = 10  # repeats per backbone in the per-backbone table
TRAIN_STEPS = 4  # traced train steps behind a forward-only workload's TRAIN_ONLY
COUNT_KEYS = ("autograd.tape_nodes", "autograd.matmul_calls", "fftkit.calls")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test geometry: small corpus and model")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    args.setup_repeats, args.min_batches = SETUP_REPEATS, MIN_BATCHES
    args.table_repeats = TABLE_REPEATS
    return args


def git_sha() -> str | None:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def workload_of(args) -> wl.Workload:
    workload = wl.WORKLOADS[args.workload]
    return wl.tiny(workload) if args.tiny else workload


@contextmanager
def scratch_dir():
    """A directory inside the checkout for checkpoint files, removed afterwards."""
    path = ROOT / ".bench_tmp" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield str(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with suppress(OSError):
            path.parent.rmdir()


def setup_once(args) -> tuple[wl.State, dict]:
    """Set up in this process; the time counts from the interpreter's first line."""
    with scratch_dir() as tmp:
        state = wl.setup(workload_of(args), args.seed, tmp)
    return state, {"setup_s": time.perf_counter() - T_START, "timings": state.timings_ms}


def setup_in_children(args, count: int) -> list[dict]:
    """Set up again in fresh interpreters, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    out = []
    for _ in range(count):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if done.returncode != 0:
            raise RuntimeError(f"set-up in a fresh interpreter failed:\n{done.stderr}")
        out.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return out


def median_timing(setups: list[dict], key: str) -> float:
    return statistics.median(s["timings"][key] for s in setups)


def end_to_end(log: wl.PassLog, probe: Probe, setups: list[dict]) -> dict:
    return {
        "samples_per_s": log.samples / sum(log.seconds),
        "batch_ms_p90": float(np.percentile(probe.batch_ms, 90)),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


STAGES = ("model.embed", "spectral.rstft", "compress.top_m", "backbones",
          "compress.pad", "spectral.istft", "model.head")
# what only a training step runs; a forward-only workload takes these from
# a few traced train steps of its model instead of reading 0
TRAIN_ONLY = tuple(f"{stage}.bwd_ms" for stage in STAGES) + (
    "fftkit.transpose_ms", "autograd.backward_ms", "autograd.sort_ms",
    "train.loss.fwd_ms", "train.loss.bwd_ms", "train.adam_step_ms", "train.evaluate_ms")


def batch_metrics(probe: Probe) -> dict:
    """Per-batch means over the batches a traced probe saw."""
    n = len(probe.batch_ms)
    times, counts = probe.batches.times, probe.batches.counts

    def per_batch_ms(key: str) -> float:
        return times[key] * 1e3 / n

    out = {}
    for stage in STAGES:
        label = "backbones.fwd_ms" if stage == "backbones" else f"{stage}.fwd_ms"
        out[label] = per_batch_ms(stage)
        out[f"{stage}.bwd_ms"] = per_batch_ms(stage + ".bwd")
    out.update({
        "backbones.tape_nodes": counts["backbones.nodes"] / n,
        "spectral.tape_nodes":
            (counts["spectral.rstft.nodes"] + counts["spectral.istft.nodes"]) / n,
        "fftkit.calls": counts["fftkit.calls"] / n,
        "fftkit.forward_ms": per_batch_ms("fftkit.forward"),
        "fftkit.transpose_ms": per_batch_ms("fftkit.transpose"),
        "compress.retained_energy_frac": statistics.fmean(probe.batches.energy),
        "autograd.tape_nodes": counts["autograd.tape_nodes"] / n,
        "autograd.matmul_calls": counts["autograd.matmul_calls"] / n,
        "autograd.backward_ms": per_batch_ms("autograd.backward"),
        "autograd.sort_ms": per_batch_ms("autograd.sort"),
        "train.loss.fwd_ms": per_batch_ms("train.loss"),
        "train.loss.bwd_ms": per_batch_ms("train.loss.bwd"),
        "train.adam_step_ms": per_batch_ms("train.adam_step"),
        "train.evaluate_ms": statistics.median(probe.eval_ms) if probe.eval_ms else 0.0,
        "trace.unattributed_ms": sum(per_batch_ms(k) for k in UNATTRIBUTED),
    })
    return out


def per_layer(plain: Probe, traced: Probe, steps: Probe | None, setups: list[dict],
              extra: dict) -> dict:
    out = batch_metrics(traced)
    if steps is not None:
        trained = batch_metrics(steps)
        out.update({key: trained[key] for key in TRAIN_ONLY})
    out["trace.batch_ms_p50"] = statistics.median(traced.batch_ms)
    out["trace.overhead_frac"] = (statistics.median(traced.batch_ms)
                                  / statistics.median(plain.batch_ms) - 1)
    for key in ("data.synth_corpus_ms", "data.normalize_ms", "data.make_windows_ms",
                "model.init_params_ms"):
        out[key] = median_timing(setups, key)
    if steps is not None:
        for key in ("model.save_checkpoint_ms", "model.load_checkpoint_ms"):
            out[key] = median_timing(setups, key)
    out.update(extra)
    return out


def run_workload(args) -> dict:
    state, own = setup_once(args)
    if args.setup_only:
        return own
    setups = [own] + setup_in_children(args, args.setup_repeats - 1)
    predict = state.workload.mode == "predict"
    problems: list[str] = []

    log = wl.PassLog()
    if not args.trace:
        probe = Probe(traced=False, batch_is_forward=predict)
        wl.measure(state, probe, log, args.seconds, 1, args.min_batches)
    else:
        # the untraced half gives the baseline for the tracing overhead, and
        # its first pass the result the traced passes must reproduce
        plain = Probe(traced=False, batch_is_forward=predict)
        wl.measure(state, plain, log, args.seconds / 2, 1, 0)
        probe = Probe(traced=True, batch_is_forward=predict)
        wl.measure(state, probe, log, args.seconds / 2, TRACE_PASSES, 0)
        seen = [{k: c.get(k, 0) for k in COUNT_KEYS} for c in log.traced_counts]
        if len(seen) < TRACE_PASSES or any(s != seen[0] for s in seen):
            problems.append(f"traced counts differ between passes on one seed: {seen}")
        with probe:
            extra = wl.backbone_table(args.seed, probe, args.table_repeats)
        if predict:
            steps = Probe(traced=True, batch_is_forward=False)
            with steps:
                wl.train_steps(state, TRAIN_STEPS)
        else:
            steps = None
            with scratch_dir() as tmp:
                wl.checkpoint_round_trip(state.params, state.cfg, state.stats, tmp, extra)

    problems += log.problems
    params = wl.fitted_params(state, log)
    problems += wl.output_checks(state, params, args.seed)
    # printed on every run, bounded on none: see bench/README.md
    unbounded = {
        "batch_ms_p50": statistics.median((plain if args.trace else probe).batch_ms),
        "mae_ratio": wl.mae_ratio(state, params),
        "failed_frac": log.failed / log.attempted,
    }
    if not np.isfinite(unbounded["mae_ratio"]):
        problems.append(f"mae_ratio is not finite: {unbounded['mae_ratio']}")
    if args.trace:
        metrics = per_layer(plain, probe, steps, setups, extra) | unbounded
    else:
        metrics = end_to_end(log, probe, setups)
    env = environment(args) | {
        "passes": len(log.seconds),
        "batches": log.attempted,
        "samples_per_batch": state.workload.chunk if predict else state.cfg.batch,
        "setups": len(setups),
    }
    return {
        "correct": not problems and log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
        "unbounded": unbounded,
        "problems": problems,
        "environment": env,
    }


def report(result: dict) -> str:
    """Print the readable lines; return the final JSON line."""
    workload = result["environment"]["workload"]
    print("# environment " + json.dumps(result["environment"], sort_keys=True))
    shown = result["metrics"] | result["unbounded"]
    for name, value in shown.items():
        print(f"{workload:<18} {name:<32} {value:>14.6g} {UNITS[name]}")
    for problem in result["problems"]:
        print(f"# check failed: {problem}")
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in result["metrics"].items()},
    })


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status, results = 0, {}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0:
            status = 1
            sys.stderr.write(done.stderr)
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    if args.setup_only:
        print(json.dumps(result))
        return 0
    line = report(result)
    print(line, flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
