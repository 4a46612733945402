"""Self-test of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins BLAS threads and puts src/ on the path)

import freqcast.autograd as autograd  # noqa: E402
import freqcast.fftkit as fftkit  # noqa: E402
import freqcast.model as model  # noqa: E402
import freqcast.spectral as spectral  # noqa: E402
import freqcast.train as train  # noqa: E402
import workloads as wl  # noqa: E402
from probe import MODEL_STAGES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def tiny_args(workload: str, trace: int):
    args = run.parse_args(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                           "--trace", str(trace), "--tiny"])
    args.setup_repeats, args.min_batches, args.table_repeats = 2, 4, 2
    return args


def test_spec_lists_the_defined_workloads():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS.values()]
    assert all("\n" not in w.why for w in wl.WORKLOADS.values())


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric_with_its_unit(workload):
    done = cli("--workload", workload, "--seed", "3", "--seconds", "0.2",
               "--trace", "0", "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_traced_run_reports_every_layer_and_removes_its_wrappers(workload):
    stages = {name: getattr(model, name) for name in MODEL_STAGES.values()}
    originals = {
        "init": autograd.Tensor.__init__, "backward": autograd.Tensor.backward,
        "adam": train.Adam, "loss": train.mse_loss,
        "evaluate": train.evaluate, "rfft": fftkit.rfft_onesided,
        "irfft_t": fftkit.irfft_transpose,
    }
    result = run.run_workload(tiny_args(workload, 1))
    assert result["correct"], result["problems"]
    assert set(result["metrics"]) == set(units("per_layer"))
    per_layer = units("per_layer")
    assert all(v > 0 for k, v in result["metrics"].items() if per_layer[k] == "ms")
    assert result["metrics"]["autograd.tape_nodes"] > 0
    assert result["metrics"]["fftkit.calls"] > 0

    assert model.rstft is spectral.rstft
    assert {name: getattr(model, name) for name in MODEL_STAGES.values()} == stages
    assert train.forward is model.forward
    assert autograd.Tensor.__init__ is originals["init"]
    assert autograd.Tensor.backward is originals["backward"]
    assert train.Adam is originals["adam"]
    assert train.mse_loss is originals["loss"]
    assert train.evaluate is originals["evaluate"]
    assert fftkit.rfft_onesided is originals["rfft"]
    assert fftkit.irfft_transpose is originals["irfft_t"]


def test_output_checks_catch_non_finite_predictions():
    args = tiny_args("predict-long", 0)
    state, _ = run.setup_once(args)
    assert wl.output_checks(state, state.params, args.seed) == []
    state.params.head_b2.data[0] = float("nan")
    problems = wl.output_checks(state, state.params, args.seed)
    assert any("non-finite" in p for p in problems)


def test_exits_non_zero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = cli("--workload", "train-hc-default", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
