"""End-to-end command-line workflows in a temporary directory."""

import csv
import dataclasses
import json
import math
import os
import re
import signal
import struct
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqcast import cli
from freqcast import data as data_io
from freqcast.backbones import (
    ACTIVATIONS,
    BACKBONE_KINDS,
    backbone_forward,
    block_table,
    init_backbone,
)
from freqcast.cli import main
from freqcast.compress import top_m_select
from freqcast.config import (
    MASK_PLANES,
    RunConfig,
    apply_overrides,
    config_hash,
    parse_config_file,
)
from freqcast.data import SYNTH_KINDS
from freqcast.errors import ConfigError
from freqcast.model import forward, init_params, load_checkpoint, save_checkpoint
from freqcast.spectral import WINDOW_FNS, plan_stft

FAST = [
    "data=synth:sinusoid_mix",
    "synth_length=320",
    "synth_channels=2",
    "lookback=16",
    "horizon=4",
    "embed=4",
    "windows=2",
    "nfft=8",
    "top_m=4",
    "hidden=8",
    "epochs=2",
    "batch=16",
]


def _names_outside(valid):
    return st.text(min_size=1, max_size=8).filter(lambda t: t not in valid)


# (field, other fields, invalid values): every other field is valid, so each
# reported problem must be about the broken one
BREAKERS = [
    ("windows", {}, st.integers(-3, 10**18).filter(lambda w: w != 4)),
    ("nfft", {}, st.integers(-5, 0) | st.integers(97, 200)),
    ("lookback", {}, st.integers(-5, 23)),
    ("top_m", {}, st.integers(-3, 0) | st.integers(14, 40)),
    ("radius", {}, st.integers(-3, 0)),
    ("radius", {"backbone": "wm"}, st.integers(4, 9)),
    ("backbone", {}, _names_outside(BACKBONE_KINDS)),
    ("window_fn", {}, _names_outside(WINDOW_FNS)),
    ("mask_mode", {}, _names_outside(MASK_PLANES)),
    ("activation", {}, _names_outside(ACTIVATIONS)),
    ("data", {}, _names_outside(SYNTH_KINDS).map(lambda kind: "synth:" + kind)),
    ("synth_length", {}, st.integers(-10, 255)),
    ("synth_channels", {}, st.integers(-3, 0)),
    ("synth_noise", {}, st.floats(max_value=0.0, exclude_max=True)
        | st.sampled_from([math.nan, math.inf, -math.inf])),
    *((name, {}, st.integers(-3, 0))
      for name in ("horizon", "embed", "hidden", "epochs", "batch", "stride")),
    ("lr", {}, st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf])),
    ("lr_decay", {}, st.floats(max_value=0.0) | st.floats(min_value=1.0, exclude_min=True)
        | st.just(math.nan)),
    ("seed", {}, st.integers(max_value=-1)),
    # sizes above data.MAX_VALUES
    *((name, {}, st.integers(low, 10**18)) for name, low in (
        ("embed", 10**5), ("hidden", 10**6), ("horizon", 10**6),
        ("synth_length", 10**8), ("synth_channels", 10**8))),
]


@contextmanager
def alarm(seconds):
    """Fail with TimeoutError, rather than hang, if the body outlasts ``seconds``."""
    def expired(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    except TimeoutError:
        # raised afresh: the interrupted frame may have no line number to report
        raise TimeoutError(f"still running after {seconds} s") from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def raised(component, *args, **kwargs) -> str:
    """The text of the ConfigError a component raises for these arguments."""
    with pytest.raises(ConfigError) as err:
        component(*args, **kwargs)
    return str(err.value)


# rule -> (fields that break it, the component that enforces it); the component
# is called on the broken config and a default-config forward's parameters,
# batch and stage outputs
RULES = {
    "backbone kind": (dict(backbone="nope"),
                      lambda cfg, run: block_table(cfg.backbone, cfg.windows)),
    "hc window count": (dict(windows=5), lambda cfg, run: init_backbone(
        cfg.backbone, np.random.default_rng(0), cfg.windows, cfg.embed, cfg.radius)),
    "radius >= 1": (dict(radius=0),
                    lambda cfg, run: block_table(cfg.backbone, cfg.windows, cfg.radius)),
    "wm radius < windows": (dict(backbone="wm", radius=4),
                            lambda cfg, run: block_table(cfg.backbone, cfg.windows, cfg.radius)),
    "activation": (dict(activation="tanh"), lambda cfg, run: backbone_forward(
        cfg.backbone, run["compressed"], run["params"].backbone, act=cfg.activation)),
    "top_m": (dict(top_m=14), lambda cfg, run: top_m_select(run["spectra"], cfg.top_m)),
    "window_fn": (dict(window_fn="blackman"), lambda cfg, run: plan_stft(
        cfg.lookback, cfg.windows, cfg.nfft, cfg.window_fn)),
    "mask_mode": (dict(mask_mode="bogus"),
                  lambda cfg, run: forward(run["x"], run["params"], cfg)),
}


def fast_args(*extra, out):
    args = []
    for kv in FAST:
        args += ["--set", kv]
    for kv in extra:
        args += ["--set", kv]
    return args + ["--out", str(out)]


def run_dirs(root):
    return sorted(Path(root).iterdir())


class TestConfigHandling:
    def test_file_then_flags_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("epochs = 7\nbackbone = \"wm\"  # comment\nlr = 0.01\n")
        merged = apply_overrides(parse_config_file(str(cfg_file)), ["epochs=3"])
        cfg = RunConfig.from_dict(merged)
        assert cfg.epochs == 3 and cfg.backbone == "wm" and cfg.lr == 0.01

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="definitely_not_a_key"):
            RunConfig.from_dict({"definitely_not_a_key": 1})

    def test_validation_report_aggregates(self):
        cfg = RunConfig(windows=13, nfft=16, lookback=96, backbone="hc",
                        mask_mode="bogus")
        problems = cfg.problems()
        assert len(problems) >= 3
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert str(err.value).count("-") >= 3

    def test_benchmark_style_config_with_four_windows_validates(self):
        # hourly-benchmark shape: L=96, p=4, nfft=48, M=4
        RunConfig(lookback=96, windows=4, nfft=48, top_m=4, embed=128,
                  hidden=256, epochs=10, batch=8).validate()

    def test_indivisible_benchmark_config_rejected_with_hint(self):
        cfg = RunConfig(lookback=96, windows=13, nfft=16, backbone="wm")
        with pytest.raises(ConfigError, match="nearest valid window count is 11"):
            cfg.validate()
        cfg33 = RunConfig(lookback=96, windows=33, nfft=6, backbone="wm", top_m=4)
        with pytest.raises(ConfigError, match="nearest valid window count is 31"):
            cfg33.validate()

    def test_fractional_int_rejected(self):
        with pytest.raises(ConfigError, match="bad value for lookback: 1.5"):
            RunConfig.from_dict({"lookback": 1.5})
        assert RunConfig.from_dict({"lookback": 32.0}).lookback == 32

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RunConfig)
                                       if f.type in ("int", "float")])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_refused_for_numeric_field(self, field, value):
        """--set epochs=true would otherwise train 1 epoch, and lr=true use 1.0."""
        with pytest.raises(ConfigError, match=f"bad value for {field}: {value}"):
            RunConfig.from_dict({field: value})

    @pytest.mark.parametrize("field, value", [("synth_noise", -1.0), ("synth_noise", math.nan),
                                              ("synth_noise", math.inf), ("lr", math.inf)])
    def test_negative_or_non_finite_value_named(self, field, value):
        problems = RunConfig(**{field: value}).problems()
        assert problems and all(re.search(rf"(?<!\w){field}(?!\w)", p) for p in problems)

    @pytest.mark.parametrize("value", [0.5, 2, -1, math.nan])
    def test_bool_field_refuses_numbers_other_than_zero_and_one(self, value):
        with pytest.raises(ConfigError, match="bad value for conjugate_neighbors"):
            RunConfig.from_dict({"conjugate_neighbors": value})

    @pytest.mark.parametrize("value, want", [(0, False), (1, True), (0.0, False),
                                             (1.0, True), ("off", False)])
    def test_bool_field_accepts_zero_and_one(self, value, want):
        assert RunConfig.from_dict({"conjugate_neighbors": value}).conjugate_neighbors is want

    @pytest.mark.parametrize("case", [str.lower, str.upper, str.title])
    @pytest.mark.parametrize("text, want", [("true", True), ("1", True), ("yes", True),
                                            ("on", True), ("false", False), ("0", False),
                                            ("no", False), ("off", False)])
    def test_bool_field_accepts_each_spelling_in_any_case(self, text, want, case):
        assert RunConfig.from_dict({"conjugate_neighbors": case(text)}).conjugate_neighbors is want

    @pytest.mark.parametrize("text", ["", "y", "n", "t", "2", "enabled", "none", " true"])
    def test_bool_field_refuses_other_strings_naming_the_field(self, text):
        with pytest.raises(ConfigError, match="bad value for conjugate_neighbors"):
            RunConfig.from_dict({"conjugate_neighbors": text})

    def test_non_mapping_config_rejected(self):
        with pytest.raises(ConfigError, match="must be a mapping, got list"):
            RunConfig.from_dict([["lookback", 16]])

    @settings(max_examples=150, deadline=None)
    @given(case=st.data())
    def test_every_problem_names_the_broken_field(self, case):
        """A config with one field broken reports problems, and each of them
        names that field the way a config file or --set spells it."""
        field, base, bad = case.draw(st.sampled_from(BREAKERS), label="field")
        value = case.draw(bad, label="value")
        with alarm(2):
            problems = RunConfig(**{**base, field: value}).problems()
        assert problems
        for problem in problems:
            assert re.search(rf"(?<![\w.]){field}(?!\w)", problem), problem

    @pytest.mark.parametrize("rule", RULES)
    def test_problem_is_the_text_the_component_raises(self, rule):
        """One rule, one message: validate() and the component enforcing the
        rule say the same thing about the same values."""
        fields, component = RULES[rule]
        cfg = RunConfig(**fields)
        run = {"params": init_params(RunConfig()),
               "x": np.random.default_rng(0).normal(size=(2, cfg.lookback, 2))}
        forward(run["x"], run["params"], RunConfig(), debug=run)
        assert cfg.problems() == [raised(component, cfg, run)]

    def test_unknown_backbone_with_bad_radius_is_two_problems(self):
        assert RunConfig(backbone="nope", radius=0).problems() == [
            raised(block_table, "nope", 4), raised(block_table, "hc", 4, 0)]

    def test_oversized_dft_operators_are_a_plan_problem(self):
        """A config whose every stored size is small can still ask for a DFT
        operator pair of 800 million values; the plan refuses it."""
        cfg = RunConfig(lookback=20000, nfft=20000, windows=1, backbone="fd", top_m=1,
                        embed=1, hidden=1, horizon=1, synth_length=40000)
        assert cfg.problems() == [raised(plan_stft, 20000, 1, 20000)]

    def test_hash_is_stable_and_sensitive(self):
        a, b = RunConfig(), RunConfig()
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(RunConfig(seed=1))


class TestTrainCommand:
    def test_quickstart_emits_three_artifacts(self, tmp_path, capsys):
        assert main(["train"] + fast_args(out=tmp_path)) == 0
        (run_dir,) = run_dirs(tmp_path)
        for name in ("model.ckpt", "metrics.csv", "manifest.json"):
            assert (run_dir / name).exists(), name
        with open(run_dir / "metrics.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "lr", "train_loss", "val_mae", "val_rmse"]
        assert len(rows) == 3  # header + 2 epochs
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 2
        assert manifest["seed"] == manifest["config"]["seed"]
        assert "wall_time_s" in manifest

    def test_invalid_config_exits_nonzero_with_report(self, tmp_path, capsys):
        code = main(["train"] + fast_args("windows=13", "nfft=16", "lookback=96",
                                          "backbone=wm", out=tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert "nearest valid window count is 11" in err

    def test_manifest_reproduces_run(self, tmp_path):
        root_a = tmp_path / "a"
        root_b = tmp_path / "b"
        assert main(["train"] + fast_args(out=root_a)) == 0
        (dir_a,) = run_dirs(root_a)
        assert main(["train", "--manifest", str(dir_a / "manifest.json"),
                     "--out", str(root_b)]) == 0
        (dir_b,) = run_dirs(root_b)
        assert (dir_a / "metrics.csv").read_bytes() == (dir_b / "metrics.csv").read_bytes()

    def test_manifest_reproduces_across_processes(self, tmp_path):
        import subprocess
        import sys

        root_a = tmp_path / "a"
        root_b = tmp_path / "b"
        assert main(["train"] + fast_args(out=root_a)) == 0
        (dir_a,) = run_dirs(root_a)
        proc = subprocess.run(
            [sys.executable, "-m", "freqcast.cli", "train",
             "--manifest", str(dir_a / "manifest.json"), "--out", str(root_b)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": "9"},
        )
        assert proc.returncode == 0, proc.stderr
        (dir_b,) = run_dirs(root_b)
        assert (dir_a / "metrics.csv").read_bytes() == (dir_b / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("sets, named", [
        (["embed=100000000000"], "embed=100000000000"),
        (["backbone=fd", "lookback=10000023", "windows=10000000", "nfft=24"],
         "windows=10000000, radius=1, embed=16, lookback=10000023"),
        (["synth_length=1000000000000"], "synth_length * synth_channels"),
    ])
    def test_oversized_config_exits_2_before_allocating(self, tmp_path, capsys, sets, named):
        args = ["train", "--out", str(tmp_path)]
        for kv in sets:
            args += ["--set", kv]
        tracemalloc.start()
        try:
            code = main(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "above the cap of 100,000,000" in err
        assert named in err
        assert peak < 2**20, peak

    @pytest.mark.parametrize("flag", ["--config", "--manifest"])
    def test_missing_input_file_exits_2_naming_it(self, tmp_path, capsys, flag):
        missing = tmp_path / "absent.file"
        assert main(["train", flag, str(missing), "--out", str(tmp_path)]) == 2
        assert f"cannot open {flag[2:]}" in capsys.readouterr().err

    def test_missing_data_csv_exits_2_naming_it(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        assert main(["train"] + fast_args(f"data={missing}", out=tmp_path)) == 2
        assert "cannot open CSV" in capsys.readouterr().err

    def test_non_utf8_config_exits_2_naming_offset(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"# pad\n" * 2000 + b"epochs = \xff\n")
        assert main(["train", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert "byte 0xff at offset 12009 is not UTF-8" in capsys.readouterr().err

    def test_non_utf8_csv_exits_2_naming_offset(self, tmp_path, capsys):
        table = tmp_path / "bad.csv"
        table.write_bytes(b"a,b\n" + b"1,2\n" * 3000 + b"3,\xff\n")
        assert main(["train"] + fast_args(f"data={table}", out=tmp_path)) == 2
        err = capsys.readouterr().err
        assert "CSV" in err and "byte 0xff at offset 12006 is not UTF-8" in err

    @pytest.mark.parametrize("body, message", [
        ('{"seed": 1}', "no 'config' object"),
        ('{"config": [1]}', "no 'config' object"),
        ("[]", "no 'config' object"),
        ("not json", "is not JSON"),
    ])
    def test_manifest_without_config_object_exits_2(self, tmp_path, capsys, body, message):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(body)
        assert main(["train", "--manifest", str(manifest), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--set", "seed=-1"]])
    def test_negative_seed_exits_2_before_any_run_directory(self, tmp_path, capsys, flags):
        root = tmp_path / "runs"
        assert main(["train"] + fast_args(out=root) + flags) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not root.exists()

    @pytest.mark.parametrize("override, message", [
        ("data={missing}", "cannot open CSV"),
        # 300 steps split 210/45/45; lookback + horizon is 96 + 96 at the defaults
        ("synth_length=300", "validation split of 45 timesteps is shorter than "
                             "lookback + horizon = 192")], ids=["missing-csv", "short-split"])
    def test_unusable_data_exits_2_before_any_run_directory(self, tmp_path, capsys,
                                                             override, message):
        root = tmp_path / "runs"
        override = override.format(missing=tmp_path / "missing.csv")
        assert main(["train", "--set", override, "--out", str(root)]) == 2
        assert message in capsys.readouterr().err
        assert not root.exists()

    def test_out_naming_a_file_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "out.txt"
        out.write_text("")
        assert main(["train"] + fast_args(out=out)) == 2
        err = capsys.readouterr().err
        assert f"cannot create run directory {out}" in err and "Not a directory" in err

    def test_out_root_env_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FREQCAST_OUT_ROOT", str(tmp_path / "envroot"))
        assert main(["train"] + [a for a in fast_args(out=tmp_path)[:-2]]) == 0
        assert run_dirs(tmp_path / "envroot")


class TestEvalCommand:
    @pytest.fixture
    def checkpoint(self, tmp_path):
        root = tmp_path / "train"
        assert main(["train"] + fast_args(out=root)) == 0
        (run_dir,) = run_dirs(root)
        return run_dir / "model.ckpt"

    def test_metrics_table_and_predictions(self, tmp_path, checkpoint, capsys):
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(checkpoint),
                     "--horizons", "2,4", "--out", str(out)]) == 0
        (run_dir,) = run_dirs(out)
        with open(run_dir / "metrics_table.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["horizon", "mae", "rmse"]
        assert [r[0] for r in rows[1:]] == ["2", "4"]

        with open(run_dir / "predictions.csv") as fh:
            pred_rows = list(csv.reader(fh))
        header, body = pred_rows[0], pred_rows[1:]
        assert header[:3] == ["window", "step", "t_index"]
        assert header[3:] == ["truth_ch0", "pred_ch0", "truth_ch1", "pred_ch1"]
        # row count = evaluated windows x horizon
        ds = data_io.synth_corpus("sinusoid_mix", 0, 320, 2)
        _, _, test = data_io.split_chronological(ds)
        windows = test.shape[0] - 16 - 4 + 1
        assert len(body) == windows * 4

    def test_out_naming_a_file_exits_2_naming_it(self, tmp_path, checkpoint, capsys,
                                                 monkeypatch):
        """The run directory is made before any forward runs over the test split."""
        out = tmp_path / "out.txt"
        out.write_text("")

        def predict(*args, **kwargs):
            raise AssertionError("predict ran before the run directory was made")

        monkeypatch.setattr(cli, "predict", predict)
        assert main(["eval", "--checkpoint", str(checkpoint), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot create run directory {out}" in err and "Not a directory" in err

    def test_seed_flag_rejected(self, tmp_path, checkpoint, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--checkpoint", str(checkpoint), "--seed", "3",
                  "--out", str(tmp_path / "e")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_non_integer_horizon_named(self, tmp_path, checkpoint, capsys):
        assert main(["eval", "--checkpoint", str(checkpoint), "--horizons", "2,abc",
                     "--out", str(tmp_path / "e2")]) == 2
        assert "--horizons: 'abc' is not an integer" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2_naming_it(self, tmp_path, capsys):
        missing = tmp_path / "absent.ckpt"
        assert main(["eval", "--checkpoint", str(missing), "--out", str(tmp_path)]) == 2
        assert "cannot open checkpoint" in capsys.readouterr().err

    def test_horizon_beyond_training_rejected(self, tmp_path, checkpoint, capsys):
        assert main(["eval", "--checkpoint", str(checkpoint), "--horizons", "8",
                     "--out", str(tmp_path / "e2")]) == 2

    def test_huge_window_count_in_header_exits_2_with_hint(self, tmp_path, capsys):
        good = tmp_path / "good.ckpt"
        save_checkpoint(str(good), init_params(RunConfig()), RunConfig())
        bad = self.with_header(good, tmp_path / "bad.ckpt",
                               lambda header: header["config"].update(windows=10**9))
        with alarm(10):
            code = main(["eval", "--checkpoint", str(bad), "--out", str(tmp_path / "e")])
        assert code == 2
        assert "nearest valid window count is 73" in capsys.readouterr().err

    @staticmethod
    def with_header(checkpoint, path, edit):
        """A copy of ``checkpoint`` at ``path`` whose JSON header ``edit`` changed."""
        blob = checkpoint.read_bytes()
        (hlen,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16:16 + hlen])
        edit(header)
        new = json.dumps(header).encode("utf-8")
        path.write_bytes(blob[:8] + struct.pack("<Q", len(new)) + new + blob[16 + hlen:])
        return path

    @staticmethod
    def with_stats(checkpoint, path, stats):
        """A copy of ``checkpoint`` at ``path`` whose norm_stats are ``stats``."""
        params, cfg, _ = load_checkpoint(str(checkpoint))
        save_checkpoint(str(path), params, cfg, stats)
        return path

    @pytest.mark.parametrize("stats,message", [
        ({"max": [1, 1]}, "norm_stats lacks 'min'"),
        ({"min": [0], "max": [1]}, "norm_stats has 1 minima and 1 maxima for data of 2 channels"),
        ({"min": [0, float("nan")], "max": [1, 1]}, "norm_stats 'min' holds a non-finite value"),
        ({"min": [0, "1"], "max": [1, 1]}, "norm_stats 'min' must be a list of numbers"),
        ([[0, 0], [1, 1]], "norm_stats must be a mapping, got list"),
    ], ids=["no-min", "one-channel", "nan", "string", "not-a-mapping"])
    def test_malformed_norm_stats_named(self, tmp_path, checkpoint, capsys, stats, message):
        bad = self.with_stats(checkpoint, tmp_path / "bad.ckpt", stats)
        assert main(["eval", "--checkpoint", str(bad), "--out", str(tmp_path / "e2")]) == 2
        err = capsys.readouterr().err
        assert f"checkpoint {bad}: {message}" in err

    @pytest.mark.parametrize("corrupt,message", [
        ("tensors", "field 'tensors' must be a list, got 5"),
        ("nan", "tensor 'head.b2' holds non-finite values"),
    ], ids=["tensors-int", "nan"])
    def test_malformed_checkpoint_exits_2_naming_the_field(self, tmp_path, checkpoint, capsys,
                                                           corrupt, message):
        bad = tmp_path / "bad.ckpt"
        if corrupt == "nan":
            params, cfg, stats = load_checkpoint(str(checkpoint))
            params.head_b2.data[0] = np.nan
            save_checkpoint(str(bad), params, cfg, stats)
        else:
            self.with_header(checkpoint, bad, lambda header: header.update(tensors=5))
        assert main(["eval", "--checkpoint", str(bad), "--out", str(tmp_path / "e2")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"checkpoint {bad} {message}" in err

    def test_data_with_other_channel_count_rejected(self, tmp_path, checkpoint, capsys):
        csv_path = tmp_path / "three.csv"
        csv_path.write_text("a,b,c\n" + "\n".join(f"{i % 7}.0,{i % 5}.0,{i % 3}.0"
                                                  for i in range(300)) + "\n")
        assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(csv_path),
                     "--out", str(tmp_path / "e2")]) == 2
        assert (f"checkpoint {checkpoint}: norm_stats has 2 minima and 2 maxima "
                "for data of 3 channels") in capsys.readouterr().err

    def test_data_too_short_to_window_names_the_test_split(self, tmp_path, checkpoint,
                                                           capsys):
        """60 rows split 42/9/9, and a lookback-16, horizon-4 checkpoint needs 20."""
        csv_path = tmp_path / "short.csv"
        csv_path.write_text("a,b\n" + "\n".join(f"{i % 7}.0,{i % 5}.0"
                                                for i in range(60)) + "\n")
        out = tmp_path / "e2"
        assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(csv_path),
                     "--out", str(out)]) == 2
        assert ("test split of 9 timesteps is shorter than lookback + horizon = 20"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_trivially_learnable_target_scores_near_zero(self, tmp_path, capsys):
        csv_path = tmp_path / "const.csv"
        csv_path.write_text("a,b\n" + "\n".join("3.0,5.0" for _ in range(300)) + "\n")
        root = tmp_path / "train"
        assert main(["train"] + fast_args(f"data={csv_path}", "epochs=1",
                                          out=root)) == 0
        (run_dir,) = run_dirs(root)
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(run_dir / "model.ckpt"),
                     "--out", str(out)]) == 0
        (eval_dir,) = run_dirs(out)
        with open(eval_dir / "metrics_table.csv") as fh:
            rows = list(csv.reader(fh))
        assert float(rows[1][1]) < 1e-8  # constant series: exact forecast


class TestAblateCommand:
    def read_report(self, root):
        (sweep_dir,) = run_dirs(root)
        with open(sweep_dir / "report.csv") as fh:
            return list(csv.DictReader(fh))

    def test_top_m_sweep(self, tmp_path):
        root = tmp_path / "sweep"
        assert main(["ablate", "--sweep", "top_m", "--values", "1,2,4,max"]
                    + fast_args(out=root)) == 0
        rows = self.read_report(root)
        assert [r["value"] for r in rows] == ["1", "2", "4", "5"]
        assert all(r["status"] == "ok" for r in rows)
        assert all(r["mae"] and r["rmse"] for r in rows)

    def test_mask_sweep_covers_all_seven_modes(self, tmp_path):
        root = tmp_path / "sweep"
        assert main(["ablate", "--sweep", "mask"] + fast_args(out=root)) == 0
        rows = self.read_report(root)
        assert len(rows) == 7
        assert {r["value"] for r in rows} == {
            "none", "x_real", "x_imag", "w_real", "w_imag",
            "w_imag+x_imag", "w_real+x_real",
        }

    def test_backbone_sweep_reports_weight_counts(self, tmp_path):
        root = tmp_path / "sweep"
        assert main(["ablate", "--sweep", "backbone"]
                    + fast_args("windows=4", "nfft=4", "lookback=16", "top_m=3",
                                out=root)) == 0
        rows = self.read_report(root)
        counts = {r["value"]: r["weight_matrices"] for r in rows}
        assert counts == {"wm": "10", "hc": "4", "basic": "16"}

    def test_non_integer_value_named(self, tmp_path, capsys):
        assert main(["ablate", "--sweep", "lookback", "--values", "16,x"]
                    + fast_args(out=tmp_path)) == 2
        assert "--values: 'x' is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep, values, repeated", [
        ("top_m", "2,2", "top_m=2"), ("top_m", "5,max", "top_m=5"),
        ("mask", "none,none", "mask=none")])
    def test_repeated_value_refused_before_any_run(self, tmp_path, capsys,
                                                   sweep, values, repeated):
        root = tmp_path / "sweep"
        assert main(["ablate", "--sweep", sweep, "--values", values]
                    + fast_args(out=root)) == 2
        assert f"--values gives {repeated} more than once" in capsys.readouterr().err
        assert not root.exists()

    def test_out_naming_a_file_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "out.txt"
        out.write_text("")
        assert main(["ablate", "--sweep", "mask"] + fast_args(out=out)) == 2
        err = capsys.readouterr().err
        assert f"cannot create run directory {out}" in err and "Not a directory" in err

    def test_failed_subruns_recorded_and_exit_nonzero(self, tmp_path):
        root = tmp_path / "sweep"
        code = main(["ablate", "--sweep", "lookback", "--values", "16,17"]
                    + fast_args(out=root))
        assert code == 1
        rows = self.read_report(root)
        by_value = {r["value"]: r for r in rows}
        assert by_value["16"]["status"] == "ok"
        assert by_value["17"]["status"] == "failed"
        assert by_value["17"]["error"]

    def test_value_with_a_split_too_short_fails_before_its_directory_is_made(self, tmp_path):
        root = tmp_path / "sweep"
        assert main(["ablate", "--sweep", "backbone", "--values", "fd", "--set",
                     "synth_length=300", "--out", str(root)]) == 1
        (row,) = self.read_report(root)
        assert row["status"] == "failed"
        assert "validation split of 45 timesteps is shorter" in row["error"]
        (sweep_dir,) = run_dirs(root)
        assert [p for p in sweep_dir.iterdir() if p.is_dir()] == []

    @pytest.mark.parametrize("value", ["q/../../../escaped", "q" * 300],
                             ids=["escaping", "too-long"])
    def test_invalid_value_fails_before_its_directory_is_made(self, tmp_path, capsys, value):
        """A value that would leave the sweep directory, or name a path too
        long to make, gets its failed row and no directory."""
        root = tmp_path / "sweep"
        assert main(["ablate", "--sweep", "backbone", "--values", value]
                    + fast_args(out=root)) == 1
        (row,) = self.read_report(root)
        assert row["status"] == "failed" and "unknown backbone kind" in row["error"]
        (sweep_dir,) = run_dirs(root)
        assert [p for p in sweep_dir.iterdir() if p.is_dir()] == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep"]
        assert "Traceback" not in capsys.readouterr().err


class TestConformanceCommand:
    def test_prints_report_and_writes_json(self, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        assert main(["conformance", "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "DEVIATES" in out and "pass" in out
        report = json.loads(json_path.read_text())
        assert report["algebra"] and report["roundtrip"]

    def test_json_rows_keep_the_report_key_order(self, tmp_path):
        json_path = tmp_path / "report.json"
        assert main(["conformance", "--json", str(json_path)]) == 0
        report = json.loads(json_path.read_text())
        assert {tuple(row) for row in report["algebra"]} == {
            ("base", "display", "row", "max_abs_deviation", "matches")}
        assert {tuple(row) for row in report["roundtrip"]} == {
            ("name", "lookback", "windows", "nfft", "window_fn", "valid", "reason",
             "max_rel_error", "passes")}

    def test_json_into_missing_directory_exits_2_naming_it(self, tmp_path, capsys):
        json_path = tmp_path / "missing" / "r.json"
        assert main(["conformance", "--json", str(json_path)]) == 2
        err = capsys.readouterr().err
        assert f"cannot create JSON report {json_path}: No such file" in err

    def test_negative_seed_exits_2(self, capsys):
        assert main(["conformance", "--seed", "-1"]) == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err

    def test_recursion_matches_itself_rows_exist(self, capsys):
        assert main(["conformance"]) == 0
        out = capsys.readouterr().out
        assert "base  2 product row 0: matches" in out


class TestSynthCommand:
    def test_writes_loadable_csv(self, tmp_path):
        out = tmp_path / "corpus.csv"
        assert main(["synth", "--kind", "sinusoid_mix", "--length", "300",
                     "--channels", "3", "--seed", "2", "--out", str(out)]) == 0
        ds = data_io.load_csv(str(out))
        assert ds.values.shape == (300, 3)
        want = data_io.synth_corpus("sinusoid_mix", 2, 300, 3)
        import numpy as np

        np.testing.assert_allclose(ds.values, want.values, atol=1e-15)

    @pytest.mark.parametrize("flag, value, named", [
        ("--noise", "-1", "noise"), ("--channels", "0", "channels >= 1, got 0"),
        ("--channels", "-1", "channels >= 1, got -1"),
        ("--seed", "-1", "--seed must be >= 0, got -1"),
        ("--length", "1000000000000", "length * channels = 1,000,000,000,000 * 2")])
    def test_bad_corpus_argument_rejected(self, tmp_path, capsys, flag, value, named):
        out = tmp_path / "corpus.csv"
        assert main(["synth", flag, value, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_out_into_missing_directory_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["synth", "--out", str(out)]) == 2
        assert f"cannot create corpus CSV {out}: No such file" in capsys.readouterr().err
