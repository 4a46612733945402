"""End-to-end command-line workflows in a temporary directory."""

import csv
import json
import os
from pathlib import Path

import pytest

from freqcast import data as data_io
from freqcast.cli import main
from freqcast.config import (
    RunConfig,
    apply_overrides,
    config_hash,
    parse_config_file,
)
from freqcast.errors import ConfigError
from freqcast.model import load_checkpoint, save_checkpoint

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

    def test_non_mapping_config_rejected(self):
        with pytest.raises(ConfigError, match="must be a mapping, got list"):
            RunConfig.from_dict([["lookback", 16]])

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

    def test_data_with_other_channel_count_rejected(self, tmp_path, checkpoint, capsys):
        csv_path = tmp_path / "three.csv"
        csv_path.write_text("a,b,c\n" + "\n".join(f"{i % 7}.0,{i % 5}.0,{i % 3}.0"
                                                  for i in range(300)) + "\n")
        assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(csv_path),
                     "--out", str(tmp_path / "e2")]) == 2
        assert (f"checkpoint {checkpoint}: norm_stats has 2 minima and 2 maxima "
                "for data of 3 channels") in capsys.readouterr().err

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


class TestConformanceCommand:
    def test_prints_report_and_writes_json(self, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        assert main(["conformance", "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "DEVIATES" in out and "pass" in out
        report = json.loads(json_path.read_text())
        assert report["algebra"] and report["roundtrip"]

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
