"""Command-line interface.

Verbs:
  train        fit a model; writes checkpoint + metrics log + manifest
  eval         evaluate a checkpoint; writes a metrics table + predictions CSV
  ablate       sweep one knob (top_m | lookback | mask | backbone)
  conformance  print the algebra/synthesis conformance report
  synth        generate a synthetic corpus CSV

Configuration precedence: defaults < config file (or --manifest) < --set
overrides < --seed.  The merged config is recorded in the run manifest, and
``train --manifest old/manifest.json`` reproduces a run bit for bit.
Run directories are named <timestamp>-<config hash> under --out, the
FREQCAST_OUT_ROOT environment variable, or ./runs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime as _dt
import json
import os
import sys
import time

from . import __version__
from . import data as data_io
from .backbones import count_weight_matrices
from .config import (
    MASK_PLANES,
    RunConfig,
    apply_overrides,
    config_hash,
    parse_config_file,
)
from .conformance import format_report, full_report
from .errors import ConfigError, FreqcastError, create_output, open_input
from .model import load_checkpoint, save_checkpoint
from .train import fit, predict, write_metrics_csv

OUT_ROOT_ENV = "FREQCAST_OUT_ROOT"


def _flag_int(flag: str, item: str) -> int:
    try:
        return int(item)
    except ValueError:
        raise ConfigError(f"{flag}: {item!r} is not an integer") from None


def _flag_seed(args) -> int:
    """--seed of a command whose seed bypasses RunConfig (default 0)."""
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    return args.seed or 0


def _build_config(args) -> RunConfig:
    merged: dict = {}
    path = getattr(args, "manifest", None)
    if path:
        with open_input(path, "manifest", ConfigError, encoding="utf-8") as fh:
            try:
                manifest = json.load(fh)
            except ValueError as e:  # not UTF-8 or not JSON
                raise ConfigError(f"manifest {path} is not JSON: {e}") from e
        if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
            raise ConfigError(f"manifest {path} has no 'config' object")
        merged.update(manifest["config"])
    if getattr(args, "config", None):
        merged.update(parse_config_file(args.config))
    if getattr(args, "set", None):
        merged = apply_overrides(merged, args.set)
    if getattr(args, "seed", None) is not None:
        merged["seed"] = args.seed
    return RunConfig.from_dict(merged).validate()


def _out_root(args) -> str:
    return args.out or os.environ.get(OUT_ROOT_ENV) or "runs"


def _make_run_dir(root: str, tag: str, cfg: RunConfig) -> str:
    stamp = _dt.datetime.now().strftime("%Y%m%d-%H%M%S")
    base = os.path.join(root, f"{tag}-{stamp}-{config_hash(cfg)}")
    path, k = base, 1
    while os.path.exists(path):
        k += 1
        path = f"{base}-{k}"
    create_output(os.makedirs, path, "run directory")
    return path


def _resolve_dataset(cfg: RunConfig) -> data_io.Dataset:
    if cfg.data.startswith("synth:"):
        kind = cfg.data.split(":", 1)[1]
        return data_io.synth_corpus(
            kind, cfg.seed, cfg.synth_length, cfg.synth_channels, cfg.synth_noise
        )
    return data_io.load_csv(cfg.data)


def prepare_splits(cfg: RunConfig):
    """Dataset, norm stats, normalised train and validation splits, and test
    windows: a dataset or split that cannot be used fails before any output."""
    ds = _resolve_dataset(cfg)
    raw = data_io.split_chronological(ds)
    stats = data_io.fit_norm_stats(raw[0])
    splits = [data_io.normalize(split, stats) for split in raw]
    windows = [data_io.make_windows(split, cfg.lookback, cfg.horizon, cfg.stride,
                                    f"{name} split")
               for name, split in zip(("train", "validation", "test"), splits)]
    return ds, stats, splits[:2], windows[2]


def run_training(cfg: RunConfig, run_dir: str, prepared) -> dict:
    """Train on ``prepare_splits(cfg)``; write checkpoint, metrics log and manifest."""
    t0 = time.perf_counter()
    ds, stats, (train_n, val_n), (x_test, y_test) = prepared
    result = fit(train_n, val_n, cfg)

    test_metrics = data_io.metrics(predict(result.params, cfg, x_test), y_test)

    ckpt_path = os.path.join(run_dir, "model.ckpt")
    metrics_path = os.path.join(run_dir, "metrics.csv")
    save_checkpoint(ckpt_path, result.params, cfg, stats.as_dict())
    write_metrics_csv(result.log, metrics_path)

    best = result.log[result.best_epoch - 1]
    summary = {
        "dataset": ds.name,
        "best_epoch": result.best_epoch,
        "val_mae": best.val_mae,
        "val_rmse": best.val_rmse,
        "test_mae": test_metrics["mae"],
        "test_rmse": test_metrics["rmse"],
    }
    manifest = {
        "command": "train",
        "version": f"freqcast-{__version__}+{config_hash(cfg)}",
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "config": cfg.as_dict(),
        "created_utc": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "wall_time_s": time.perf_counter() - t0,
        "artifacts": {"checkpoint": "model.ckpt", "metrics": "metrics.csv"},
        "summary": summary,
    }
    with open(os.path.join(run_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return summary


def cmd_train(args) -> int:
    cfg = _build_config(args)
    prepared = prepare_splits(cfg)
    run_dir = _make_run_dir(_out_root(args), "train", cfg)
    summary = run_training(cfg, run_dir, prepared)
    print(f"run directory: {run_dir}")
    print(
        f"best epoch {summary['best_epoch']}: "
        f"val MAE {summary['val_mae']:.6f}, val RMSE {summary['val_rmse']:.6f}; "
        f"test MAE {summary['test_mae']:.6f}, test RMSE {summary['test_rmse']:.6f}"
    )
    return 0


def cmd_eval(args) -> int:
    params, cfg, stats_dict = load_checkpoint(args.checkpoint)
    if args.data:
        cfg = dataclasses.replace(cfg, data=args.data)
    ds = _resolve_dataset(cfg)
    train_raw, val_raw, test_raw = data_io.split_chronological(ds)
    stats = (data_io.fit_norm_stats(train_raw) if stats_dict is None else
             data_io.NormStats.from_dict(stats_dict, ds.channels,
                                         f"checkpoint {args.checkpoint}"))
    test_n = data_io.normalize(test_raw, stats)
    x_test, y_test = data_io.make_windows(test_n, cfg.lookback, cfg.horizon, cfg.stride,
                                          "test split")

    horizons = ([_flag_int("--horizons", h) for h in args.horizons.split(",")]
                if args.horizons else [cfg.horizon])
    bad = [h for h in horizons if not 1 <= h <= cfg.horizon]
    if bad:
        raise ConfigError(
            f"horizons {bad} outside [1, {cfg.horizon}] supported by the checkpoint"
        )

    run_dir = _make_run_dir(_out_root(args), "eval", cfg)
    preds = predict(params, cfg, x_test)

    table_path = os.path.join(run_dir, "metrics_table.csv")
    with open(table_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["horizon", "mae", "rmse"])
        for h in horizons:
            m = data_io.metrics(preds[:, :h], y_test[:, :h])
            writer.writerow([h, repr(m["mae"]), repr(m["rmse"])])
            print(f"horizon {h:>4}: MAE {m['mae']:.6f}  RMSE {m['rmse']:.6f}")

    # predictions in original units, one row per (window, horizon step)
    preds_d = data_io.denormalize(preds, stats)
    truth_d = data_io.denormalize(y_test, stats)
    test_start = ds.timesteps - test_raw.shape[0]
    pred_path = os.path.join(run_dir, "predictions.csv")
    with open(pred_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = ["window", "step", "t_index"]
        for name in ds.channel_names:
            header += [f"truth_{name}", f"pred_{name}"]
        writer.writerow(header)
        for i in range(preds_d.shape[0]):
            for s in range(cfg.horizon):
                row = [i, s, test_start + i * cfg.stride + cfg.lookback + s]
                for d in range(preds_d.shape[2]):
                    row += [repr(float(truth_d[i, s, d])), repr(float(preds_d[i, s, d]))]
                writer.writerow(row)
    print(f"run directory: {run_dir}")
    return 0


SWEEPS = ("top_m", "lookback", "mask", "backbone")


def _sweep_values(args, cfg: RunConfig) -> list:
    """The sweep's values, each once: every value gets its own run directory."""
    if args.sweep == "mask":
        values = list(MASK_PLANES) if not args.values else args.values.split(",")
    elif args.sweep == "backbone":
        values = args.values.split(",") if args.values else ["wm", "hc", "basic"]
    elif not args.values:
        raise ConfigError(f"--values is required for the {args.sweep} sweep")
    else:
        values = [cfg.plan().bins if args.sweep == "top_m" and v.strip() == "max"
                  else _flag_int("--values", v) for v in args.values.split(",")]
    twice = next((v for j, v in enumerate(values) if v in values[:j]), None)
    if twice is not None:
        raise ConfigError(f"--values gives {args.sweep}={twice} more than once")
    return values


def cmd_ablate(args) -> int:
    base = _build_config(args)
    values = _sweep_values(args, base)
    field = {"top_m": "top_m", "lookback": "lookback",
             "mask": "mask_mode", "backbone": "backbone"}[args.sweep]
    sweep_dir = _make_run_dir(_out_root(args), f"ablate-{args.sweep}", base)

    def run_one(value):
        try:
            # the value is validated before it becomes part of a path
            cfg = dataclasses.replace(base, **{field: value}).validate()
            prepared = prepare_splits(cfg)
            sub_dir = os.path.join(sweep_dir, f"{args.sweep}={value}")
            create_output(os.makedirs, sub_dir, "sweep run directory")
            summary = run_training(cfg, sub_dir, prepared)
            return {
                "sweep": args.sweep, "value": value, "status": "ok",
                "mae": summary["test_mae"], "rmse": summary["test_rmse"],
                "weight_matrices": count_weight_matrices(
                    cfg.backbone, cfg.windows, cfg.radius),
                "error": "",
            }
        except FreqcastError as e:
            return {"sweep": args.sweep, "value": value, "status": "failed",
                    "mae": "", "rmse": "", "weight_matrices": "", "error": str(e)}

    rows = [run_one(v) for v in values]

    report_path = os.path.join(sweep_dir, "report.csv")
    fields = ["sweep", "value", "status", "mae", "rmse", "weight_matrices", "error"]
    with open(report_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)

    failures = [r for r in rows if r["status"] != "ok"]
    for r in rows:
        tail = f"(error: {r['error']})" if r["status"] != "ok" else (
            f"mae={r['mae']:.6f} rmse={r['rmse']:.6f}")
        print(f"{r['sweep']}={r['value']}: {r['status']} {tail}")
    print(f"sweep report: {report_path}")
    return 1 if failures else 0


def cmd_conformance(args) -> int:
    report = full_report(seed=_flag_seed(args))
    print(format_report(report))
    if args.json:
        with create_output(open, args.json, "JSON report", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        print(f"json report: {args.json}")
    return 0


def cmd_synth(args) -> int:
    ds = data_io.synth_corpus(args.kind, _flag_seed(args), args.length,
                              args.channels, args.noise)
    with create_output(open, args.out, "corpus CSV", "w", encoding="utf-8",
                       newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.channel_names)
        for row in ds.values:
            writer.writerow([repr(float(v)) for v in row])
    print(f"wrote {ds.timesteps} x {ds.channels} corpus to {args.out}")
    return 0


def _add_common(p: argparse.ArgumentParser, config_opts: bool = True) -> None:
    p.add_argument("--out", help="output root (default: $FREQCAST_OUT_ROOT or ./runs)")
    if config_opts:
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--manifest", help="reproduce the config of a past run")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqcast",
        description="frequency-domain time-series forecasting engine",
    )
    parser.add_argument("--version", action="version", version=f"freqcast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model")
    _add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", help="CSV path or synth:<kind> (default: checkpoint's)")
    p_eval.add_argument("--horizons", help="comma list, each <= trained horizon")
    _add_common(p_eval, config_opts=False)
    p_eval.set_defaults(func=cmd_eval)

    p_abl = sub.add_parser("ablate", help="sweep one knob over seeded runs")
    p_abl.add_argument("--sweep", required=True, choices=SWEEPS)
    p_abl.add_argument("--values", help="comma list (mask/backbone have defaults)")
    _add_common(p_abl)
    p_abl.set_defaults(func=cmd_ablate)

    p_conf = sub.add_parser("conformance", help="algebra/synthesis conformance report")
    p_conf.add_argument("--json", help="also write the report as JSON")
    p_conf.add_argument("--seed", type=int, help="sampling seed")
    p_conf.set_defaults(func=cmd_conformance)

    p_synth = sub.add_parser("synth", help="write a synthetic corpus CSV")
    p_synth.add_argument("--kind", default="sinusoid_mix",
                         choices=data_io.SYNTH_KINDS)
    p_synth.add_argument("--length", type=int, default=2000)
    p_synth.add_argument("--channels", type=int, default=2)
    p_synth.add_argument("--noise", type=float, default=0.1)
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FreqcastError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
