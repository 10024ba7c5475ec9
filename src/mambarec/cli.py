"""Command-line surface: prepare, train, eval, ablate, bench, sweep.

Every command takes an optional JSON config file plus flag overrides, writes
the fully resolved config next to its outputs, and exits 0 on success or a
categorized nonzero code (2 config, 3 data or an unreadable file, 4 numeric,
5 contract, 1 other).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .bench import doubling_ratios, run_bench
from .config import RunConfig
from .data import (
    dataset_stats,
    filter_and_bound,
    ingest,
    load_split,
    save_split,
    split_leave_one_out,
)
from .errors import ConfigError, DataError, MambaRecError, NumericError
from .metrics import METRICS
from .model import load_checkpoint, save_checkpoint
from .train import evaluate_split, train_model

logger = logging.getLogger(__name__)

_OVERRIDE_FIELDS = [f for f in dataclasses.fields(RunConfig)]


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with RunConfig fields")
    for f in _OVERRIDE_FIELDS:
        flag = "--" + f.name.replace("_", "-")
        if isinstance(f.default, bool):
            parser.add_argument(flag, dest=f.name, action=argparse.BooleanOptionalAction, default=None)
        else:
            parser.add_argument(flag, dest=f.name, type=type(f.default), default=None)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {
        f.name: getattr(args, f.name)
        for f in _OVERRIDE_FIELDS
        if getattr(args, f.name, None) is not None
    }
    return cfg.replace(**overrides)


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(cfg: RunConfig, out: Path) -> None:
    cfg.dump(out / "config.json")


def _load_split_arg(cfg: RunConfig):
    if not cfg.data:
        raise ConfigError("no dataset given; pass --data or set it in the config file")
    return load_split(cfg.data)


# ---------------------------------------------------------------------------
# commands


def cmd_prepare(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(args)
    if not cfg.data:
        raise ConfigError("prepare needs --data pointing at a TSV file")
    log = ingest(cfg.data)
    raw_stats = dataset_stats(log)
    log = filter_and_bound(log, cfg.min_len, cfg.max_len_cap or None)
    stats = dataset_stats(log)
    split = split_leave_one_out(log, cfg.max_len)
    save_split(split, out / "split.json")
    _echo_config(cfg, out)
    print(f"{'':<12}{'# Users':>12}{'# Items':>12}{'Sparsity':>10}{'Avg.length':>12}")
    print(
        f"{'filtered':<12}{stats['users']:>12,}{stats['items']:>12,}"
        f"{stats['sparsity']:>9.2%}{stats['avg_length']:>12.2f}"
    )
    print(
        f"{'raw':<12}{raw_stats['users']:>12,}{raw_stats['items']:>12,}"
        f"{raw_stats['sparsity']:>9.2%}{raw_stats['avg_length']:>12.2f}"
    )
    print(f"split rows: train={len(split.train)} valid={len(split.valid)} test={len(split.test)}")
    print(f"wrote {out / 'split.json'}")
    return 0


def _report_to_files(report, out: Path, stem: str) -> None:
    report.write_csv(out / f"{stem}.csv")
    report.write_json(out / f"{stem}.json")


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(args)
    split = _load_split_arg(cfg)
    _echo_config(cfg, out)
    summary_rows = []
    for run_idx in range(cfg.runs):
        run_cfg = cfg.replace(seed=cfg.seed + run_idx)
        result = train_model(run_cfg, split)
        suffix = f"_run{run_idx}" if cfg.runs > 1 else ""
        result.write_history_csv(out / f"history{suffix}.csv")
        save_checkpoint(out / f"checkpoint{suffix}.npz", result.params, run_cfg.to_dict())
        test_report = evaluate_split(result.params, run_cfg, split, "test")
        _report_to_files(test_report, out, f"test_metrics{suffix}")
        if split.valid:
            _report_to_files(evaluate_split(result.params, run_cfg, split, "valid"), out, f"valid_metrics{suffix}")
        summary_rows.append((run_cfg.seed, test_report))
        print(f"run seed={run_cfg.seed}: epochs={result.epochs_run} test {test_report.summary()}")
    if len(summary_rows) > 1:
        for metric in METRICS:
            vals = [r.get(metric) for _, r in summary_rows]
            print(f"mean {metric}@10 over {len(vals)} runs: {np.mean(vals):.4f}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(args)
    params, ckpt_cfg_dict = load_checkpoint(args.checkpoint)
    ckpt_cfg = RunConfig.from_dict(ckpt_cfg_dict)
    if cfg.data:
        ckpt_cfg = ckpt_cfg.replace(data=cfg.data)
    split = _load_split_arg(ckpt_cfg)
    _echo_config(ckpt_cfg, out)
    report = evaluate_split(params, ckpt_cfg, split, args.split)
    _report_to_files(report, out, f"{args.split}_metrics")
    print(f"{args.split}: {report.summary()}")
    for row in report.rows():
        print(f"  {row['metric']}@{row['cutoff']} {row['group']:<8} {row['value']:.4f} (n={row['n_users']})")
    return 0


ABLATION_VARIANTS = (
    ("default", {}),
    ("no-flip", {"no_flip": True}),
    ("no-gate", {"no_gate": True}),
    ("no-gru", {"no_gru": True}),
)


def _tabulate_variants(cfg: RunConfig, out: Path, column: str, variants, title: str, csv_name: str) -> int:
    """Train and test-evaluate ``cfg`` under each ``(value, overrides)`` variant; one CSV row per variant.

    ``title`` is the format string that labels each variant's stdout line.
    """
    split = _load_split_arg(cfg)
    _echo_config(cfg, out)
    path = out / csv_name
    rows = []
    for value, overrides in variants:
        variant_cfg = cfg.replace(**overrides)
        result = train_model(variant_cfg, split)
        report = evaluate_split(result.params, variant_cfg, split, "test")
        rows.append({column: value, **{f"{m}@10": report.get(m) for m in METRICS}})
        print(f"{title.format(value)} {report.summary()}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {path}")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    return _tabulate_variants(cfg, _out_dir(args), "variant", ABLATION_VARIANTS, "{:<10}", "ablation.csv")


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(args)
    try:
        lengths = [int(x) for x in args.lengths.split(",") if x.strip()]
    except ValueError as err:
        raise ConfigError(f"bad --lengths value {args.lengths!r}") from err
    _echo_config(cfg, out)
    rows = run_bench(cfg, lengths, batch=args.batch, reps=args.reps, warmup=args.warmup)
    with open(out / "bench.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "length", "median_seconds"])
        for r in rows:
            writer.writerow([r.model, r.length, f"{r.median_s:.6f}"])
    print(f"{'model':<10}{'length':>8}{'median_ms':>12}")
    for r in rows:
        print(f"{r.model:<10}{r.length:>8}{r.median_s * 1e3:>12.2f}")
    for model in ("encoder", "attention"):
        for short, long_, ratio in doubling_ratios(rows, model):
            print(f"{model}: time({long_}) / time({short}) = {ratio:.2f}")
    print(f"wrote {out / 'bench.csv'}")
    return 0


SWEEPABLE = {"flip_keep": int, "n_layers": int, "dim": int, "d_state": int, "lr": float, "dropout": float}


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(args)
    if args.param not in SWEEPABLE:
        raise ConfigError(f"--param must be one of {sorted(SWEEPABLE)}")
    cast = SWEEPABLE[args.param]
    try:
        values = [cast(x) for x in args.values.split(",") if x.strip()]
    except ValueError as err:
        raise ConfigError(f"bad --values list {args.values!r}") from err
    if not values:
        raise ConfigError("sweep needs at least one value")
    variants = [(value, {args.param: value}) for value in values]
    return _tabulate_variants(cfg, out, args.param, variants, args.param + "={}:", "sweep.csv")


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mambarec",
        description="Bidirectional gated Mamba sequential recommender (CPU, self-contained)",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="ingest a TSV, filter, split, and write the split artifact")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("train", help="train on a prepared split")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=["train", "valid", "test"])
    _add_config_flags(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="train the default and the three component-removal variants")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("bench", help="forward-pass timing: encoder vs softmax attention")
    p.add_argument("--out", required=True)
    p.add_argument("--lengths", default="128,256,512", help="comma-separated sequence lengths")
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--warmup", type=int, default=2)
    _add_config_flags(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("sweep", help="train across a grid of one hyperparameter")
    p.add_argument("--out", required=True)
    p.add_argument("--param", required=True, help=f"one of {sorted(SWEEPABLE)}")
    p.add_argument("--values", required=True, help="comma-separated values")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_sweep)
    return parser


_EXIT_CODES = (
    (ConfigError, 2),
    (DataError, 3),
    (OSError, 3),
    (NumericError, 4),
    (MambaRecError, 5),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING, format="%(message)s")
    try:
        return args.fn(args)
    except Exception as err:  # noqa: BLE001 - single funnel to categorized exit codes
        for klass, code in _EXIT_CODES:
            if isinstance(err, klass):
                print(f"error: {err}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
