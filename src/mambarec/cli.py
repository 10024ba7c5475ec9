"""Command-line surface: prepare, train, eval, ablate, bench, sweep.

Each command offers as flags only the ``RunConfig`` fields it reads, plus a JSON
config file (``eval`` runs its checkpoint's config), writes the resolved config
next to its outputs, and exits 0 on success or a categorized nonzero code (2 config
or usage, 3 data or an unreadable file, 4 numeric, 5 contract, 1 other).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import sys
from pathlib import Path

import numpy as np

from .bench import doubling_ratios, run_bench
from .config import RunConfig
from .data import (
    SplitDataset,
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

# the RunConfig fields the commands read, grouped by what reads them: the model, its switches, and training
_MODEL_FIELDS = ("dim", "n_layers", "flip_keep", "conv_width", "d_state", "expand", "precision", "seed")
_SWITCHES = ("no_flip", "no_gate", "no_gru")
_TRAINING_FIELDS = ("data", "tie_output", "lr", "dropout", "batch_size", "epochs", "eval_every", "patience", "grad_clip")


def _add_config_flags(parser: argparse.ArgumentParser, names) -> None:
    parser.add_argument("--config", help="JSON file with RunConfig fields")
    for name in names:
        flag, default = "--" + name.replace("_", "-"), getattr(RunConfig, name)
        if isinstance(default, bool):
            parser.add_argument(flag, dest=name, action=argparse.BooleanOptionalAction, default=None)
        else:
            parser.add_argument(flag, dest=name, type=type(default), default=None)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    return cfg.replace(**overrides)


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_split_arg(cfg: RunConfig) -> tuple[RunConfig, SplitDataset]:
    """The split ``cfg.data`` names, and ``cfg`` at that split's width."""
    if not cfg.data:
        raise ConfigError("no dataset given; pass --data or set it in the config file")
    split = load_split(cfg.data)
    return cfg.replace(max_len=split.max_len), split


def _comma_list(flag: str, text: str, cast) -> list:
    try:
        return [cast(x) for x in text.split(",") if x.strip()]
    except ValueError as err:
        raise ConfigError(f"bad {flag} list {text!r}") from err


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
    cfg.dump(out / "config.json")
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
    cfg, split = _load_split_arg(cfg)
    cfg.dump(out / "config.json")
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
    out = _out_dir(args)
    params, cfg = load_checkpoint(args.checkpoint)
    if args.data:
        cfg = cfg.replace(data=args.data)
    cfg, split = _load_split_arg(cfg)
    cfg.dump(out / "config.json")
    report = evaluate_split(params, cfg, split, args.split)
    _report_to_files(report, out, f"{args.split}_metrics")
    print(f"{args.split}: {report.summary()}")
    for row in report.rows():
        print(f"  {row['metric']}@{row['cutoff']} {row['group']:<8} {row['value']:.4f} (n={row['n_users']})")
    return 0


# each variant sets every switch, so "default" is the full model whatever the config file holds
ABLATION_VARIANTS = tuple(
    (label, {switch: switch == removed for switch in _SWITCHES})
    for label, removed in (("default", None), ("no-flip", "no_flip"), ("no-gate", "no_gate"), ("no-gru", "no_gru"))
)


def _tabulate_variants(cfg: RunConfig, out: Path, column: str, variants, title: str, csv_name: str) -> int:
    """Train and test-evaluate ``cfg`` under each ``(value, overrides)`` variant; one CSV row per variant.

    ``title`` is the format string that labels each variant's stdout line. Every variant's config is
    built, and so checked, before any trains. ``config.json`` records the config the first variant ran;
    each row ran it with that row's own overrides.
    """
    cfg, split = _load_split_arg(cfg)
    configs = [cfg.replace(**overrides) for _, overrides in variants]
    configs[0].dump(out / "config.json")
    path = out / csv_name
    rows = []
    for (value, _), variant_cfg in zip(variants, configs):
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
    lengths = _comma_list("--lengths", args.lengths, int)
    cfg.dump(out / "config.json")
    rows = run_bench(cfg, lengths, batch=args.batch, reps=args.reps, warmup=args.warmup)
    with open(out / "bench.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "length", "best_seconds"])
        for r in rows:
            writer.writerow([r.model, r.length, f"{r.best_s:.6f}"])
    print(f"{'model':<10}{'length':>8}{'best_ms':>12}")
    for r in rows:
        print(f"{r.model:<10}{r.length:>8}{r.best_s * 1e3:>12.2f}")
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
    if getattr(args, args.param) is not None:
        raise ConfigError(f"{args.param} is swept by --param; drop its own flag")
    values = _comma_list("--values", args.values, SWEEPABLE[args.param])
    if not values:
        raise ConfigError("sweep needs at least one value")
    variants = [(value, {args.param: value}) for value in values]
    return _tabulate_variants(cfg, out, args.param, variants, args.param + "={}:", "sweep.csv")


# ---------------------------------------------------------------------------
# entry point


# name, function, help, RunConfig fields offered as flags, and the command's own arguments
_COMMANDS = (
    ("prepare", cmd_prepare, "ingest a TSV, filter, split, and write the split artifact",
     ("data", "min_len", "max_len", "max_len_cap"), ()),
    ("train", cmd_train, "train on a prepared split",
     (*_TRAINING_FIELDS, *_MODEL_FIELDS, *_SWITCHES, "runs"), ()),
    ("eval", cmd_eval, "evaluate a checkpoint under its stored config", (), (
        ("--checkpoint", {"required": True}),
        ("--split", {"default": "test", "choices": ["train", "valid", "test"]}),
        ("--data", {"help": "split artifact to score (default: the checkpoint's)"}),
    )),
    ("ablate", cmd_ablate, "train the full model and the three component-removal variants",
     (*_TRAINING_FIELDS, *_MODEL_FIELDS), ()),
    ("bench", cmd_bench, "forward-pass timing: encoder vs softmax attention", (*_MODEL_FIELDS, *_SWITCHES), (
        ("--lengths", {"default": "128,256,512", "help": "comma-separated sequence lengths"}),
        ("--batch", {"type": int, "default": 8}),
        ("--reps", {"type": int, "default": 5}),
        ("--warmup", {"type": int, "default": 2}),
    )),
    ("sweep", cmd_sweep, "train across a grid of one hyperparameter",
     (*_TRAINING_FIELDS, *_MODEL_FIELDS, *_SWITCHES), (
        ("--param", {"required": True, "help": f"one of {sorted(SWEEPABLE)}"}),
        ("--values", {"required": True, "help": "comma-separated values"}),
    )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mambarec",
        description="Bidirectional gated Mamba sequential recommender (CPU, self-contained)",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text, fields, own_args in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", required=True)
        for flag, kwargs in own_args:
            p.add_argument(flag, **kwargs)
        if fields:
            _add_config_flags(p, fields)
        p.set_defaults(fn=fn)
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
