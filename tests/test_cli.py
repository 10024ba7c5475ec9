"""Command surface: prepare/train/eval/ablate/bench/sweep plus ablation wiring."""

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from reference_data import Interaction, InteractionSequence, log_of

from mambarec import cli
from mambarec.autodiff import Tape, Tensor
from mambarec.cli import build_parser, main
from mambarec.config import RunConfig
from mambarec.data import load_split, make_batch, split_leave_one_out
from mambarec.layers import LayerOptions, bidirectional_mamba, init_layer_params
from mambarec.model import (
    CHECKPOINT_FORMAT,
    batch_loss,
    init_model_params,
    layer_options,
    load_checkpoint,
    named_tensors,
    save_checkpoint,
)


def _write_tsv(path, n_users=14, catalog=8, length=7):
    rng = np.random.default_rng(5)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user_id\titem_id\ttimestamp\trating\n")
        for u in range(n_users):
            start = int(rng.integers(0, catalog))
            for t in range(length):
                fh.write(f"u{u}\ti{(start + t) % catalog}\t{100 + t}\t4\n")
    return path


def _tiny_args():
    return [
        "--dim", "8", "--d-state", "2", "--conv-width", "2",
        "--epochs", "1", "--batch-size", "8", "--dropout", "0.0",
    ]


@pytest.fixture()
def prepared(tmp_path):
    tsv = _write_tsv(tmp_path / "toy.tsv")
    rc = main(["prepare", "--out", str(tmp_path / "prep"), "--data", str(tsv), "--min-len", "1", "--max-len", "7"])
    assert rc == 0
    return tmp_path / "prep" / "split.json"


def test_prepare_stats_hand_count(tmp_path, capsys):
    tsv = tmp_path / "three.tsv"
    tsv.write_text(
        "user_id\titem_id\ttimestamp\n"
        + "".join(f"u1\ta{i}\t{i}\n" for i in range(3))
        + "".join(f"u2\tb{i}\t{i}\n" for i in range(4))
        + "".join(f"u3\ta{i}\t{i}\n" for i in range(3)),
        encoding="utf-8",
    )
    rc = main(["prepare", "--out", str(tmp_path / "p"), "--data", str(tsv), "--min-len", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "3" in out and "7" in out  # 3 users, 7 distinct items
    assert "split rows: train=1 valid=3 test=3" in out  # only u2 has >= 4 items


def test_prepare_is_deterministic(tmp_path):
    tsv = _write_tsv(tmp_path / "toy.tsv")
    main(["prepare", "--out", str(tmp_path / "a"), "--data", str(tsv), "--min-len", "1"])
    main(["prepare", "--out", str(tmp_path / "b"), "--data", str(tsv), "--min-len", "1"])
    assert (tmp_path / "a" / "split.json").read_bytes() == (tmp_path / "b" / "split.json").read_bytes()


def test_train_writes_artifacts_and_config_echo(tmp_path, prepared):
    out = tmp_path / "run"
    rc = main(["train", "--out", str(out), "--data", str(prepared), *_tiny_args()])
    assert rc == 0
    for name in ("config.json", "checkpoint.npz", "history.csv", "test_metrics.csv", "test_metrics.json"):
        assert (out / name).exists(), name
    echoed = RunConfig.from_file(out / "config.json")
    assert echoed.dim == 8 and echoed.epochs == 1
    assert echoed.data == str(prepared)


def test_train_with_a_flip_keep_past_any_width_keeps_every_item(tmp_path, prepared):
    out = tmp_path / "run"
    rc = main(["train", "--out", str(out), "--data", str(prepared), *_tiny_args(), "--flip-keep", str(10**23)])
    assert rc == 0
    assert RunConfig.from_file(out / "config.json").flip_keep == 10**23


def test_eval_loads_checkpoint(tmp_path, prepared, capsys):
    run = tmp_path / "run"
    main(["train", "--out", str(run), "--data", str(prepared), *_tiny_args()])
    rc = main(["eval", "--out", str(tmp_path / "ev"), "--checkpoint", str(run / "checkpoint.npz")])
    assert rc == 0
    assert "HR@10" in capsys.readouterr().out
    assert (tmp_path / "ev" / "test_metrics.csv").exists()


def test_eval_reproduces_training_metrics_bitwise(tmp_path, prepared):
    run = tmp_path / "run"
    main(["train", "--out", str(run), "--data", str(prepared), *_tiny_args()])
    ev = tmp_path / "ev"
    main(["eval", "--out", str(ev), "--checkpoint", str(run / "checkpoint.npz"), "--split", "test"])
    a = json.loads((run / "test_metrics.json").read_text())
    b = json.loads((ev / "test_metrics.json").read_text())
    assert a == b


@pytest.mark.parametrize("catalog", [6, 10], ids=["smaller", "larger"])
def test_eval_on_a_split_with_another_catalog_is_data_error(tmp_path, prepared, capsys, catalog):
    run = tmp_path / "run"
    main(["train", "--out", str(run), "--data", str(prepared), *_tiny_args()])
    tsv = _write_tsv(tmp_path / "other.tsv", catalog=catalog)
    main(["prepare", "--out", str(tmp_path / "other"), "--data", str(tsv), "--min-len", "1", "--max-len", "7"])
    capsys.readouterr()
    rc = main(["eval", "--out", str(tmp_path / "ev"), "--checkpoint", str(run / "checkpoint.npz"),
               "--data", str(tmp_path / "other" / "split.json")])
    assert rc == 3
    assert f"split has {catalog} items but the model scores 8" in capsys.readouterr().err


def test_eval_of_a_split_with_no_rows_is_data_error(tmp_path, capsys):
    tsv = _write_tsv(tmp_path / "three.tsv", length=3)  # every user has 3 items, so no training rows
    main(["prepare", "--out", str(tmp_path / "prep"), "--data", str(tsv), "--min-len", "1", "--max-len", "7"])
    split_path = tmp_path / "prep" / "split.json"
    cfg = RunConfig(dim=8, d_state=2, conv_width=2, max_len=7, min_len=1, data=str(split_path))
    save_checkpoint(tmp_path / "ckpt.npz", init_model_params(cfg, 8, np.random.default_rng(0)), cfg.to_dict())
    capsys.readouterr()
    ev = tmp_path / "ev"
    rc = main(["eval", "--out", str(ev), "--checkpoint", str(tmp_path / "ckpt.npz"), "--split", "train"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "the train split has no rows" in err and "Traceback" not in err
    assert not list(ev.glob("train_metrics.*"))


def test_eval_on_a_checkpoint_that_disagrees_with_its_config_is_config_error(tmp_path, prepared, capsys):
    cfg = RunConfig(dim=8, d_state=2, conv_width=2, max_len=7, min_len=1, data=str(prepared))
    ckpt = tmp_path / "ckpt.npz"
    params = init_model_params(cfg.replace(n_layers=2), 8, np.random.default_rng(0))
    save_checkpoint(ckpt, params, cfg.replace(n_layers=1).to_dict())
    rc = main(["eval", "--out", str(tmp_path / "ev"), "--checkpoint", str(ckpt)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "does not match its config" in err and "'layers.1." in err
    assert "Traceback" not in err


def _write_unreadable_checkpoint(path, case):
    if case == "text":
        path.write_text("not a checkpoint\n", encoding="utf-8")
    elif case == "single-array":
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(1))
    elif case == "no-format":
        np.savez(path, x=np.zeros(1))
    elif case == "no-embedding":
        np.savez(path, __format__=np.array(CHECKPOINT_FORMAT), __config__=np.array(json.dumps(RunConfig().to_dict())))
    elif case in ("config-not-json", "config-null", "config-five", "object-array", "embedding-0d"):
        config = {"config-not-json": "{not json", "config-null": "null", "config-five": "5"}
        embedding = {"object-array": np.array([None, 1], dtype=object), "embedding-0d": np.zeros((), np.float32)}
        arrays = {
            "__format__": np.array(CHECKPOINT_FORMAT),
            "__config__": np.array(config.get(case, json.dumps(RunConfig().to_dict()))),
            "param:embedding": embedding.get(case, np.zeros((3, 8), np.float32)),
        }
        np.savez(path, **arrays)
    elif case in ("int64-params", "float64-params"):
        cfg = RunConfig(dim=8, d_state=2, conv_width=2)
        params = init_model_params(cfg, 8, np.random.default_rng(0))
        for _, t in named_tensors(params):
            t.data = t.data.astype(case.split("-")[0])
        save_checkpoint(path, params, cfg.to_dict())


@pytest.mark.parametrize(
    "case, code",
    [("missing", 3), ("text", 2), ("single-array", 2), ("no-format", 2), ("no-embedding", 2), ("config-not-json", 2),
     ("config-null", 2), ("config-five", 2), ("object-array", 2), ("embedding-0d", 2), ("int64-params", 2),
     ("float64-params", 2)],
)
def test_eval_on_an_unreadable_checkpoint_exits_with_a_code(tmp_path, capsys, case, code):
    ckpt = tmp_path / "ckpt.npz"
    _write_unreadable_checkpoint(ckpt, case)
    rc = main(["eval", "--out", str(tmp_path / "ev"), "--checkpoint", str(ckpt)])
    err = capsys.readouterr().err
    assert rc == code
    assert str(ckpt) in err and "Traceback" not in err


def _v1_arrays(params):
    """The parameters under their v1 names: three per-gate GRU weights and biases, one in_proj per Mamba block."""
    named = {name: t.data for name, t in named_tensors(params)}
    v1 = {}
    for name, a in named.items():
        base, _, field = name.rpartition(".")
        if base.endswith("gru") and field in ("w", "b"):
            for gate, part in zip(("update", "reset", "cand"), np.split(a, 3, axis=-1)):
                v1[f"{base}.{gate}_{field}"] = part
        elif field == "in_u":
            v1[f"{base}.in_proj"] = np.concatenate([a, named[f"{base}.in_z"]], axis=1)
        elif field != "in_z":
            v1[name] = a
    return v1


def _v3_arrays(params):
    """The parameters as v3 stored them: each item table [n_items, D], item id k at row k - 1."""
    return {name: t.data.T if name.endswith("embedding") else t.data for name, t in named_tensors(params)}


def _v2_arrays(params):
    """The parameters as v2 stored them: each v3 item table led by an all-zero padding row."""
    return {
        name: np.concatenate([np.zeros_like(a[:1]), a]) if name.endswith("embedding") else a
        for name, a in _v3_arrays(params).items()
    }


def test_eval_refuses_a_v1_checkpoint_naming_its_format(tmp_path, capsys):
    """v1, v2 and v3 checkpoints (older layouts) all exit 2 naming their format."""
    cfg = RunConfig(dim=8, d_state=2, conv_width=2)
    params = init_model_params(cfg, 8, np.random.default_rng(0))
    v1 = _v1_arrays(params)
    assert "layers.0.gru.update_w" in v1 and "layers.0.mamba_fwd.in_proj" in v1
    v2 = _v2_arrays(params)
    assert v2["embedding"].shape == (9, 8)
    for version, arrays in (("v1", v1), ("v2", v2), ("v3", _v3_arrays(params))):
        ckpt = tmp_path / f"{version}.npz"
        np.savez(ckpt, __format__=np.array(f"mambarec-checkpoint-{version}"),
                 __config__=np.array(json.dumps(cfg.to_dict())), **{f"param:{name}": a for name, a in arrays.items()})
        rc = main(["eval", "--out", str(tmp_path / f"ev-{version}"), "--checkpoint", str(ckpt)])
        err = capsys.readouterr().err
        assert rc == 2, version
        assert f"'mambarec-checkpoint-{version}'" in err and str(ckpt) in err and "Traceback" not in err


def test_eval_of_a_checkpoint_with_a_nan_parameter_is_numeric_error(tmp_path, prepared, capsys):
    # a NaN score outranks no item, so unchecked it would report every metric as 1.0
    run = tmp_path / "run"
    main(["train", "--out", str(run), "--data", str(prepared), *_tiny_args()])
    with np.load(run / "checkpoint.npz") as blob:
        arrays = dict(blob)
    arrays["param:layers.0.ff_out_b"][0] = np.nan
    np.savez(tmp_path / "poisoned.npz", **arrays)
    capsys.readouterr()
    rc = main(["eval", "--out", str(tmp_path / "ev"), "--checkpoint", str(tmp_path / "poisoned.npz")])
    err = capsys.readouterr().err
    assert rc == 4
    assert "non-finite scores in the test split" in err and "Traceback" not in err
    assert not (tmp_path / "ev" / "test_metrics.csv").exists()


@pytest.mark.parametrize("command, name", [("prepare", "missing.tsv"), ("train", "missing.json")])
def test_missing_input_file_is_data_error(tmp_path, capsys, command, name):
    rc = main([command, "--out", str(tmp_path / "x"), "--data", str(tmp_path / name)])
    err = capsys.readouterr().err
    assert rc == 3
    assert name in err and "Traceback" not in err


def test_prepare_on_non_utf8_input_is_data_error(tmp_path, capsys):
    tsv = tmp_path / "cp1252.tsv"
    tsv.write_bytes(b"user_id\titem_id\ttimestamp\nu1\tcaf\xff\t1\n")
    rc = main(["prepare", "--out", str(tmp_path / "x"), "--data", str(tsv)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "cp1252.tsv" in err and "Traceback" not in err


def test_prepare_on_an_unterminated_quote_is_data_error(tmp_path, capsys):
    # the quote opened on line 3 closes on line 6: read as one field, it would swallow the three lines after it
    tsv = tmp_path / "quote.tsv"
    tsv.write_text("user_id\titem_id\ttimestamp\nu0\ti0\t0\nu1\t\"i1\t1\n\nu2\ti2\t2\nu3\ti4\"\t4\nu5\ti5\t5\n",
                   encoding="utf-8")
    rc = main(["prepare", "--out", str(tmp_path / "x"), "--data", str(tsv), "--min-len", "1"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "quote.tsv:3: quoted field does not close on its line" in err and "Traceback" not in err
    assert not (tmp_path / "x" / "split.json").exists()


def test_prepare_on_a_header_naming_a_column_twice_is_data_error(tmp_path, capsys):
    # read silently, the items would be ordered by the last timestamp column
    tsv = tmp_path / "twice.tsv"
    tsv.write_text("user_id\titem_id\ttimestamp\ttimestamp\nu0\ti0\t0\t9\nu0\ti1\t1\t8\n", encoding="utf-8")
    rc = main(["prepare", "--out", str(tmp_path / "x"), "--data", str(tsv), "--min-len", "1"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "twice.tsv:1: header names column 'timestamp' twice" in err and "Traceback" not in err
    assert not (tmp_path / "x" / "split.json").exists()


@pytest.mark.parametrize("text, message", [
    ('u0\t"i0\t0\n' + "u1\ti1\t1\n" * 20_000, ":2: quoted field does not close on its line"),
    ("u0\ti0\t0\nu1\t" + "x" * 200_000 + "\t1\n", ":3: field larger than field limit (131072)"),
], ids=["unclosed-quote", "long-field"])
def test_prepare_on_a_field_over_the_size_limit_is_data_error(tmp_path, capsys, text, message):
    tsv = tmp_path / "long.tsv"
    tsv.write_text("user_id\titem_id\ttimestamp\n" + text, encoding="utf-8")
    rc = main(["prepare", "--out", str(tmp_path / "x"), "--data", str(tsv), "--min-len", "1"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "long.tsv" + message in err and "Traceback" not in err
    assert not (tmp_path / "x" / "split.json").exists()


@pytest.mark.parametrize("command, flag", [("prepare", "--config"), ("train", "--data")])
def test_a_non_utf8_config_or_split_file_exits_with_a_code(tmp_path, capsys, command, flag):
    bad = tmp_path / "cp1252.json"
    bad.write_bytes(b'{"dim": "caf\xff"}')
    rc = main([command, "--out", str(tmp_path / "x"), flag, str(bad)])
    err = capsys.readouterr().err
    assert rc == (2 if flag == "--config" else 3)
    assert "cp1252.json" in err and "Traceback" not in err


def test_rerun_from_echoed_config_is_bitwise_identical(tmp_path, prepared):
    first = tmp_path / "first"
    main(["train", "--out", str(first), "--data", str(prepared), *_tiny_args()])
    second = tmp_path / "second"
    rc = main(["train", "--out", str(second), "--config", str(first / "config.json")])
    assert rc == 0
    assert (first / "test_metrics.json").read_bytes() == (second / "test_metrics.json").read_bytes()
    assert (first / "history.csv").read_bytes() == (second / "history.csv").read_bytes()


def test_ablate_reports_four_variants(tmp_path, prepared, capsys):
    out = tmp_path / "abl"
    rc = main(["ablate", "--out", str(out), "--data", str(prepared), *_tiny_args()])
    assert rc == 0
    lines = (out / "ablation.csv").read_text().strip().splitlines()
    assert lines[0] == "variant,HR@10,NDCG@10,MRR@10"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["default", "no-flip", "no-gate", "no-gru"]


def test_sweep_over_flip_keep(tmp_path, prepared):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--out", str(out), "--data", str(prepared), "--param", "flip_keep",
               "--values", "0,7", *_tiny_args()])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0].startswith("flip_keep,")
    assert len(lines) == 3


def test_sweep_rejects_unknown_param(tmp_path, prepared):
    rc = main(["sweep", "--out", str(tmp_path / "s"), "--data", str(prepared),
               "--param", "nonsense", "--values", "1"])
    assert rc == 2


def test_sweep_checks_every_value_before_it_trains(tmp_path, prepared, capsys, monkeypatch):
    def no_training(*args):
        raise AssertionError("a variant trained")

    monkeypatch.setattr("mambarec.cli.train_model", no_training)
    out = tmp_path / "s"
    rc = main(["sweep", "--out", str(out), "--data", str(prepared), "--param", "dropout", "--values", "0.1,0.2,1.0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "dropout must be in [0, 1)" in err and "Traceback" not in err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("param, flag", [("lr", "--lr"), ("flip_keep", "--flip-keep")])
def test_sweep_rejects_a_flag_for_the_swept_field(tmp_path, prepared, capsys, param, flag):
    rc = main(["sweep", "--out", str(tmp_path / "s"), "--data", str(prepared),
               "--param", param, "--values", "1", flag, "5"])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{param} is swept by --param" in err and "Traceback" not in err


def test_bench_runs_and_reports_ratios(tmp_path, capsys):
    rc = main(["bench", "--out", str(tmp_path / "b"), "--lengths", "16,8,16", "--batch", "2",
               "--dim", "8", "--d-state", "2", "--reps", "1", "--warmup", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "encoder: time(16) / time(8)" in out
    with open(tmp_path / "b" / "bench.csv", newline="", encoding="utf-8") as fh:
        rows = [(r["model"], r["length"]) for r in csv.DictReader(fh)]
    assert sorted(rows) == [("attention", "16"), ("attention", "8"), ("encoder", "16"), ("encoder", "8")]


def test_bench_empty_lengths_is_usage_error(tmp_path):
    rc = main(["bench", "--out", str(tmp_path / "b"), "--lengths", ""])
    assert rc == 2


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    tsv = _write_tsv(root / "toy.tsv")
    assert main(["prepare", "--out", str(root / "prep"), "--data", str(tsv), "--min-len", "1", "--max-len", "7"]) == 0
    split = root / "prep" / "split.json"
    assert main(["train", "--out", str(root / "run"), "--data", str(split), *_tiny_args()]) == 0
    return split, root / "run" / "checkpoint.npz"


def _corrupt_split(payload, case):
    inputs, target = payload["splits"]["test"][0][1:]
    k = len(payload["item_ids"])
    if case == "input-above-catalog":
        inputs[0] = k + 1
    elif case == "input-negative":
        inputs[0] = -1
    elif case == "target-above-catalog":
        payload["splits"]["test"][0][2] = k + 1
    elif case == "target-zero":
        payload["splits"]["test"][0][2] = 0
    elif case == "string-id":
        inputs[0] = str(inputs[0])
    elif case == "empty-inputs":
        inputs.clear()
    elif case == "no-splits":
        del payload["splits"]
    elif case == "user-without-group":
        del payload["groups"][str(payload["splits"]["test"][0][0])]
    elif case in ("user-zero", "user-above-range"):  # grouped, so only the range check can catch it
        user = 0 if case == "user-zero" else len(payload["user_ids"]) + 1
        payload["splits"]["test"][0][0] = user
        payload["groups"][str(user)] = "Short"
    elif case == "max-len-zero":
        payload["max_len"] = 0
    elif case == "max-len-true":
        payload["max_len"] = True


@pytest.mark.parametrize(
    "case",
    ["input-above-catalog", "input-negative", "target-above-catalog", "target-zero", "string-id",
     "empty-inputs", "no-splits", "user-without-group", "user-zero", "user-above-range", "max-len-zero",
     "max-len-true"],
)
@pytest.mark.parametrize("command", ["train", "eval"])
def test_malformed_split_is_data_error(tmp_path, capsys, trained, command, case):
    split, ckpt = trained
    payload = json.loads(split.read_text(encoding="utf-8"))
    _corrupt_split(payload, case)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    args = ["--checkpoint", str(ckpt)] if command == "eval" else _tiny_args()
    rc = main([command, "--out", str(tmp_path / "x"), "--data", str(bad), *args])
    err = capsys.readouterr().err
    assert rc == 3
    assert "bad.json" in err and "Traceback" not in err


def test_missing_data_is_config_error(tmp_path):
    rc = main(["train", "--out", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize(
    "field, value",
    [("dim", "abc"), ("n_layers", 1.5), ("epochs", True), ("lr", "fast"), ("dropout", False),
     ("no_gate", "yes"), ("tie_output", 1), ("precision", 32), ("data", 3)],
)
def test_config_field_of_the_wrong_type_is_config_error(tmp_path, capsys, field, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: value}), encoding="utf-8")
    rc = main(["train", "--out", str(tmp_path / "x"), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{field} must be" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, field",
    [(["train", "--eval-every", "0"], "eval_every"), (["train", "--runs", "0"], "runs"),
     (["train", "--lr", "-1"], "lr"), (["train", "--lr", "nan"], "lr"), (["train", "--grad-clip", "nan"], "grad_clip"),
     (["bench", "--batch", "0"], "batch"), (["bench", "--batch", "-2"], "batch"),
     (["bench", "--reps", "0"], "reps"), (["bench", "--warmup", "-1"], "warmup"),
     (["train", "--seed", "-1"], "seed"), (["bench", "--seed", "-1"], "seed"), (["train", "--lr", "inf"], "lr")],
)
def test_count_or_rate_out_of_range_is_config_error(tmp_path, capsys, argv, field):
    rc = main([*argv, "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{field} must be" in err and "Traceback" not in err


def test_config_float_fields_take_integers():
    cfg = RunConfig.from_dict({"lr": 1, "dropout": 0, "grad_clip": 5}, "test config")
    assert (cfg.lr, cfg.dropout, cfg.grad_clip) == (1, 0, 5)


def test_train_on_a_split_without_training_rows_is_data_error(tmp_path, capsys):
    tsv = _write_tsv(tmp_path / "three.tsv", length=3)  # three items each: valid and test rows only
    main(["prepare", "--out", str(tmp_path / "p"), "--data", str(tsv), "--min-len", "1"])
    assert "split rows: train=0 valid=14 test=14" in capsys.readouterr().out
    rc = main(["train", "--out", str(tmp_path / "x"), "--data", str(tmp_path / "p" / "split.json"), *_tiny_args()])
    err = capsys.readouterr().err
    assert rc == 3
    assert "split has no training rows for 1 epoch(s)" in err and "Traceback" not in err
    assert not (tmp_path / "x" / "history.csv").exists()
    rc = main(["train", "--out", str(tmp_path / "y"), "--data", str(tmp_path / "p" / "split.json"), *_tiny_args(),
               "--epochs", "0"])
    assert rc == 0  # no epochs to run: the fresh model is saved and evaluated


def test_bad_split_file_is_data_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    rc = main(["train", "--out", str(tmp_path / "x"), "--data", str(bad)])
    assert rc == 3


_MODEL_FLAGS = {"--dim", "--n-layers", "--flip-keep", "--conv-width", "--d-state", "--expand", "--precision", "--seed"}
_SWITCH_FLAGS = {"--no-flip", "--no-gate", "--no-gru"}
_TRAINING_FLAGS = {
    "--data", "--tie-output", "--lr", "--dropout", "--batch-size", "--epochs", "--eval-every", "--patience", "--grad-clip",
}


def test_each_command_offers_exactly_the_options_it_reads():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    offered = {name: {a.option_strings[0] for a in p._actions if a.dest != "help"} for name, p in sub.choices.items()}
    assert offered == {
        "prepare": {"--out", "--config", "--data", "--min-len", "--max-len", "--max-len-cap"},
        "train": {"--out", "--config", *_TRAINING_FLAGS, *_MODEL_FLAGS, *_SWITCH_FLAGS, "--runs"},
        "eval": {"--out", "--checkpoint", "--split", "--data"},
        "ablate": {"--out", "--config", *_TRAINING_FLAGS, *_MODEL_FLAGS},
        "bench": {"--out", "--config", "--lengths", "--batch", "--reps", "--warmup", *_MODEL_FLAGS, *_SWITCH_FLAGS},
        "sweep": {"--out", "--config", "--param", "--values", *_TRAINING_FLAGS, *_MODEL_FLAGS, *_SWITCH_FLAGS},
    }
    assert sum(map(len, offered.values())) == 93


@pytest.mark.parametrize(
    "command, unread",
    [("prepare", "--lr 1"), ("eval", "--dim 999"), ("eval", "--config c.json"), ("bench", "--batch-size 999"),
     ("bench", "--data nothing"), ("ablate", "--no-gru"), ("ablate", "--runs 2"), ("sweep", "--runs 2"),
     ("train", "--max-len 3")],
)
def test_a_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, command, unread):
    required = {"eval": ["--checkpoint", "c.npz"], "sweep": ["--param", "lr", "--values", "0.1"]}
    with pytest.raises(SystemExit) as exc:
        main([command, *required.get(command, []), "--out", str(tmp_path / "x"), *unread.split()])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {unread}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_an_unread_flag_exits_2_from_the_command_line(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["eval", "--out", str(tmp_path / "x"), "--checkpoint", str(tmp_path / "c.npz"), "--lr", "1"]
    proc = subprocess.run([sys.executable, "-m", "mambarec.cli", *argv], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 2
    assert "unrecognized arguments: --lr 1" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["train", "ablate", "sweep", "eval"])
def test_the_split_sets_the_recorded_width(tmp_path, trained, command):
    split, ckpt = trained
    width = load_split(split).max_len
    if command == "eval":
        params, cfg = load_checkpoint(ckpt)
        narrow = tmp_path / "narrow.npz"
        save_checkpoint(narrow, params, cfg.replace(max_len=width - 4).to_dict())
        argv = ["eval", "--checkpoint", str(narrow)]
    else:
        cfg_file = tmp_path / "cfg.json"
        RunConfig(max_len=width - 4, data=str(split), dim=8, d_state=2, conv_width=2, epochs=1, batch_size=8,
                  dropout=0.0).dump(cfg_file)
        argv = [command, "--config", str(cfg_file)]
        if command == "sweep":
            argv += ["--param", "flip_keep", "--values", "0"]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert RunConfig.from_file(out / "config.json").max_len == width
    if command == "train":
        assert load_checkpoint(out / "checkpoint.npz")[1].max_len == width


def test_ablate_variants_set_every_switch_whatever_the_config_file_holds(tmp_path, prepared, monkeypatch):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"no_gru": True}), encoding="utf-8")
    seen = []
    train_model = cli.train_model
    monkeypatch.setattr(cli, "train_model", lambda cfg, split: seen.append(cfg) or train_model(cfg, split))
    rc = main(["ablate", "--out", str(tmp_path / "abl"), "--config", str(cfg_file), "--data", str(prepared),
               *_tiny_args()])
    assert rc == 0
    assert [(c.no_flip, c.no_gate, c.no_gru) for c in seen] == [
        (False, False, False), (True, False, False), (False, True, False), (False, False, True),
    ]


@pytest.mark.parametrize("command", ["ablate", "sweep"])
def test_ablate_and_sweep_record_the_config_of_their_first_row(tmp_path, prepared, command):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"no_gru": True, "flip_keep": 5}), encoding="utf-8")
    out = tmp_path / "out"
    argv = [command, "--out", str(out), "--config", str(cfg_file), "--data", str(prepared), *_tiny_args()]
    if command == "sweep":
        argv += ["--param", "flip_keep", "--values", "3,7"]
    assert main(argv) == 0
    recorded = json.loads((out / "config.json").read_text(encoding="utf-8"))
    if command == "ablate":  # the "default" row: the full model, whatever the config file switched off
        assert (recorded["no_flip"], recorded["no_gate"], recorded["no_gru"]) == (False, False, False)
    else:  # the first swept value; the config file's other fields stay
        assert (recorded["flip_keep"], recorded["no_gru"]) == (3, True)


# ---------------------------------------------------------------------------
# ablation wiring


def _mini_model(no_flip=False, no_gate=False, no_gru=False):
    cfg = RunConfig(
        dim=6, d_state=2, conv_width=2, max_len=6, dropout=0.0, precision="float64",
        no_flip=no_flip, no_gate=no_gate, no_gru=no_gru, min_len=1,
    )
    split = split_leave_one_out(
        log_of([InteractionSequence(f"u{u}", [Interaction(f"i{k}", k) for k in range(6)]) for u in range(4)]),
        max_len=6,
    )
    params = init_model_params(cfg, split.n_items, np.random.default_rng(0))
    batch = make_batch(split.train, split.max_len)
    return cfg, params, batch


def test_no_flip_feeds_both_blocks_the_same_tensor(monkeypatch):
    rng = np.random.default_rng(1)
    lp = init_layer_params(rng, 6, d_state=2, d_conv=2, dtype=np.float64)
    seen = []
    monkeypatch.setattr("mambarec.layers.mamba_forward", lambda x, p, at=None, lengths=None: seen.append(x) or x)
    opts = LayerOptions(keep_last=2, no_flip=True)
    h = Tensor(rng.normal(size=(2, 5, 6)))
    bidirectional_mamba(h, lp, np.array([5, 3]), opts)
    assert len(seen) == 2 and seen[0] is seen[1] is h


def _grads_by_prefix(no_flag):
    cfg, params, batch = _mini_model(**no_flag)
    with Tape() as tape:
        loss = batch_loss(params, batch, layer_options(cfg))
    tape.backward(loss)
    return {name: t.grad for name, t in named_tensors(params)}


def test_no_gate_zeroes_gate_gradients():
    grads = _grads_by_prefix({"no_gate": True})
    for name, g in grads.items():
        if ".gate." in name:
            assert g is None or not np.any(g), name
        elif name == "embedding":
            assert g is not None and np.any(g)


def test_no_gru_zeroes_gru_and_mix_gradients():
    grads = _grads_by_prefix({"no_gru": True})
    for name, g in grads.items():
        if ".gru." in name or name.endswith("mix_ssm") or name.endswith("mix_gru"):
            assert g is None or not np.any(g), name
    # default run reaches those same parameters
    grads_default = _grads_by_prefix({})
    touched = [name for name, g in grads_default.items() if ".gru." in name and g is not None and np.any(g)]
    assert touched
