"""Command surface: prepare/train/eval/ablate/bench/sweep plus ablation wiring."""

import json

import numpy as np
import pytest

from mambarec.autodiff import Tape, Tensor
from mambarec.cli import main
from mambarec.config import RunConfig
from mambarec.data import Interaction, InteractionSequence, make_batch, split_leave_one_out
from mambarec.layers import LayerOptions, bidirectional_mamba, init_layer_params
from mambarec.model import batch_loss, init_model_params, layer_options, named_tensors, save_checkpoint


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
        "--dim", "8", "--d-state", "2", "--conv-width", "2", "--max-len", "7",
        "--epochs", "1", "--batch-size", "8", "--dropout", "0.0", "--min-len", "1",
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


def test_bench_runs_and_reports_ratios(tmp_path, capsys):
    rc = main(["bench", "--out", str(tmp_path / "b"), "--lengths", "8,16", "--batch", "2",
               "--dim", "8", "--d-state", "2", "--reps", "1", "--warmup", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "encoder: time(16) / time(8)" in out
    assert (tmp_path / "b" / "bench.csv").exists()


def test_bench_empty_lengths_is_usage_error(tmp_path):
    rc = main(["bench", "--out", str(tmp_path / "b"), "--lengths", ""])
    assert rc == 2


def test_missing_data_is_config_error(tmp_path):
    rc = main(["train", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_bad_split_file_is_data_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    rc = main(["train", "--out", str(tmp_path / "x"), "--data", str(bad)])
    assert rc == 3


# ---------------------------------------------------------------------------
# ablation wiring


def _mini_model(no_flip=False, no_gate=False, no_gru=False):
    cfg = RunConfig(
        dim=6, d_state=2, conv_width=2, max_len=6, dropout=0.0, precision="float64",
        no_flip=no_flip, no_gate=no_gate, no_gru=no_gru, min_len=1,
    )
    split = split_leave_one_out(
        [InteractionSequence(f"u{u}", [Interaction(f"i{k}", k) for k in range(6)]) for u in range(4)],
        max_len=6,
    )
    params = init_model_params(cfg, split.n_items, np.random.default_rng(0))
    batch = make_batch(split.train, split.max_len)
    return cfg, params, batch


def test_no_flip_feeds_both_blocks_the_same_tensor(monkeypatch):
    rng = np.random.default_rng(1)
    lp = init_layer_params(rng, 6, d_state=2, d_conv=2, dtype=np.float64)
    seen = []
    monkeypatch.setattr("mambarec.layers.mamba_forward", lambda x, p: seen.append(x) or x)
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
