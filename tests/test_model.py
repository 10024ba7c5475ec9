"""Embedding, scoring, loss, and checkpoint round trips."""

import math
import re

import numpy as np
import pytest
from helpers import check_grads
from reference_data import Interaction, InteractionSequence, log_of

import mambarec.autodiff as ad
from mambarec.autodiff import Tensor
from mambarec.config import RunConfig
from mambarec.data import Batch, make_batch, split_leave_one_out
from mambarec.errors import ConfigError, ContractError
from mambarec.layers import encoder_stack
from mambarec.metrics import rank_targets_batch
from mambarec.model import (
    batch_loss,
    embed,
    encode,
    init_model_params,
    layer_options,
    load_checkpoint,
    named_tensors,
    save_checkpoint,
    score,
)


def _cfg(**kw):
    base = dict(
        dim=8,
        n_layers=1,
        max_len=6,
        flip_keep=2,
        d_state=4,
        conv_width=3,
        dropout=0.0,
        precision="float64",
        batch_size=4,
    )
    base.update(kw)
    return RunConfig(**base)


def _batch(ids, targets, max_len=6):
    ids = np.asarray(ids)
    lengths = (ids != 0).sum(axis=1)
    return Batch(ids, lengths, np.asarray(targets), np.arange(1, ids.shape[0] + 1))


@pytest.mark.parametrize("tie_output", [True, False])
def test_item_tables_hold_only_items_and_padding_embeds_as_zero(tie_output):
    cfg = _cfg(tie_output=tie_output)
    params = init_model_params(cfg, n_items=5, rng=np.random.default_rng(0))
    assert params.n_items == 5
    tables = [t for name, t in named_tensors(params) if name.endswith("embedding")]
    assert [t.shape for t in tables] == [(5, cfg.dim)] * (1 if tie_output else 2)
    # the table draws a row 0 and drops it, so a seed's later draws stay where they were
    np.testing.assert_array_equal(tables[0].data, np.random.default_rng(0).normal(0.0, 0.02, size=(6, cfg.dim))[1:])
    out = embed(params, np.array([[0, 0, 1, 0, 5, 0]]))
    np.testing.assert_array_equal(out.data[0, [0, 1, 3, 5]], np.zeros((4, cfg.dim)))
    assert not np.signbit(out.data[0, [0, 1, 3, 5]]).any()  # +0.0, not a masked -0.0
    np.testing.assert_array_equal(out.data[0, [2, 4]], params.embedding.data[[0, 4]])


def test_embedding_one_hot_rows():
    params = init_model_params(_cfg(), n_items=5, rng=np.random.default_rng(1))
    out = embed(params, np.array([[3]]))
    np.testing.assert_array_equal(out.data[0, 0], params.embedding.data[2])


def test_score_zero_representation_gives_zero_logits():
    cfg = _cfg()
    params = init_model_params(cfg, n_items=4, rng=np.random.default_rng(2))
    # zero every layer parameter that feeds the output path; easiest honest
    # construction: zero embedding of the padding-only... instead score a
    # batch through a model whose norm gain is zero, collapsing the encoder
    for lp in params.layers:
        lp.norm_gain.data[:] = 0.0
        lp.norm_bias.data[:] = 0.0
    batch = _batch([[0, 0, 0, 0, 1, 2]], [1])
    logits = score(params, batch, layer_options(cfg))
    np.testing.assert_allclose(logits.data, np.zeros((1, 4)), atol=1e-12)


def test_score_matches_bruteforce_dot_products():
    cfg = _cfg()
    params = init_model_params(cfg, n_items=6, rng=np.random.default_rng(3))
    batch = _batch([[0, 0, 1, 2, 3, 4], [0, 0, 0, 5, 6, 1]], [2, 3])
    opts = layer_options(cfg)
    rep = encode(params, batch, opts).data
    logits = score(params, batch, opts).data
    for b in range(2):
        for k in range(6):
            expected = float(rep[b] @ params.embedding.data[k])
            assert logits[b, k] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_score_self_match_under_orthonormal_embeddings():
    cfg = _cfg(n_layers=1)
    params = init_model_params(cfg, n_items=8, rng=np.random.default_rng(4))
    params.embedding.data[:] = np.eye(8)
    rep = Tensor(params.embedding.data[3:4].copy())
    logits = ad.matmul(rep, ad.transpose(params.embedding))
    assert int(np.argmax(logits.data[0])) == 3  # item id 4 lives in column 3


def test_loss_uniform_logits_is_log_catalog():
    cfg = _cfg()
    params = init_model_params(cfg, n_items=100, rng=np.random.default_rng(5))
    params.embedding.data[:] = 0.0  # zero embeddings -> zero logits everywhere
    batch = _batch([[0, 0, 0, 0, 1, 2]], [7])
    loss = batch_loss(params, batch, layer_options(cfg))
    assert float(loss.data) == pytest.approx(math.log(100.0), rel=1e-9)


def test_loss_is_mean_over_batch():
    cfg = _cfg()
    params = init_model_params(cfg, n_items=5, rng=np.random.default_rng(6))
    opts = layer_options(cfg)
    rows = [[0, 0, 0, 1, 2, 3], [0, 0, 0, 3, 2, 1]]
    single = [float(batch_loss(params, _batch([r], [t]), opts).data) for r, t in zip(rows, [1, 4])]
    both = float(batch_loss(params, _batch(rows, [1, 4]), opts).data)
    assert both == pytest.approx(sum(single) / 2.0, rel=1e-12)


def test_loss_three_item_hand_oracle():
    cfg = _cfg()
    params = init_model_params(cfg, n_items=3, rng=np.random.default_rng(7))
    batch = _batch([[0, 0, 0, 0, 1, 2]], [3])
    opts = layer_options(cfg)
    logits = score(params, batch, opts).data[0]
    expected = -(logits[2] - math.log(sum(math.exp(v) for v in logits)))
    loss = batch_loss(params, batch, opts)
    assert float(loss.data) == pytest.approx(expected, rel=1e-10)


def test_loss_rejects_padding_target():
    cfg = _cfg()
    params = init_model_params(cfg, n_items=3, rng=np.random.default_rng(8))
    with pytest.raises(ContractError):
        batch_loss(params, _batch([[0, 0, 0, 0, 1, 2]], [0]), layer_options(cfg))


def test_rank_shift_invariance_through_model():
    cfg = _cfg()
    params = init_model_params(cfg, n_items=6, rng=np.random.default_rng(9))
    batch = _batch([[0, 0, 1, 2, 3, 4]], [2])
    logits = score(params, batch, layer_options(cfg)).data
    base = rank_targets_batch(logits, batch.targets - 1)
    shifted = rank_targets_batch(logits + 3.7, batch.targets - 1)
    assert base.tolist() == shifted.tolist()


def test_tied_weights_share_storage():
    cfg = _cfg(tie_output=True)
    params = init_model_params(cfg, n_items=4, rng=np.random.default_rng(10))
    assert params.out_embedding is None
    batch = _batch([[0, 0, 0, 0, 1, 2]], [1])
    opts = layer_options(cfg)
    before = score(params, batch, opts).data.copy()
    params.embedding.data[2, 0] += 1.0  # one storage: scorer must move too
    after = score(params, batch, opts).data
    assert abs(after[0, 2] - before[0, 2]) > 1e-9


def test_untied_output_table():
    cfg = _cfg(tie_output=False)
    params = init_model_params(cfg, n_items=4, rng=np.random.default_rng(11))
    assert params.out_embedding is not None
    batch = _batch([[0, 0, 0, 0, 1, 2]], [1])
    opts = layer_options(cfg)
    before = score(params, batch, opts).data.copy()
    params.embedding.data[2, 0] += 1.0  # input table only; scorer unaffected
    after = score(params, batch, opts).data
    assert after[0, 2] == pytest.approx(before[0, 2], rel=1e-12)


def test_appending_item_advances_target_position():
    seq = [Interaction(f"i{k}", k) for k in range(5)]
    short = InteractionSequence("u", seq[:4])
    longer = InteractionSequence("u", seq)
    s1 = split_leave_one_out(log_of([short]), max_len=6)
    s2 = split_leave_one_out(log_of([longer]), max_len=6)
    b1 = make_batch(s1.test, 6)
    b2 = make_batch(s2.test, 6)
    assert b2.lengths[0] == b1.lengths[0] + 1
    assert b1.items[0, -1] != 0 and b2.items[0, -1] != 0


def test_model_gradients_reach_every_parameter():
    cfg = _cfg(dim=6, d_state=3, max_len=5, conv_width=2)
    params = init_model_params(cfg, n_items=5, rng=np.random.default_rng(12))
    batch = _batch([[0, 0, 1, 2, 3], [0, 0, 0, 4, 5]], [4, 1], max_len=5)
    opts = layer_options(cfg)
    named = list(named_tensors(params))
    check_grads(lambda: batch_loss(params, batch, opts), named, tol=1e-4, max_entries=6)


def _full_encoder_loss(params, batch, opts, rng):
    """Logits and loss read from the last column of the full encoder output."""
    h = encoder_stack(embed(params, batch.items), params.layers, batch.lengths, opts, rng=rng)
    logits = ad.matmul(ad.index(h, np.s_[:, -1]), ad.transpose(params.embedding))
    return logits, ad.softmax_cross_entropy(logits, batch.targets - 1)


@pytest.mark.parametrize(
    "overrides",
    [
        {}, {"n_layers": 2}, {"flip_keep": 0}, {"n_layers": 2, "flip_keep": 0}, {"flip_keep": 1},
        {"n_layers": 2, "flip_keep": 1}, {"no_flip": True}, {"no_gate": True}, {"no_gru": True},
        {"max_len": 3, "flip_keep": 0},
    ],
    ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()) or "default",
)
def test_read_column_encoder_matches_the_full_encoder(overrides):
    """score and batch_loss compute only the last column; the full encoder's last column agrees."""
    cfg = _cfg(**{"max_len": 9, "flip_keep": 5, "conv_width": 4, "dropout": 0.3, **overrides})
    params = init_model_params(cfg, n_items=20, rng=np.random.default_rng(11))
    rng = np.random.default_rng(12)
    for _, t in named_tensors(params):  # off the initial scale, so every branch shows in the logits
        t.data += rng.normal(0.0, 0.2, size=t.shape)
    width = cfg.max_len
    lengths = np.minimum([width, width - 1, 0, 1, 2, 6], width)
    items = rng.integers(1, 21, size=(lengths.size, width))
    items[np.arange(width) < (width - lengths)[:, None]] = 0
    batch = Batch(items, lengths, rng.integers(1, 21, size=lengths.size), np.arange(lengths.size))
    opts = layer_options(cfg)

    logits = score(params, batch, opts).data
    expected, _ = _full_encoder_loss(params, batch, opts, None)
    np.testing.assert_allclose(logits, expected.data, rtol=0, atol=1e-12 * np.abs(expected.data).max())

    grads = []
    for loss_fn in (batch_loss, lambda *a: _full_encoder_loss(*a)[1]):
        for _, t in named_tensors(params):
            t.grad = None
        with ad.Tape() as tape:
            loss = loss_fn(params, batch, opts, np.random.default_rng(13))  # dropout on
        tape.backward(loss)
        grads.append((loss.data, {name: t.grad for name, t in named_tensors(params)}))
    (loss_read, g_read), (loss_full, g_full) = grads
    assert loss_read == loss_full
    for name, g in g_full.items():
        if g is None:
            assert g_read[name] is None or not g_read[name].any(), name
            continue
        np.testing.assert_allclose(g_read[name], g, rtol=0, atol=1e-12 * np.abs(g).max(), err_msg=name)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = _cfg(precision="float32")
    params = init_model_params(cfg, n_items=7, rng=np.random.default_rng(13))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, cfg.to_dict())
    loaded, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg == cfg
    for (name_a, a), (name_b, b) in zip(named_tensors(params), named_tensors(loaded)):
        assert name_a == name_b
        assert a.data.dtype == b.data.dtype
        assert np.array_equal(a.data, b.data), name_a


def test_checkpoint_roundtrip_untied(tmp_path):
    cfg = _cfg(tie_output=False)
    params = init_model_params(cfg, n_items=4, rng=np.random.default_rng(14))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, cfg.to_dict())
    loaded, _ = load_checkpoint(path)
    assert loaded.out_embedding is not None
    assert np.array_equal(loaded.out_embedding.data, params.out_embedding.data)


def test_checkpoint_with_more_layers_than_its_config_is_rejected(tmp_path):
    params = init_model_params(_cfg(n_layers=2), n_items=4, rng=np.random.default_rng(15))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, _cfg(n_layers=1).to_dict())
    with pytest.raises(ConfigError, match=r"unexpected parameters \['layers\.1\."):
        load_checkpoint(path)


@pytest.mark.parametrize("dtype", ["int64", "float64"])
def test_checkpoint_whose_parameter_has_another_dtype_is_rejected(tmp_path, dtype):
    cfg = _cfg(precision="float32")
    params = init_model_params(cfg, n_items=4, rng=np.random.default_rng(18))
    name, t = list(named_tensors(params))[-1]
    t.data = t.data.astype(dtype)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, cfg.to_dict())
    message = f"{path}: {name} is {dtype} {t.data.shape}, but its config builds float32 {t.data.shape}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_checkpoint(path)


@pytest.mark.parametrize("stored_tied", [False, True], ids=["untied-file", "tied-file"])
def test_checkpoint_whose_output_table_disagrees_with_tie_output_is_rejected(tmp_path, stored_tied):
    params = init_model_params(_cfg(tie_output=stored_tied), n_items=4, rng=np.random.default_rng(16))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, _cfg(tie_output=not stored_tied).to_dict())
    side = "missing" if stored_tied else "unexpected"
    with pytest.raises(ConfigError, match=rf"{side} parameters \['out_embedding'\]"):
        load_checkpoint(path)


def test_checkpoint_with_legacy_layout_keys_still_loads(tmp_path):
    cfg = _cfg(n_layers=2, tie_output=False)
    params = init_model_params(cfg, n_items=5, rng=np.random.default_rng(17))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, cfg.to_dict())
    with np.load(path) as blob:
        arrays = {k: blob[k] for k in blob.files}
    arrays["__n_layers__"] = np.array(2)
    arrays["__untied__"] = np.array(1)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    loaded, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg == cfg
    for (name_a, a), (name_b, b) in zip(named_tensors(params), named_tensors(loaded), strict=True):
        assert name_a == name_b
        assert np.array_equal(a.data, b.data), name_a
