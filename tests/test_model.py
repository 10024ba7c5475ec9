"""Embedding, scoring, loss, and checkpoint round trips."""

import math

import numpy as np
import pytest
from helpers import check_grads

import mambarec.autodiff as ad
from mambarec.autodiff import Tensor
from mambarec.config import RunConfig
from mambarec.data import Batch, Interaction, InteractionSequence, make_batch, split_leave_one_out
from mambarec.errors import ConfigError, ContractError
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


def test_embedding_padding_row_is_zero():
    cfg = _cfg()
    params = init_model_params(cfg, n_items=5, rng=np.random.default_rng(0))
    np.testing.assert_array_equal(params.embedding.data[0], np.zeros(cfg.dim))
    out = embed(params, np.zeros((2, 6), dtype=np.int64))
    np.testing.assert_array_equal(out.data, np.zeros((2, 6, cfg.dim)))


def test_embedding_one_hot_rows():
    params = init_model_params(_cfg(), n_items=5, rng=np.random.default_rng(1))
    out = embed(params, np.array([[3]]))
    np.testing.assert_array_equal(out.data[0, 0], params.embedding.data[3])


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
    rep = encode(params, batch, opts).data[:, -1, :]
    logits = score(params, batch, opts).data
    for b in range(2):
        for k in range(6):
            expected = float(rep[b] @ params.embedding.data[k + 1])
            assert logits[b, k] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_score_self_match_under_orthonormal_embeddings():
    cfg = _cfg(n_layers=1)
    params = init_model_params(cfg, n_items=8, rng=np.random.default_rng(4))
    params.embedding.data[1:] = np.eye(8)
    rep = Tensor(params.embedding.data[4:5].copy())
    table = ad.narrow(params.embedding, 0, 1, 8)
    logits = ad.matmul(rep, ad.transpose(table))
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
    params.embedding.data[3, 0] += 1.0  # one storage: scorer must move too
    after = score(params, batch, opts).data
    assert abs(after[0, 2] - before[0, 2]) > 1e-9


def test_untied_output_table():
    cfg = _cfg(tie_output=False)
    params = init_model_params(cfg, n_items=4, rng=np.random.default_rng(11))
    assert params.out_embedding is not None
    batch = _batch([[0, 0, 0, 0, 1, 2]], [1])
    opts = layer_options(cfg)
    before = score(params, batch, opts).data.copy()
    params.embedding.data[3, 0] += 1.0  # input table only; scorer unaffected
    after = score(params, batch, opts).data
    assert after[0, 2] == pytest.approx(before[0, 2], rel=1e-12)


def test_appending_item_advances_target_position():
    seq = [Interaction(f"i{k}", k) for k in range(5)]
    short = InteractionSequence("u", seq[:4])
    longer = InteractionSequence("u", seq)
    s1 = split_leave_one_out([short], max_len=6)
    s2 = split_leave_one_out([longer], max_len=6)
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


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = _cfg(precision="float32")
    params = init_model_params(cfg, n_items=7, rng=np.random.default_rng(13))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, cfg.to_dict())
    loaded, cfg_dict = load_checkpoint(path)
    assert cfg_dict == cfg.to_dict()
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
    loaded, cfg_dict = load_checkpoint(path)
    assert cfg_dict == cfg.to_dict()
    for (name_a, a), (name_b, b) in zip(named_tensors(params), named_tensors(loaded), strict=True):
        assert name_a == name_b
        assert np.array_equal(a.data, b.data), name_a
