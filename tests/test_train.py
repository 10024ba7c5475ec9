"""Optimizer hand traces, determinism, early stopping, seed isolation."""

import numpy as np
import pytest
from reference_data import Interaction, InteractionSequence, log_of

from mambarec.autodiff import Tape, Tensor
from mambarec.config import RunConfig
from mambarec.data import make_batch, split_leave_one_out
from mambarec.errors import NumericError
from mambarec.metrics import OVERALL, EvalReport
from mambarec.model import batch_loss, embed, init_model_params, layer_options, named_tensors
from mambarec.train import Adam, evaluate_split, seeded_rngs, train_model


def _cyclic_split(n_users=24, catalog=12, length=8, max_len=8, seed=0):
    rng = np.random.default_rng(seed)
    seqs = []
    for u in range(n_users):
        start = int(rng.integers(0, catalog))
        items = [f"i{(start + t) % catalog}" for t in range(length)]
        seqs.append(InteractionSequence(f"u{u}", [Interaction(x, t) for t, x in enumerate(items)]))
    return split_leave_one_out(log_of(seqs), max_len=max_len)


def _cfg(**kw):
    base = dict(
        dim=8,
        n_layers=1,
        max_len=8,
        flip_keep=2,
        d_state=4,
        conv_width=3,
        dropout=0.0,
        precision="float64",
        batch_size=8,
        epochs=1,
        lr=0.001,
        seed=0,
        eval_every=1,
        patience=10,
    )
    base.update(kw)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_hand_value():
    theta = Tensor(np.zeros(3), requires_grad=True)
    theta.grad = np.ones(3)
    opt = Adam([("theta", theta)], lr=0.001)
    opt.step()
    # m_hat = 1, v_hat = 1 -> step = -lr / (1 + eps)
    np.testing.assert_allclose(theta.data, -0.001 / (1.0 + 1e-8), rtol=1e-12)


def test_adam_zero_gradient_leaves_params():
    theta = Tensor(np.arange(4.0), requires_grad=True)
    theta.grad = np.zeros(4)
    opt = Adam([("theta", theta)], lr=0.5)
    opt.step()
    np.testing.assert_array_equal(theta.data, np.arange(4.0))


def test_adam_two_steps_match_hand_trace():
    g = 0.37
    theta = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([("theta", theta)], lr=0.01)
    # independent hand-rolled trace
    m = v = 0.0
    ref = 1.0
    for t in range(1, 3):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9**t)
        v_hat = v / (1 - 0.999**t)
        ref -= 0.01 * m_hat / (v_hat**0.5 + 1e-8)
        theta.grad = np.array([g])
        opt.step()
    assert float(theta.data[0]) == pytest.approx(ref, abs=1e-12)


def test_adam_rejects_non_finite_gradient():
    theta = Tensor(np.zeros(2), requires_grad=True)
    theta.grad = np.array([1.0, np.nan])
    opt = Adam([("theta", theta)], lr=0.1)
    with pytest.raises(NumericError, match="theta"):
        opt.step()


def test_adam_missing_grad_is_treated_as_zero():
    theta = Tensor(np.ones(2), requires_grad=True)
    opt = Adam([("theta", theta)])
    opt.step()
    np.testing.assert_array_equal(theta.data, np.ones(2))


def test_adam_grad_clip_scales_global_norm():
    a = Tensor(np.zeros(1), requires_grad=True)
    b = Tensor(np.zeros(1), requires_grad=True)
    a.grad = np.array([3.0])
    b.grad = np.array([4.0])
    opt = Adam([("a", a), ("b", b)], lr=1.0, grad_clip=1.0)
    opt.step()
    np.testing.assert_allclose(np.array([a.grad[0], b.grad[0]]), [0.6, 0.8])


# ---------------------------------------------------------------------------
# training loop


def test_zero_epochs_returns_initial_params():
    split = _cyclic_split()
    cfg = _cfg(epochs=0)
    fresh = init_model_params(cfg, split.n_items, seeded_rngs(cfg.seed)["init"])
    result = train_model(cfg, split)
    for (_, a), (_, b) in zip(named_tensors(fresh), named_tensors(result.params)):
        assert np.array_equal(a.data, b.data)
    assert result.history == [] and result.epochs_run == 0


def test_two_runs_bitwise_identical():
    split = _cyclic_split()
    cfg = _cfg(epochs=2, dropout=0.2)
    r1 = train_model(cfg, split)
    r2 = train_model(cfg, split)
    assert [row["train_loss"] for row in r1.history] == [row["train_loss"] for row in r2.history]
    for (_, a), (_, b) in zip(named_tensors(r1.params), named_tensors(r2.params)):
        assert np.array_equal(a.data, b.data)
    e1 = evaluate_split(r1.params, cfg, split, "test")
    e2 = evaluate_split(r2.params, cfg, split, "test")
    assert e1.values == e2.values


def test_loss_decreases_on_fixed_batch():
    split = _cyclic_split()
    cfg = _cfg()
    params = init_model_params(cfg, split.n_items, seeded_rngs(cfg.seed)["init"])
    batch = make_batch(split.train[:8], split.max_len)
    opts = layer_options(cfg)
    opt = Adam(list(named_tensors(params)), lr=1e-3)
    losses = []
    for _ in range(6):
        with Tape() as tape:
            loss = batch_loss(params, batch, opts)
        losses.append(float(loss.data))
        opt.zero_grad()
        tape.backward(loss)
        opt.step()
    increases = sum(1 for a, b in zip(losses, losses[1:]) if b >= a)
    assert increases <= 1, losses


def test_seed_isolation_dropout_does_not_change_init():
    split = _cyclic_split()
    a = init_model_params(_cfg(dropout=0.0), split.n_items, seeded_rngs(3)["init"])
    b = init_model_params(_cfg(dropout=0.5), split.n_items, seeded_rngs(3)["init"])
    for (_, ta), (_, tb) in zip(named_tensors(a), named_tensors(b)):
        assert np.array_equal(ta.data, tb.data)


@pytest.mark.parametrize("tie_output", [True, False])
def test_trained_tables_hold_only_items_and_padding_embeds_as_zero(tie_output):
    split = _cyclic_split()
    cfg = _cfg(epochs=2, tie_output=tie_output)
    result = train_model(cfg, split)
    tables = [t for name, t in named_tensors(result.params) if name.endswith("embedding")]
    assert [t.shape for t in tables] == [(split.n_items, cfg.dim)] * (1 if tie_output else 2)
    out = embed(result.params, np.zeros((2, split.max_len), dtype=np.int64))
    np.testing.assert_array_equal(out.data, np.zeros((2, split.max_len, cfg.dim)))


def test_early_stopping_keeps_best_checkpoint():
    split = _cyclic_split()
    cfg = _cfg(epochs=6, patience=0, lr=0.5)  # huge lr forces quick divergence of quality
    result = train_model(cfg, split)
    assert result.epochs_run <= cfg.epochs
    if result.best_epoch:
        report = evaluate_split(result.params, cfg, split, "valid")
        assert report.get("NDCG") == pytest.approx(result.best_metric, abs=1e-12)


@pytest.mark.parametrize("patience, epochs_run", [(0, 2), (2, 4)])
def test_early_stopping_stops_at_the_patience_plus_first_stale_evaluation(monkeypatch, patience, epochs_run):
    # the first evaluation improves on nothing yet; every later one equals it, so is stale
    report = EvalReport(values={(metric, 10, OVERALL): 0.5 for metric in ("HR", "NDCG", "MRR")})
    monkeypatch.setattr("mambarec.train.evaluate_split", lambda *args, **kwargs: report)
    result = train_model(_cfg(epochs=10, patience=patience), _cyclic_split())
    assert (result.epochs_run, result.best_epoch) == (epochs_run, 1)


def test_evaluation_with_non_finite_scores_names_the_split_and_first_user():
    split = _cyclic_split()
    cfg = _cfg()
    params = init_model_params(cfg, split.n_items, seeded_rngs(cfg.seed)["init"])
    params.layers[0].ff_out_b.data[0] = np.nan  # past the scan, so only the scores go bad
    first = split.user_ids[split.valid[0].user - 1]
    with pytest.raises(NumericError, match=f"non-finite scores in the valid split, first for user {first}$"):
        evaluate_split(params, cfg, split, "valid")


def test_history_rows_have_metrics_on_eval_epochs():
    split = _cyclic_split()
    cfg = _cfg(epochs=2, eval_every=2)
    result = train_model(cfg, split)
    assert "valid_ndcg10" not in result.history[0]
    assert "valid_ndcg10" in result.history[1]


def test_nan_loss_aborts_with_diagnostics():
    split = _cyclic_split()
    cfg = _cfg(precision="float32")
    params = init_model_params(cfg, split.n_items, seeded_rngs(cfg.seed)["init"])
    params.layers[0].mix_gru.data = np.asarray(np.nan, dtype=np.float32)  # poisons the loss, not the scan
    with pytest.raises(NumericError, match="epoch 1"):
        train_model(cfg, split, params=params)


def test_history_csv(tmp_path):
    split = _cyclic_split()
    result = train_model(_cfg(epochs=1), split)
    path = tmp_path / "history.csv"
    result.write_history_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,valid_hr10,valid_ndcg10,valid_mrr10"
    assert len(lines) == 2
