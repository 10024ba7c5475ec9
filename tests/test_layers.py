"""Encoder layer pieces: flip algebra, gate, GRU recurrence, composition."""

import numpy as np
import pytest
from helpers import check_grads, rand_tensor

import mambarec.autodiff as ad
from mambarec.autodiff import Tensor
from mambarec.errors import ConfigError
from mambarec.layers import (
    ConvGruParams,
    GateParams,
    LayerOptions,
    bidirectional_mamba,
    conv_gru,
    dense_conv_gate,
    dropout,
    encoder_layer,
    encoder_stack,
    flip_index,
    init_layer_params,
    partial_flip,
)
from mambarec.mamba import mamba_forward
from mambarec.model import named_tensors


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def flip_sequence(items: list, true_len: int, keep_last: int) -> list:
    """Apply the partial flip to a plain python row."""
    return [items[i] for i in flip_index(true_len, keep_last, len(items))]


# ---------------------------------------------------------------------------
# partial flip


def test_flip_keeps_suffix():
    assert flip_sequence(list("abcde"), 5, 2) == list("cbade")


def test_flip_keep_beyond_length_is_identity():
    assert flip_sequence(list("abc"), 3, 3) == list("abc")
    assert flip_sequence(list("abc"), 3, 7) == list("abc")


def test_flip_keep_zero_reverses_everything():
    assert flip_sequence(list("abcd"), 4, 0) == list("dcba")


def test_flip_keep_one_fixes_only_final_item():
    row = [10, 20, 30, 40, 50]
    assert flip_sequence(row, 5, 1) == [40, 30, 20, 10, 50]


def test_flip_ignores_left_padding():
    # width 6, true_len 4, keep 1: columns 2..4 reverse, column 5 and padding stay
    np.testing.assert_array_equal(flip_index(4, 1, 6), [0, 1, 4, 3, 2, 5])


def test_flip_properties_random():
    rng = np.random.default_rng(42)
    for _ in range(300):
        width = int(rng.integers(1, 40))
        true_len = int(rng.integers(0, width + 1))
        keep = int(rng.integers(0, 40))
        idx = flip_index(true_len, keep, width)
        # involution
        np.testing.assert_array_equal(idx[idx], np.arange(width))
        # permutation (multiset preserved)
        assert sorted(idx.tolist()) == list(range(width))
        # padding and kept suffix are fixed points
        pad = width - true_len
        np.testing.assert_array_equal(idx[:pad], np.arange(pad))
        kept = min(keep, true_len)
        if kept:
            np.testing.assert_array_equal(idx[width - kept :], np.arange(width - kept, width))


def test_partial_flip_tensor_roundtrip():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 7, 2)))
    lens = np.array([7, 4, 1])
    flipped = partial_flip(x, lens, 2)
    back = partial_flip(flipped, lens, 2)
    np.testing.assert_array_equal(back.data, x.data)


# ---------------------------------------------------------------------------
# gate


def _zero_gate(dim, k=3):
    return GateParams(
        *(Tensor(np.zeros(s)) for s in [(dim, dim), (dim,), (k, dim), (dim,), (dim, dim), (dim,)])
    )


def test_gate_all_zero_params_is_half():
    h = Tensor(np.random.default_rng(1).normal(size=(2, 4, 3)))
    out = dense_conv_gate(h, _zero_gate(3))
    np.testing.assert_allclose(out.data, 0.5, atol=1e-12)


def test_gate_asymptotics():
    dim = 2
    p = _zero_gate(dim)
    p.post_b = Tensor(np.full(dim, 40.0))
    h = Tensor(np.zeros((1, 3, dim)))
    np.testing.assert_allclose(dense_conv_gate(h, p).data, 41.0, atol=1e-6)  # f -> f + 1
    p.post_b = Tensor(np.full(dim, -40.0))
    np.testing.assert_allclose(dense_conv_gate(h, p).data, 0.0, atol=1e-6)  # f -> 0


def test_gate_matches_hand_composition():
    rng = np.random.default_rng(2)
    dim, k = 5, 4
    p = GateParams(
        pre_w=Tensor(rng.normal(size=(dim, dim))),
        pre_b=Tensor(rng.normal(size=dim)),
        conv_kernel=Tensor(rng.normal(size=(k, dim))),
        conv_bias=Tensor(rng.normal(size=dim)),
        post_w=Tensor(rng.normal(size=(dim, dim))),
        post_b=Tensor(rng.normal(size=dim)),
    )
    h = rng.normal(size=(2, 6, dim))
    pre = h @ p.pre_w.data + p.pre_b.data
    padded = np.pad(pre, ((0, 0), (k - 1, 0), (0, 0)))
    conv = sum(padded[:, j : j + 6, :] * p.conv_kernel.data[j] for j in range(k)) + p.conv_bias.data
    feats = conv @ p.post_w.data + p.post_b.data
    expected = feats * _sigmoid(feats) + _sigmoid(feats)
    np.testing.assert_allclose(dense_conv_gate(Tensor(h), p).data, expected, atol=1e-12)


def test_gate_lower_bound_and_monotone_tail():
    # silu(f) + sigmoid(f) = (f + 1) * sigmoid(f): bounded below by -0.28,
    # monotone for f >= -2 (it is not globally monotone; min sits near f = -2.13)
    f = np.linspace(-60.0, 60.0, 200001)
    vals = (f + 1.0) * _sigmoid(f)
    assert vals.min() > -0.28
    tail = vals[f >= -2.0]
    assert (np.diff(tail) > 0).all()


# ---------------------------------------------------------------------------
# conv-GRU


def test_gru_zero_params_is_zero_fixpoint():
    dim = 3
    p = ConvGruParams(
        *(Tensor(np.zeros(s)) for s in [(2, dim), (dim,)] + [(2 * dim, dim), (dim,)] * 3)
    )
    h = Tensor(np.random.default_rng(3).normal(size=(2, 5, dim)))
    np.testing.assert_array_equal(conv_gru(h, p).data, np.zeros((2, 5, dim)))


def test_gru_single_step_hand_case():
    rng = np.random.default_rng(4)
    dim = 4
    kernel = np.zeros((3, dim))
    kernel[-1] = 1.0  # conv reduces to identity on the current position
    p = ConvGruParams(
        conv_kernel=Tensor(kernel),
        conv_bias=Tensor(np.zeros(dim)),
        update_w=Tensor(rng.normal(size=(2 * dim, dim))),
        update_b=Tensor(rng.normal(size=dim)),
        reset_w=Tensor(rng.normal(size=(2 * dim, dim))),
        reset_b=Tensor(rng.normal(size=dim)),
        cand_w=Tensor(rng.normal(size=(2 * dim, dim))),
        cand_b=Tensor(rng.normal(size=dim)),
    )
    h1 = rng.normal(size=dim)
    out = conv_gru(Tensor(h1.reshape(1, 1, dim)), p)
    joint = np.concatenate([np.zeros(dim), h1])
    z1 = _sigmoid(joint @ p.update_w.data + p.update_b.data)
    cand = np.tanh(np.concatenate([np.zeros(dim), h1]) @ p.cand_w.data + p.cand_b.data)
    np.testing.assert_allclose(out.data[0, 0], (1.0 - z1) * cand, atol=1e-12)


def test_gru_matches_stepwise_oracle():
    rng = np.random.default_rng(5)
    dim, k, length = 3, 4, 9
    p = ConvGruParams(
        conv_kernel=Tensor(rng.normal(size=(k, dim))),
        conv_bias=Tensor(rng.normal(size=dim)),
        update_w=Tensor(rng.normal(size=(2 * dim, dim))),
        update_b=Tensor(rng.normal(size=dim)),
        reset_w=Tensor(rng.normal(size=(2 * dim, dim))),
        reset_b=Tensor(rng.normal(size=dim)),
        cand_w=Tensor(rng.normal(size=(2 * dim, dim))),
        cand_b=Tensor(rng.normal(size=dim)),
    )
    h = rng.normal(size=(2, length, dim))
    padded = np.pad(h, ((0, 0), (k - 1, 0), (0, 0)))
    conv = sum(padded[:, j : j + length, :] * p.conv_kernel.data[j] for j in range(k)) + p.conv_bias.data
    state = np.zeros((2, dim))
    expected = np.zeros_like(h)
    for t in range(length):
        joint = np.concatenate([state, conv[:, t]], axis=-1)
        z = _sigmoid(joint @ p.update_w.data + p.update_b.data)
        r = _sigmoid(joint @ p.reset_w.data + p.reset_b.data)
        cand = np.tanh(np.concatenate([r * state, conv[:, t]], axis=-1) @ p.cand_w.data + p.cand_b.data)
        state = z * state + (1.0 - z) * cand
        expected[:, t] = state
    np.testing.assert_allclose(conv_gru(Tensor(h), p).data, expected, atol=1e-12)


def test_gru_state_is_bounded_by_one():
    rng = np.random.default_rng(6)
    dim = 4
    p = ConvGruParams(
        conv_kernel=Tensor(rng.normal(size=(4, dim)) * 3),
        conv_bias=Tensor(rng.normal(size=dim)),
        update_w=Tensor(rng.normal(size=(2 * dim, dim)) * 3),
        update_b=Tensor(rng.normal(size=dim)),
        reset_w=Tensor(rng.normal(size=(2 * dim, dim)) * 3),
        reset_b=Tensor(rng.normal(size=dim)),
        cand_w=Tensor(rng.normal(size=(2 * dim, dim)) * 3),
        cand_b=Tensor(rng.normal(size=dim)),
    )
    h = Tensor(rng.normal(size=(3, 40, dim)) * 5)
    out = conv_gru(h, p)
    assert np.abs(out.data).max() <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# bidirectional combine and full layer


def _layer(rng, dim=6, d_state=3):
    return init_layer_params(rng, dim, d_state=d_state, d_conv=3, expand=2, dtype=np.float64)


def test_bidirectional_matches_hand_composition():
    rng = np.random.default_rng(7)
    dim = 8
    lp = _layer(rng, dim, 4)
    h = Tensor(rng.normal(size=(2, 6, dim)))
    lens = np.array([6, 4])
    keep = 2
    got = bidirectional_mamba(h, lp, lens, LayerOptions(keep_last=keep))
    h_rev = partial_flip(h, lens, keep)
    expected = (
        dense_conv_gate(h, lp.gate).data * mamba_forward(h, lp.mamba_fwd).data
        + dense_conv_gate(h_rev, lp.gate).data
        * partial_flip(mamba_forward(h_rev, lp.mamba_rev), lens, keep).data
    )
    np.testing.assert_allclose(got.data, expected, atol=1e-12)


def test_bidirectional_flip_identity_endpoint():
    rng = np.random.default_rng(8)
    lp = _layer(rng)
    h = Tensor(rng.normal(size=(2, 5, 6)))
    lens = np.array([5, 3])
    keep_all = LayerOptions(keep_last=99)
    got = bidirectional_mamba(h, lp, lens, keep_all)
    gate = dense_conv_gate(h, lp.gate).data
    expected = gate * mamba_forward(h, lp.mamba_fwd).data + gate * mamba_forward(h, lp.mamba_rev).data
    np.testing.assert_allclose(got.data, expected, atol=1e-12)


def test_bidirectional_positional_alignment_with_identity_stub(monkeypatch):
    # with an identity block and the gate disabled, the flip/unflip pair must
    # cancel exactly: perturbing position t moves the output at position t only
    rng = np.random.default_rng(9)
    lp = _layer(rng)
    monkeypatch.setattr("mambarec.layers.mamba_forward", lambda x, p: x)
    opts = LayerOptions(keep_last=2, no_gate=True)
    h_np = rng.normal(size=(1, 6, 6))
    lens = np.array([6])
    base = bidirectional_mamba(Tensor(h_np), lp, lens, opts).data
    np.testing.assert_allclose(base, 2.0 * h_np, atol=1e-12)  # both branches re-align to identity
    probe = 1  # inside the flipped region
    bumped = h_np.copy()
    bumped[0, probe] += 0.5
    out = bidirectional_mamba(Tensor(bumped), lp, lens, opts).data
    delta = np.abs(out - base).max(axis=-1)[0]
    assert delta[probe] > 1e-6
    untouched = [t for t in range(6) if t != probe]
    np.testing.assert_allclose(delta[untouched], 0.0, atol=1e-12)


def test_layer_reduces_to_ssm_branch_when_gru_weight_zero():
    rng = np.random.default_rng(10)
    lp = _layer(rng)
    lp.mix_ssm = Tensor(np.asarray(1.0), requires_grad=True)
    lp.mix_gru = Tensor(np.asarray(0.0), requires_grad=True)
    h = Tensor(rng.normal(size=(2, 5, 6)))
    lens = np.array([5, 5])
    opts = LayerOptions(keep_last=2)
    m = bidirectional_mamba(h, lp, lens, opts)
    mixed = ad.add(ad.matmul(m, lp.mix_w), lp.mix_b)
    ff = ad.add(ad.matmul(ad.gelu(ad.add(ad.matmul(mixed, lp.ff_in_w), lp.ff_in_b)), lp.ff_out_w), lp.ff_out_b)
    expected = ad.layernorm(ad.add(ff, h), lp.norm_gain, lp.norm_bias).data
    np.testing.assert_allclose(encoder_layer(h, lp, lens, opts).data, expected, atol=1e-12)


def test_layer_zero_ffn_reduces_to_normed_residual():
    rng = np.random.default_rng(11)
    lp = _layer(rng)
    for name in ("ff_out_w", "ff_out_b"):
        t = getattr(lp, name)
        t.data = np.zeros_like(t.data)
    h = Tensor(rng.normal(size=(2, 4, 6)))
    out = encoder_layer(h, lp, np.array([4, 4]), LayerOptions(keep_last=1))
    expected = ad.layernorm(h, lp.norm_gain, lp.norm_bias).data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_stack_composes_layers():
    rng = np.random.default_rng(12)
    layers = [_layer(rng), _layer(rng)]
    h = Tensor(rng.normal(size=(1, 4, 6)))
    lens = np.array([4])
    opts = LayerOptions(keep_last=1)
    one = encoder_layer(encoder_layer(h, layers[0], lens, opts), layers[1], lens, opts)
    two = encoder_stack(h, layers, lens, opts)
    np.testing.assert_allclose(two.data, one.data, atol=1e-14)
    single = encoder_stack(h, layers[:1], lens, opts)
    np.testing.assert_allclose(single.data, encoder_layer(h, layers[0], lens, opts).data, atol=1e-14)


def test_stack_needs_layers():
    with pytest.raises(ConfigError):
        encoder_stack(Tensor(np.zeros((1, 2, 3))), [], np.array([2]), LayerOptions())


def test_stack_runtime_grows_about_linearly_in_layer_count():
    import gc
    import time

    rng = np.random.default_rng(15)
    layers = [init_layer_params(rng, 32, d_state=8, d_conv=4, dtype=np.float32) for _ in range(2)]
    x = Tensor(rng.normal(size=(4, 128, 32)).astype(np.float32))
    lens = np.full(4, 128)
    opts = LayerOptions(keep_last=5)

    def med(stack):
        encoder_stack(x, stack, lens, opts)  # warmup
        times = []
        gc.disable()
        try:
            for _ in range(5):
                t0 = time.perf_counter()
                encoder_stack(x, stack, lens, opts)
                times.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        return float(np.median(times))

    ratio = med(layers) / med(layers[:1])
    assert 1.3 < ratio < 3.5, f"2-layer/1-layer time ratio {ratio:.2f} not roughly linear"


def test_dropout_scales_and_masks():
    rng = np.random.default_rng(13)
    x = Tensor(np.ones((200, 10)))
    out = dropout(x, 0.4, rng)
    kept = out.data[out.data != 0]
    np.testing.assert_allclose(kept, 1.0 / 0.6)
    assert 0.45 < (out.data != 0).mean() < 0.75
    same = dropout(x, 0.0, np.random.default_rng(0))
    assert same is x


def test_encoder_dropout_runs_exactly_when_given_an_rng():
    rng = np.random.default_rng(16)
    lp = _layer(rng)
    h = Tensor(rng.normal(size=(2, 5, 6)))
    lens = np.array([5, 3])
    drop = LayerOptions(keep_last=2, dropout=0.3)
    no_rng = encoder_layer(h, lp, lens, drop).data
    assert np.array_equal(no_rng, encoder_layer(h, lp, lens, LayerOptions(keep_last=2, dropout=0.0)).data)
    first = encoder_layer(h, lp, lens, drop, rng=np.random.default_rng(5)).data
    again = encoder_layer(h, lp, lens, drop, rng=np.random.default_rng(5)).data
    assert np.array_equal(first, again)
    assert not np.array_equal(first, no_rng)


def test_full_layer_gradients():
    rng = np.random.default_rng(14)
    lp = _layer(rng, dim=4, d_state=2)
    h = rand_tensor(rng, 2, 4, 4, scale=0.5)
    lens = np.array([4, 3])
    opts = LayerOptions(keep_last=1)
    named = [("h", h)] + list(named_tensors(lp, "layer"))
    check_grads(
        lambda: ad.mul(encoder_layer(h, lp, lens, opts), encoder_layer(h, lp, lens, opts)).mean(),
        named,
        tol=1e-4,
        max_entries=10,
    )
