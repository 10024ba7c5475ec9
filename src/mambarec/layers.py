"""Encoder layer: bidirectional Mamba over a partially flipped sequence, an
input-dependent gate weighing the two directions, a convolutional GRU branch
for short-range patterns, a mixing projection, a position-wise feed-forward
network, and a post-norm residual. Layers stack sequentially.

Sequences arrive left-padded, so every flip operates only on the true-length
tail region of each row; the last ``keep_last`` real items stay in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .mamba import MambaBlockParams, init_mamba_params, mamba_forward

__all__ = [
    "GateParams",
    "ConvGruParams",
    "LayerParams",
    "LayerOptions",
    "init_layer_params",
    "flip_index",
    "partial_flip",
    "dense_conv_gate",
    "conv_gru",
    "bidirectional_mamba",
    "encoder_layer",
    "encoder_stack",
    "dropout",
]


@dataclass
class GateParams:
    """Dense -> depthwise conv -> dense feature chain read out as SiLU(f) + sigmoid(f)."""

    pre_w: Tensor  # [D, D]
    pre_b: Tensor  # [D]
    conv_kernel: Tensor  # [k, D]
    conv_bias: Tensor  # [D]
    post_w: Tensor  # [D, D]
    post_b: Tensor  # [D]


@dataclass
class ConvGruParams:
    """Causal depthwise conv feeding a GRU cell over the conv features."""

    conv_kernel: Tensor  # [k, D]
    conv_bias: Tensor  # [D]
    update_w: Tensor  # [2D, D]
    update_b: Tensor  # [D]
    reset_w: Tensor  # [2D, D]
    reset_b: Tensor  # [D]
    cand_w: Tensor  # [2D, D]
    cand_b: Tensor  # [D]


@dataclass
class LayerParams:
    mamba_fwd: MambaBlockParams
    mamba_rev: MambaBlockParams  # independent parameters for the flipped branch
    gate: GateParams  # shared between the two directional applications
    gru: ConvGruParams
    mix_ssm: Tensor  # scalar weight on the bidirectional branch
    mix_gru: Tensor  # scalar weight on the GRU branch
    mix_w: Tensor  # [D, D]
    mix_b: Tensor  # [D]
    ff_in_w: Tensor  # [D, 4D]
    ff_in_b: Tensor  # [4D]
    ff_out_w: Tensor  # [4D, D]
    ff_out_b: Tensor  # [D]
    norm_gain: Tensor  # [D]
    norm_bias: Tensor  # [D]


@dataclass
class LayerOptions:
    """Runtime switches threaded through the forward pass."""

    keep_last: int = 5  # suffix length excluded from flipping
    dropout: float = 0.0
    no_flip: bool = False  # both directional blocks see the unflipped sequence
    no_gate: bool = False  # unweighted sum of the two directional outputs
    no_gru: bool = False  # drop the GRU branch; bidirectional output passes through

    def __post_init__(self):
        if self.keep_last < 0:
            raise ConfigError(f"keep_last must be >= 0, got {self.keep_last}")


def init_layer_params(
    rng: np.random.Generator,
    dim: int,
    d_state: int = 32,
    d_conv: int = 4,
    expand: int = 2,
    dtype=np.float32,
) -> LayerParams:
    def w(*shape):
        return Tensor(rng.normal(0.0, 0.02, size=shape).astype(dtype), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

    def scalar(v):
        return Tensor(np.asarray(v, dtype=dtype), requires_grad=True)

    return LayerParams(
        mamba_fwd=init_mamba_params(rng, dim, d_state, d_conv, expand, dtype),
        mamba_rev=init_mamba_params(rng, dim, d_state, d_conv, expand, dtype),
        gate=GateParams(
            pre_w=w(dim, dim),
            pre_b=zeros(dim),
            conv_kernel=w(d_conv, dim),
            conv_bias=zeros(dim),
            post_w=w(dim, dim),
            post_b=zeros(dim),
        ),
        gru=ConvGruParams(
            conv_kernel=w(d_conv, dim),
            conv_bias=zeros(dim),
            update_w=w(2 * dim, dim),
            update_b=zeros(dim),
            reset_w=w(2 * dim, dim),
            reset_b=zeros(dim),
            cand_w=w(2 * dim, dim),
            cand_b=zeros(dim),
        ),
        mix_ssm=scalar(0.5),
        mix_gru=scalar(0.5),
        mix_w=w(dim, dim),
        mix_b=zeros(dim),
        ff_in_w=w(dim, 4 * dim),
        ff_in_b=zeros(4 * dim),
        ff_out_w=w(4 * dim, dim),
        ff_out_b=zeros(dim),
        norm_gain=Tensor(np.ones(dim, dtype=dtype), requires_grad=True),
        norm_bias=zeros(dim),
    )


# ---------------------------------------------------------------------------
# partial flip


def flip_index(true_len: int, keep_last: int, width: int) -> np.ndarray:
    """Source-index map for one left-padded row of ``width`` positions.

    The row's real items occupy the last ``true_len`` columns in chronological
    order. The first ``max(true_len - keep_last, 0)`` of them are reversed; the
    final ``keep_last`` real items and all padding stay put. The map is an
    involution.
    """
    if true_len < 0 or true_len > width:
        raise ShapeError(f"true_len {true_len} outside [0, {width}]")
    if keep_last < 0:
        raise ConfigError(f"keep_last must be >= 0, got {keep_last}")
    idx = np.arange(width)
    n = max(true_len - keep_last, 0)
    if n > 1:
        start = width - true_len
        seg = slice(start, start + n)
        idx[seg] = idx[seg][::-1]
    return idx


def partial_flip(x: Tensor, lengths: np.ndarray, keep_last: int) -> Tensor:
    """Partially flip each row of ``x`` [B, L, D] within its true-length region."""
    lengths = np.asarray(lengths)
    if lengths.shape != (x.shape[0],):
        raise ShapeError(f"lengths shape {lengths.shape} != batch ({x.shape[0]},)")
    width = x.shape[1]
    index = np.stack([flip_index(int(n), keep_last, width) for n in lengths])
    return ad.take_along_time(x, index)


# ---------------------------------------------------------------------------
# branch blocks


def dense_conv_gate(h: Tensor, p: GateParams) -> Tensor:
    """Input-dependent gate: feats = conv(h W + b); g = post-dense(feats);
    output SiLU(g) + sigmoid(g), elementwise over [B, L, D]."""
    feats = ad.conv1d_depthwise(ad.add(ad.matmul(h, p.pre_w), p.pre_b), p.conv_kernel, p.conv_bias)
    g = ad.add(ad.matmul(feats, p.post_w), p.post_b)
    return ad.add(ad.silu(g), ad.sigmoid(g))


def conv_gru(h: Tensor, p: ConvGruParams) -> Tensor:
    """Causal depthwise conv followed by a GRU over the conv features.

    State starts at zero. Gates read the concatenation [state, conv_t]; the
    new state is update * state + (1 - update) * candidate.
    """
    bsz, length, dim = h.shape
    c = ad.conv1d_depthwise(h, p.conv_kernel, p.conv_bias)
    state = Tensor(np.zeros((bsz, dim), dtype=h.dtype))
    outputs = []
    for t in range(length):
        c_t = ad.select(c, 1, t)
        joint = ad.concat((state, c_t), axis=-1)
        z_t = ad.sigmoid(ad.add(ad.matmul(joint, p.update_w), p.update_b))
        r_t = ad.sigmoid(ad.add(ad.matmul(joint, p.reset_w), p.reset_b))
        cand_in = ad.concat((ad.mul(r_t, state), c_t), axis=-1)
        cand = ad.tanh(ad.add(ad.matmul(cand_in, p.cand_w), p.cand_b))
        state = ad.add(ad.mul(z_t, state), ad.mul(ad.sub(1.0, z_t), cand))
        outputs.append(state)
    return ad.stack(outputs, axis=1)


def bidirectional_mamba(h: Tensor, lp: LayerParams, lengths: np.ndarray, opts: LayerOptions) -> Tensor:
    """Run the two directional blocks and combine them positionally.

    The flipped branch's output is flipped back before the sum so position t
    carries information about position t from both directions. The gate
    parameters are shared; the gate of the flipped branch reads the flipped
    input.
    """
    m_fwd = mamba_forward(h, lp.mamba_fwd)
    if opts.no_flip:
        h_rev = h
        m_rev = mamba_forward(h, lp.mamba_rev)
    else:
        h_rev = partial_flip(h, lengths, opts.keep_last)
        m_rev = partial_flip(mamba_forward(h_rev, lp.mamba_rev), lengths, opts.keep_last)
    if opts.no_gate:
        return ad.add(m_fwd, m_rev)
    gated_fwd = ad.mul(dense_conv_gate(h, lp.gate), m_fwd)
    gated_rev = ad.mul(dense_conv_gate(h_rev, lp.gate), m_rev)
    return ad.add(gated_fwd, gated_rev)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when rate <= 0."""
    if rate <= 0.0:
        return x
    if rate >= 1.0:
        raise ConfigError(f"dropout rate must be < 1, got {rate}")
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype) / keep
    return ad.mul(x, Tensor(mask))


def encoder_layer(
    h_in: Tensor,
    lp: LayerParams,
    lengths: np.ndarray,
    opts: LayerOptions,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """One full layer: branch mix -> dense -> PFFN -> dropout -> norm(residual).

    Dropout runs exactly when ``rng`` is given: the trainer passes its dropout
    stream, and evaluation passes none.
    """
    m = bidirectional_mamba(h_in, lp, lengths, opts)
    if opts.no_gru:
        mixed = m
    else:
        mixed = ad.add(ad.mul(lp.mix_ssm, m), ad.mul(lp.mix_gru, conv_gru(h_in, lp.gru)))
    mixed = ad.add(ad.matmul(mixed, lp.mix_w), lp.mix_b)
    ff = ad.add(
        ad.matmul(ad.gelu(ad.add(ad.matmul(mixed, lp.ff_in_w), lp.ff_in_b)), lp.ff_out_w),
        lp.ff_out_b,
    )
    if rng is not None:
        ff = dropout(ff, opts.dropout, rng)
    return ad.layernorm(ad.add(ff, h_in), lp.norm_gain, lp.norm_bias)


def encoder_stack(
    h: Tensor,
    layers: list[LayerParams],
    lengths: np.ndarray,
    opts: LayerOptions,
    rng: np.random.Generator | None = None,
) -> Tensor:
    if not layers:
        raise ConfigError("encoder_stack needs at least one layer")
    for lp in layers:
        h = encoder_layer(h, lp, lengths, opts, rng=rng)
    return h
