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
from .mamba import MambaBlockParams, flush_negligible, init_mamba_params, mamba_forward

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
    w: Tensor  # [2D, 3D]: columns update | reset | candidate; state rows over conv rows
    b: Tensor  # [3D]


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
            w=Tensor(np.hstack([w(2 * dim, dim).data for _ in range(3)]), requires_grad=True),  # a draw per gate
            b=zeros(3 * dim),
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


def flip_index(lengths: np.ndarray, keep_last: int, width: int) -> np.ndarray:
    """Source-index map [B, width] of a batch of left-padded rows.

    Row b's real items occupy its last ``lengths[b]`` columns in chronological
    order. The first ``max(lengths[b] - keep_last, 0)`` of them are reversed;
    the final ``keep_last`` real items and all padding stay put. Each row's
    map is an involution.
    """
    lengths = np.asarray(lengths)
    bad = lengths.ndim != 1 or not np.issubdtype(lengths.dtype, np.integer)
    if bad or ((lengths < 0) | (lengths > width)).any():
        raise ShapeError(f"flip_index: lengths must hold one length in [0, {width}] per row, got {lengths}")
    if keep_last < 0:
        raise ConfigError(f"keep_last must be >= 0, got {keep_last}")
    cols = np.arange(width)
    start = width - lengths[:, None].astype(np.int64)  # signed, so no unsigned dtype wraps below
    end = np.maximum(start, width - min(keep_last, width))  # each row reverses [start, end)
    return np.where((cols >= start) & (cols < end), start + end - 1 - cols, cols)


def partial_flip(x: Tensor, lengths: np.ndarray, keep_last: int) -> Tensor:
    """Partially flip each row of ``x`` [B, L, D] within its true-length region."""
    return ad.index(x, (np.arange(x.shape[0])[:, None], flip_index(lengths, keep_last, x.shape[1])))


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
    new state is update * state + (1 - update) * candidate. The conv is one
    tape record and the GRU another.

    Each gate's [2D, D] column block of ``w`` stacks the rows that read the
    state (U) over the rows that read conv_t (W). The W products of every
    step are one GEMM before the loop; the loop does state @ [U_z | U_r] and
    (r * state) @ U_c. The backward runs BPTT carrying only the state
    gradient, then takes every weight and input gradient from [L*B, D] GEMMs.
    """
    c = ad.conv1d_depthwise(h, p.conv_kernel, p.conv_bias)
    bsz, length, dim = c.shape
    w = p.w.data
    u_zr, u_c, w_in = w[:dim, : 2 * dim], w[:dim, 2 * dim :], w[dim:]
    c_tm = np.ascontiguousarray(c.data.swapaxes(0, 1)).reshape(-1, dim)  # [L*B, D], time-major
    pre = (c_tm @ w_in + p.b.data).reshape(length, bsz, 3 * dim)  # W conv_t + b of every step and gate
    states = np.zeros((length + 1, bsz, dim), dtype=c.dtype)  # states[t + 1] follows step t
    zr = np.empty((length, bsz, 2 * dim), dtype=c.dtype)
    cand = np.empty((length, bsz, dim), dtype=c.dtype)
    for t in range(length):
        s = states[t]
        zr[t] = ad._sigmoid_np(pre[t, :, : 2 * dim] + s @ u_zr)
        cand[t] = np.tanh(pre[t, :, 2 * dim :] + (zr[t, :, dim:] * s) @ u_c)
        z = zr[t, :, :dim]
        states[t + 1] = z * s + (1.0 - z) * cand[t]

    def bwd(g):
        prev = states[:-1]
        z, r = zr[..., :dim], zr[..., dim:]
        # local derivatives: dz and dc take d state_t to the z and candidate pre-activations,
        # dr takes d(r * state) to the r pre-activation
        dz = (prev - cand) * z * (1.0 - z)
        dc = (1.0 - z) * (1.0 - cand * cand)
        dr = prev * r * (1.0 - r)
        g_tm = g.swapaxes(0, 1)
        g_pre = np.empty((length, bsz, 3 * dim), dtype=c.dtype)
        gs = np.zeros((bsz, dim), dtype=c.dtype)
        for t in range(length - 1, -1, -1):
            gs += g_tm[t]
            np.multiply(gs, dz[t], out=g_pre[t, :, :dim])
            np.multiply(gs, dc[t], out=g_pre[t, :, 2 * dim :])
            g_rs = g_pre[t, :, 2 * dim :] @ u_c.T  # d/d(r * state)
            np.multiply(g_rs, dr[t], out=g_pre[t, :, dim : 2 * dim])
            gs = gs * z[t] + g_rs * r[t] + g_pre[t, :, : 2 * dim] @ u_zr.T
            flush_negligible(gs)
        g_pre = g_pre.reshape(-1, 3 * dim)
        prev = prev.reshape(-1, dim)
        rs = r.reshape(-1, dim) * prev
        g_u = np.concatenate([prev.T @ g_pre[:, : 2 * dim], rs.T @ g_pre[:, 2 * dim :]], axis=1)
        g_w = np.concatenate([g_u, c_tm.T @ g_pre])  # [2D, 3D], laid out like w
        g_c = (g_pre @ w_in.T).reshape(length, bsz, dim).swapaxes(0, 1)
        return g_c, g_w, g_pre.sum(axis=0)

    return ad._make(states[1:].swapaxes(0, 1), (c, p.w, p.b), bwd)


def bidirectional_mamba(
    h: Tensor, lp: LayerParams, lengths: np.ndarray, opts: LayerOptions, read_last: bool = False
) -> Tensor:
    """Run the two directional blocks and combine them positionally.

    The flipped branch's output is flipped back before the sum so position t
    carries information about position t from both directions. The gate
    parameters are shared; the gate of the flipped branch reads the flipped
    input. Both blocks get ``lengths``, since the flip keeps the padding in
    front: their scans start at each row's first real item and read out zero
    over the padding.

    With ``read_last`` only the last column is computed, as [B, D]. The
    flipped block is read at the column the flip-back maps there, and each
    gate runs on the last ``conv_width`` columns, all that its causal conv
    reads for the last one.
    """
    width = h.shape[1]
    last = np.full(h.shape[0], width - 1) if read_last else None

    def gate(x):
        if last is None:
            return dense_conv_gate(x, lp.gate)
        window = ad.index(x, np.s_[:, -lp.gate.conv_kernel.shape[0] :])
        return ad.index(dense_conv_gate(window, lp.gate), np.s_[:, -1])

    m_fwd = mamba_forward(h, lp.mamba_fwd, last, lengths)
    if opts.no_flip:
        h_rev = h
        m_rev = mamba_forward(h, lp.mamba_rev, last, lengths)
    else:
        h_rev = partial_flip(h, lengths, opts.keep_last)
        if last is None:
            m_rev = partial_flip(mamba_forward(h_rev, lp.mamba_rev, lengths=lengths), lengths, opts.keep_last)
        else:  # read the flipped block where the flip-back takes its last column from
            m_rev = mamba_forward(h_rev, lp.mamba_rev, flip_index(lengths, opts.keep_last, width)[:, -1], lengths)
    if opts.no_gate:
        return ad.add(m_fwd, m_rev)
    gated_fwd = ad.mul(gate(h), m_fwd)
    gated_rev = ad.mul(gate(h_rev), m_rev)
    return ad.add(gated_fwd, gated_rev)


def dropout(x: Tensor, rate: float, draw: np.ndarray) -> Tensor:
    """Inverted dropout: keeps the entries whose uniform ``draw`` (shaped like
    ``x``) is below 1 - rate; identity when rate <= 0."""
    if rate <= 0.0:
        return x
    if rate >= 1.0:
        raise ConfigError(f"dropout rate must be < 1, got {rate}")
    keep = 1.0 - rate
    mask = (draw < keep).astype(x.data.dtype) / keep
    return ad.mul(x, Tensor(mask))


def encoder_layer(
    h_in: Tensor,
    lp: LayerParams,
    lengths: np.ndarray,
    opts: LayerOptions,
    rng: np.random.Generator | None = None,
    read_last: bool = False,
) -> Tensor:
    """One full layer: branch mix -> dense -> PFFN -> dropout -> norm(residual).

    Dropout runs exactly when ``rng`` is given: the trainer passes its dropout
    stream, and evaluation passes none. The draws cover every column, so the
    stream does not depend on how many are computed. With ``read_last`` the
    layer computes only its last column and returns it as [B, D]; a [B, 1, D]
    column would not do, since numpy runs its products as B vector products,
    whose sums round differently from the full layer's matrix products.
    """
    m = bidirectional_mamba(h_in, lp, lengths, opts, read_last=read_last)
    if opts.no_gru:
        mixed = m
    else:
        gru = conv_gru(h_in, lp.gru)  # its recurrence reads every column, even when one is kept
        if read_last:
            gru = ad.index(gru, np.s_[:, -1])
        mixed = ad.add(ad.mul(lp.mix_ssm, m), ad.mul(lp.mix_gru, gru))
    mixed = ad.add(ad.matmul(mixed, lp.mix_w), lp.mix_b)
    ff = ad.add(
        ad.matmul(ad.gelu(ad.add(ad.matmul(mixed, lp.ff_in_w), lp.ff_in_b)), lp.ff_out_w),
        lp.ff_out_b,
    )
    if rng is not None and opts.dropout > 0.0:
        draw = rng.random(h_in.shape)
        ff = dropout(ff, opts.dropout, draw[:, -1] if read_last else draw)
    residual = ad.index(h_in, np.s_[:, -1]) if read_last else h_in
    return ad.layernorm(ad.add(ff, residual), lp.norm_gain, lp.norm_bias)


def encoder_stack(
    h: Tensor,
    layers: list[LayerParams],
    lengths: np.ndarray,
    opts: LayerOptions,
    rng: np.random.Generator | None = None,
    read_last: bool = False,
) -> Tensor:
    """Run the layers in order; with ``read_last`` the last layer returns only its last column, [B, D]."""
    if not layers:
        raise ConfigError("encoder_stack needs at least one layer")
    for i, lp in enumerate(layers):
        h = encoder_layer(h, lp, lengths, opts, rng=rng, read_last=read_last and i == len(layers) - 1)
    return h
