"""Selective state-space (Mamba-style) sequence block.

One block maps [B, L, D] -> [B, L, D] through: input projection split into a
state path and a gate path, causal depthwise convolution, SiLU, input-dependent
(dt, B, C) projections, softplus step sizes, exponential-decay discretization
A_bar = exp(dt * A) with B_bar = dt * B, a left-to-right linear recurrence,
a skip term, SiLU gating, and an output projection. The recurrence is O(L)
with a fixed-size hidden state per channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import NumericError, ShapeError

__all__ = ["MambaBlockParams", "init_mamba_params", "ssm_scan", "mamba_forward", "dt_rank_for"]


@dataclass
class MambaBlockParams:
    """Learnable state of one block; shapes fixed by (dim, d_state, d_conv, expand)."""

    in_proj: Tensor  # [D, 2*E*D] -> state path u and gate path z
    conv_kernel: Tensor  # [d_conv, E*D] depthwise
    conv_bias: Tensor  # [E*D]
    x_proj: Tensor  # [E*D, dt_rank + 2*d_state] -> (dt_low, B, C)
    dt_proj: Tensor  # [dt_rank, E*D]
    dt_bias: Tensor  # [E*D]
    A_log: Tensor  # [E*D, d_state]; A = -exp(A_log)
    D_skip: Tensor  # [E*D]
    out_proj: Tensor  # [E*D, D]

    @property
    def d_inner(self) -> int:
        return self.in_proj.shape[1] // 2

    @property
    def d_state(self) -> int:
        return self.A_log.shape[1]

    @property
    def dt_rank(self) -> int:
        return self.dt_proj.shape[0]


def dt_rank_for(dim: int) -> int:
    return max(1, math.ceil(dim / 16))


def init_mamba_params(
    rng: np.random.Generator,
    dim: int,
    d_state: int = 32,
    d_conv: int = 4,
    expand: int = 2,
    dtype=np.float32,
    init_std: float = 0.02,
) -> MambaBlockParams:
    """Fresh block parameters.

    A is initialized to the stable spectrum -1, -2, ..., -d_state per channel;
    dt_bias is set so that softplus(dt_bias) lands log-uniformly in
    [1e-3, 0.1], keeping the decay factor away from 1 at the start.
    """
    d_inner = expand * dim
    rank = dt_rank_for(dim)

    def w(*shape):
        return Tensor(rng.normal(0.0, init_std, size=shape).astype(dtype), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

    dt = np.exp(rng.uniform(math.log(1e-3), math.log(0.1), size=d_inner))
    dt_bias = dt + np.log(-np.expm1(-dt))  # inverse softplus
    a_log = np.tile(np.log(np.arange(1, d_state + 1, dtype=np.float64)), (d_inner, 1))
    return MambaBlockParams(
        in_proj=w(dim, 2 * d_inner),
        conv_kernel=w(d_conv, d_inner),
        conv_bias=zeros(d_inner),
        x_proj=w(d_inner, rank + 2 * d_state),
        dt_proj=w(rank, d_inner),
        dt_bias=Tensor(dt_bias.astype(dtype), requires_grad=True),
        A_log=Tensor(a_log.astype(dtype), requires_grad=True),
        D_skip=Tensor(np.ones(d_inner, dtype=dtype), requires_grad=True),
        out_proj=w(d_inner, dim),
    )


def ssm_scan(u: Tensor, delta: Tensor, A: Tensor, B: Tensor, C: Tensor, D_skip: Tensor) -> Tensor:
    """Left-to-right selective scan, recorded as one tape op.

    Discretizes per step as A_bar = exp(delta * A), B_bar = delta * B, then
    runs h_t = A_bar_t * h_{t-1} + B_bar_t * u_t and reads out
    y_t = sum_s C_t[s] * h_t[:, s] + D_skip * u_t. Shapes: u/delta [B, L, E*D],
    A [E*D, S], B/C [B, L, S], D_skip [E*D]. Sequential in L by contract.

    Only a recorded call keeps the states (one [L, B, E*D, S] buffer); its
    backward runs the adjoint recurrence right to left and recomputes A_bar.
    """
    if u.ndim != 3 or delta.shape != u.shape:
        raise ShapeError(f"ssm_scan: u {u.shape} and delta {delta.shape} must both be [B, L, E*D]")
    bsz, length, d_inner = u.shape
    d_state = A.shape[1]
    if A.shape != (d_inner, d_state) or B.shape != (bsz, length, d_state) or C.shape != B.shape:
        raise ShapeError(f"ssm_scan: inconsistent shapes A={A.shape} B={B.shape} C={C.shape}")

    inputs = (u, delta, A, B, C, D_skip)
    uu, dd, a, bb, cc, dsk = (t.data for t in inputs)
    recording = ad.Tape.active() is not None and any(t.requires_grad for t in inputs)
    states = np.empty((length, bsz, d_inner, d_state), dtype=u.dtype) if recording else None
    h = np.zeros((bsz, d_inner, d_state), dtype=u.dtype)
    y = np.empty_like(uu)
    for t in range(length):
        dt_t = dd[:, t, :, None]
        h = np.exp(dt_t * a) * h + (dt_t * uu[:, t, :, None]) * bb[:, t, None, :]
        if not np.isfinite(h).all():
            raise NumericError(f"ssm_scan: non-finite hidden state at step {t}")
        if states is not None:
            states[t] = h
        y[:, t] = (h * cc[:, t, None, :]).sum(axis=-1)

    def bwd(g):
        gu = g * dsk
        gdelta = np.empty_like(dd)
        ga = np.zeros_like(a)
        gb = np.empty_like(bb)
        gc = np.empty_like(cc)
        gh = np.zeros_like(h)
        for t in range(length - 1, -1, -1):
            dt_t = dd[:, t, :, None]
            gy_t = g[:, t, :, None]
            gh += gy_t * cc[:, t, None, :]  # gh_t = C_t gy_t + A_bar_{t+1} gh_{t+1}
            gc[:, t] = (gy_t * states[t]).sum(axis=1)
            gb[:, t] = (gh * (dt_t * uu[:, t, :, None])).sum(axis=1)
            g_drive = (gh * bb[:, t, None, :]).sum(axis=-1)  # d/d(delta_t * u_t)
            gu[:, t] += g_drive * dd[:, t]
            gdelta[:, t] = g_drive * uu[:, t]
            if t:  # h_{-1} = 0: A_bar_0 gets no gradient and gh stops at step 0
                decay = np.exp(dt_t * a)
                g_exp = gh * states[t - 1] * decay  # d/d(delta_t * A)
                gdelta[:, t] += (g_exp * a).sum(axis=-1)
                ga += (g_exp * dt_t).sum(axis=0)
                gh *= decay
        return gu, gdelta, ga, gb, gc, (g * uu).sum(axis=(0, 1))

    return ad._make(y + uu * dsk, inputs, bwd)


def mamba_forward(x: Tensor, p: MambaBlockParams) -> Tensor:
    """Full block forward; shape-preserving [B, L, D] -> [B, L, D]."""
    if x.ndim != 3:
        raise ShapeError(f"mamba_forward expects [B, L, D], got {x.shape}")
    bsz, length, _ = x.shape
    d_inner = p.d_inner
    rank = p.dt_rank
    d_state = p.d_state

    xz = ad.matmul(x, p.in_proj)  # [B, L, 2*E*D]
    u = ad.narrow(xz, -1, 0, d_inner)
    z = ad.narrow(xz, -1, d_inner, d_inner)

    u = ad.silu(ad.conv1d_depthwise(u, p.conv_kernel, p.conv_bias))

    dbc = ad.matmul(u, p.x_proj)  # [B, L, rank + 2S]
    dt = ad.softplus(ad.add(ad.matmul(ad.narrow(dbc, -1, 0, rank), p.dt_proj), p.dt_bias))
    b_in = ad.narrow(dbc, -1, rank, d_state)
    c_out = ad.narrow(dbc, -1, rank + d_state, d_state)
    a = ad.neg(ad.exp(p.A_log))  # strictly negative

    y = ssm_scan(u, dt, a, b_in, c_out, p.D_skip)
    y = ad.mul(y, ad.silu(z))
    return ad.matmul(y, p.out_proj)
