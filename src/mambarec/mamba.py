"""Selective state-space (Mamba-style) sequence block.

One block maps [B, L, D] -> [B, L, D] through: input projections to a state
path and a gate path, causal depthwise convolution, SiLU, input-dependent
(dt, B, C) projections, softplus step sizes, exponential-decay discretization
A_bar = exp(dt * A) with B_bar = dt * B (the scan forms A = -exp(A_log) from
the stored A_log, so every A_bar lies in (0, 1]), a left-to-right linear
recurrence, a skip term, SiLU gating, and an output projection. The recurrence
is O(L) with a fixed-size hidden state per channel.
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

    in_u: Tensor  # [D, E*D] -> state path u
    in_z: Tensor  # [D, E*D] -> gate path z
    conv_kernel: Tensor  # [d_conv, E*D] depthwise
    conv_bias: Tensor  # [E*D]
    x_proj: Tensor  # [E*D, dt_rank + 2*d_state] -> (dt_low, B, C)
    dt_proj: Tensor  # [dt_rank, E*D]
    dt_bias: Tensor  # [E*D]
    A_log: Tensor  # [E*D, d_state]; A = -exp(A_log)
    D_skip: Tensor  # [E*D]
    out_proj: Tensor  # [E*D, D]

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
    in_proj = w(dim, 2 * d_inner).data  # one draw, as Mamba's fused in_proj; u reads its left half, z its right
    return MambaBlockParams(
        in_u=Tensor(in_proj[:, :d_inner], requires_grad=True),
        in_z=Tensor(in_proj[:, d_inner:], requires_grad=True),
        conv_kernel=w(d_conv, d_inner),
        conv_bias=zeros(d_inner),
        x_proj=w(d_inner, rank + 2 * d_state),
        dt_proj=w(rank, d_inner),
        dt_bias=Tensor(dt_bias.astype(dtype), requires_grad=True),
        A_log=Tensor(a_log.astype(dtype), requires_grad=True),
        D_skip=Tensor(np.ones(d_inner, dtype=dtype), requires_grad=True),
        out_proj=w(d_inner, dim),
    )


# Tile sizes of the scan. A row block holds as many batch rows as fit one step's
# state slice [rows, E*D, S] in _STEP_BYTES; a time chunk holds as many steps as
# fit the block's [steps, rows, E*D, S] tile in _TILE_BYTES. A tile's decay and
# states then stay in L2 cache while the recurrence walks it.
_STEP_BYTES = 128 * 1024
_TILE_BYTES = 512 * 1024


def scan_tile(bsz: int, length: int, d_inner: int, d_state: int, itemsize: int) -> tuple[int, int]:
    """(rows, steps) of one scan tile for these shapes."""
    row_bytes = max(1, d_inner * d_state * itemsize)
    rows = max(1, min(bsz, _STEP_BYTES // row_bytes))
    return rows, max(1, min(length, _TILE_BYTES // (rows * row_bytes)))


def flush_negligible(x: np.ndarray) -> None:
    """Zero, in place, the entries of x below tiny / eps of its dtype.

    A backward recurrence carries a gradient that decays step by step. Left
    alone, it would sink through the subnormal range, where every multiply
    takes a slow path whose cost depends on the data. Dropping such an entry
    changes a sum by less than half an ulp once the sum exceeds
    2 * tiny / eps**2 (about 2e-24 in float32).
    """
    info = np.finfo(x.dtype)
    np.copyto(x, 0, where=np.abs(x) < info.tiny / info.eps)


def ssm_scan(
    u: Tensor, delta: Tensor, A_log: Tensor, B: Tensor, C: Tensor, D_skip: Tensor, at: np.ndarray | None = None,
    lengths: np.ndarray | None = None,
) -> Tensor:
    """Left-to-right selective scan, recorded as one tape op.

    Forms A = -exp(A_log) once per call and discretizes per step as
    A_bar = exp(delta * A), in (0, 1] for delta >= 0, and B_bar = delta * B,
    then runs h_t = A_bar_t * h_{t-1} + B_bar_t * u_t and reads out
    y_t = sum_s C_t[s] * h_t[:, s] + D_skip * u_t. Shapes: u/delta [B, L, E*D],
    A_log [E*D, S], B/C [B, L, S], D_skip [E*D]. Sequential in L by contract.
    With ``at`` (one step per row, [B] ints) the output is [B, E*D]: row b
    holds y_{at[b]}, the full read's column at that step, bitwise.

    ``lengths`` ([B] ints in [0, L]) marks each row's last ``lengths[b]``
    steps as real and the steps before them as left padding. Padding acts as
    zero input: the state stays zero until the row's first real step, the
    output there is zero, and no gradient reaches any input from it. Without
    ``lengths`` every step is real.

    Rows are independent, so the scan walks tiles of a few rows by a few steps
    (``scan_tile``). The rows are taken longest first (a stable sort), and a
    tile holds only those rows of its row block that are live in its time
    chunk, the rows with a real step before the chunk ends. They are a prefix
    of the block that grows chunk by chunk, so a row's padding in the chunks
    before the one holding its first real step forms no A_bar and runs no
    recurrence, forward or backward, and a chunk with no live row runs nothing. The block's state
    and, in the backward, its state gradient live in one [rows, E*D, S]
    buffer each, of which a tile uses its live rows. Per tile, the rows'
    inputs are gathered, A_bar and the drive B_bar * u are formed in bulk, the
    loop only multiplies and adds in place, and the readout is one batched
    matmul. Taped and untaped calls run the same forward into one tile of
    scratch; a recorded call also keeps the state entering each time chunk
    ([n_chunks, B, E*D, S]). An ``at`` call reads out, as the full read does,
    only the tiles that hold a row's read step, and returns each row's step
    of the [B, L, E*D] output. The backward walks the same tiles right
    to left, recomputes A_bar and, from the chunk's entering state, the
    tile's states, carries only the state gradient through the loop, and
    takes every other gradient from batched matmuls; an ``at`` call first
    scatters its gradient into a zero [B, L, E*D] array.
    """
    if u.ndim != 3 or delta.shape != u.shape:
        raise ShapeError(f"ssm_scan: u {u.shape} and delta {delta.shape} must both be [B, L, E*D]")
    bsz, length, d_inner = u.shape
    d_state = A_log.shape[1]
    if A_log.shape != (d_inner, d_state) or B.shape != (bsz, length, d_state) or C.shape != B.shape:
        raise ShapeError(f"ssm_scan: inconsistent shapes A_log={A_log.shape} B={B.shape} C={C.shape}")
    if at is not None:
        at = np.asarray(at)
        if at.shape != (bsz,) or not np.issubdtype(at.dtype, np.integer) or ((at < 0) | (at >= length)).any():
            raise ShapeError(f"ssm_scan: at must hold one step in [0, {length}) per row, got {at}")
    lengths = np.full(bsz, length) if lengths is None else np.asarray(lengths)
    bad = lengths.shape != (bsz,) or not np.issubdtype(lengths.dtype, np.integer)
    if bad or ((lengths < 0) | (lengths > length)).any():
        raise ShapeError(f"ssm_scan: lengths must hold one length in [0, {length}] per row, got {lengths}")
    first = length - lengths  # each row's first real step
    order = np.argsort(first, kind="stable")  # longest rows first

    inputs = (u, delta, A_log, B, C, D_skip)
    uu, dd, a_log, bb, cc, dsk = (t.data for t in inputs)
    a = -np.exp(a_log)
    recording = ad.Tape.active() is not None and any(t.requires_grad for t in inputs)
    rows, steps = scan_tile(bsz, length, d_inner, d_state, uu.itemsize)
    # time-major views [L, B, ...], so a tile of any of them is x[t0:t1, rows of the block]
    u_tm, d_tm, b_tm, c_tm = (x.swapaxes(0, 1) for x in (uu, dd, bb, cc))
    # bounds[c, i] is the state entering time chunk c of the i-th row in length order (zero at a block's start)
    bounds = np.zeros((-(-length // steps), bsz, d_inner, d_state), dtype=uu.dtype) if recording else None
    decay, scratch = (np.empty((steps * rows, d_inner, d_state), dtype=uu.dtype) for _ in range(2))

    def tiles(reverse=False):
        """Yield (t0, t1, b0, idx, real, dt, ut, bt, ct, A_bar, scratch) per tile, row block by row block.

        idx holds the block's batch rows that are live in the tile, those whose first real step comes
        before t1: a prefix of the block, since rows go in order of first real step. real [t1-t0, n]
        says whether each step is real for each of these n rows; dt, ut, bt and ct are their gathered
        inputs, ut zeroed at padding. A_bar and the scratch tile are [t1-t0, n, E*D, S] views of the
        two tile buffers. A tile with no live rows is not yielded.
        """
        for b0 in range(0, bsz, rows):
            block = order[b0 : b0 + rows]
            starts = range(first[block[0]] // steps * steps, length, steps)
            for t0 in reversed(starts) if reverse else starts:
                t1 = min(t0 + steps, length)
                idx = block[: np.searchsorted(first[block], t1)]  # rows with a real step before t1
                if not idx.size:
                    continue
                real = np.arange(t0, t1)[:, None] >= first[idx]
                dt, ut, bt, ct = (x[t0:t1, idx] for x in (d_tm, u_tm, b_tm, c_tm))
                ut[~real] = 0
                shape = (t1 - t0, idx.size, d_inner, d_state)
                dec = decay[: shape[0] * shape[1]].reshape(shape)
                np.exp(np.multiply(dt[..., None], a, out=dec), out=dec)
                yield t0, t1, b0, idx, real, dt, ut, bt, ct, dec, scratch[: shape[0] * shape[1]].reshape(shape)

    def recur(dt, ut, bt, dec, h, hs, tmp):
        """Write into hs the tile's states, from the state h entering its first step; tmp is overwritten."""
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply((dt * ut)[..., None], bt[:, :, None, :], out=hs)
            for i in range(len(hs)):
                hs[i] += np.multiply(dec[i], hs[i - 1] if i else h, out=tmp[i])

    y = np.zeros_like(uu)  # steps before every tile of their row block stay zero
    y_tm = y.swapaxes(0, 1)
    if at is not None:  # reads[block, chunk]: a row of the block reads a step of the chunk
        reads = np.zeros((-(-bsz // rows), -(-length // steps)), dtype=bool)
        reads[np.argsort(order) // rows, at // steps] = True
    first_bad = length
    h = np.empty((rows, d_inner, d_state), dtype=uu.dtype)  # the block's state; a row not yet live holds zero
    for t0, t1, b0, idx, real, dt, ut, bt, ct, dec, hs in tiles():
        n = idx.size
        if t0 <= first[idx[0]]:  # the block's first tile
            h.fill(0)
        recur(dt, ut, bt, dec, h[:n], hs, dec)
        # a non-finite entry stays non-finite at every later step, so the tile's last state shows any
        if not np.isfinite(hs[-1]).all():
            first_bad = min(first_bad, t0 + int(np.argmin(np.isfinite(hs).all(axis=(1, 2, 3)))))
            continue  # later tiles of this row block cannot lower first_bad; the error waits for the other rows
        h[:n] = hs[-1]
        if recording and t1 < length:
            bounds[t1 // steps, b0 : b0 + n] = h[:n]
        if at is None or reads[b0 // rows, t0 // steps]:
            y_tm[t0:t1, idx] = (hs @ ct[..., None])[..., 0] + ut * dsk
    if first_bad < length:
        raise NumericError(f"ssm_scan: non-finite hidden state at step {first_bad}")

    def bwd(g):
        if at is not None:  # the gradient of the full read, zero off the read steps
            g, g_at = np.zeros_like(uu), g
            g[np.arange(bsz), at] = g_at
        g = np.where((np.arange(length) >= first[:, None])[..., None], g, 0)  # padding passes no gradient
        gu = g * dsk
        gdelta = np.zeros_like(dd)
        ga = np.zeros_like(a)
        gb = np.zeros_like(bb)
        gc = np.zeros_like(cc)
        g_tm, gu_tm, gdelta_tm, gb_tm, gc_tm = (x.swapaxes(0, 1) for x in (g, gu, gdelta, gb, gc))
        tile_states = np.empty_like(scratch)
        gh_block = np.empty((rows, d_inner, d_state), dtype=uu.dtype)  # A_bar_t1 gh_t1 from the right, per row
        for t0, t1, b0, idx, real, dt, ut, bt, ct, dec, gs in tiles(reverse=True):
            n = idx.size
            if t1 == length:
                gh_block.fill(0)
            gh = gh_block[:n]
            h = bounds[t0 // steps, b0 : b0 + n]
            hs = tile_states[: gs.shape[0] * gs.shape[1]].reshape(gs.shape)
            recur(dt, ut, bt, dec, h, hs, gs)  # gs is free until the adjoint fills it
            gy = g_tm[t0:t1, idx]
            np.multiply(gy[..., None], ct[:, :, None, :], out=gs)
            carry = gh
            for i in range(t1 - t0 - 1, -1, -1):  # gh_t = C_t gy_t + A_bar_{t+1} gh_{t+1}
                gs[i] += carry
                carry = np.multiply(gs[i], dec[i], out=dec[i])  # dec now holds A_bar_t gh_t
            np.copyto(gh, carry)
            flush_negligible(gh)  # once per tile: the carry then sinks at most one tile deep
            gc_tm[t0:t1, idx] = (gy[:, :, None, :] @ hs)[:, :, 0]
            gb_tm[t0:t1, idx] = ((dt * ut)[:, :, None, :] @ gs)[:, :, 0]
            g_drive = (gs @ bt[..., None])[..., 0]  # d/d(delta_t * u_t)
            g_drive[~real] = 0
            gu_tm[t0:t1, idx] += g_drive * dt
            gd = g_drive * ut
            # d/d(delta_t * A) = A_bar_t gh_t h_{t-1}, reduced per channel; h_{-1} = 0
            lo = 1 if t0 == 0 else 0
            np.multiply(dec[1:], hs[:-1], out=dec[1:])
            if t0:
                np.multiply(dec[0], h, out=dec[0])
            g_exp = dec[lo:].reshape(-1, d_inner, d_state).swapaxes(0, 1)  # [E*D, steps * rows, S]
            gd[lo:] += (g_exp @ a[:, :, None])[..., 0].T.reshape(gd[lo:].shape)
            ga += (dt[lo:].reshape(-1, d_inner).T[:, None, :] @ g_exp)[:, 0]
            gdelta_tm[t0:t1, idx] = gd
        return gu, gdelta, ga * a, gb, gc, (g * uu).sum(axis=(0, 1))  # dA/dA_log = A

    return ad._make(y if at is None else y[np.arange(bsz), at], inputs, bwd)


def mamba_forward(
    x: Tensor, p: MambaBlockParams, at: np.ndarray | None = None, lengths: np.ndarray | None = None
) -> Tensor:
    """Full block forward; shape-preserving [B, L, D] -> [B, L, D].

    With ``at`` (one step per row, [B] ints) only those steps are read out:
    the output is [B, D], row b holding step at[b] of the full output. The
    state path still runs over the row's real steps; the gate path z, the
    gating and the output projection run at the read step only.

    ``lengths`` ([B] ints) goes to ``ssm_scan``: the scan's state starts at
    zero at each row's first real step, so the conv bias the padding carries
    never drives it, and the output at padding steps is zero. Without
    ``lengths`` every step is real.
    """
    if x.ndim != 3:
        raise ShapeError(f"mamba_forward expects [B, L, D], got {x.shape}")
    rank = p.dt_rank
    d_state = p.d_state

    u = ad.matmul(x, p.in_u)
    z = ad.matmul(x if at is None else ad.index(x, (np.arange(x.shape[0]), at)), p.in_z)

    u = ad.silu(ad.conv1d_depthwise(u, p.conv_kernel, p.conv_bias))

    dbc = ad.matmul(u, p.x_proj)  # [B, L, rank + 2S]
    dt = ad.softplus(ad.add(ad.matmul(ad.index(dbc, np.s_[..., :rank]), p.dt_proj), p.dt_bias))
    b_in = ad.index(dbc, np.s_[..., rank : rank + d_state])
    c_out = ad.index(dbc, np.s_[..., rank + d_state :])

    y = ssm_scan(u, dt, p.A_log, b_in, c_out, p.D_skip, at=at, lengths=lengths)
    y = ad.mul(y, ad.silu(z))
    return ad.matmul(y, p.out_proj)
