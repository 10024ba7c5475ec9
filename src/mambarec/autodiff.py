"""Reverse-mode automatic differentiation over dense numpy-backed tensors.

The graph is a Wengert list: while a ``Tape`` is active, every operation
appends a record holding its input tensors, its output tensor, and a closure
computing input gradients from the output gradient. ``Tape.backward`` walks
the list once in reverse, summing gradients at fan-out, and deposits totals
into the ``grad`` slot of every leaf that requires one.

Tensors are thin wrappers over float32/float64 numpy arrays. Broadcasting
follows numpy rules; the backward pass collapses broadcast axes by summation.
Tape stacks are per-thread, so concurrent tapes over shared read-only
parameters stay isolated; results are deterministic for fixed inputs.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import ConfigError, ContractError, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "add",
    "mul",
    "matmul",
    "sigmoid",
    "silu",
    "gelu",
    "softplus",
    "tsum",
    "transpose",
    "index",
    "embedding",
    "conv1d_depthwise",
    "layernorm",
    "softmax_cross_entropy",
]

_FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """Dense n-d array with an optional gradient slot.

    ``data`` is always a C-contiguous float32 or float64 numpy array; ``grad``
    is either ``None`` or an array of identical shape and dtype.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        if arr.ndim and not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"

    def sum(self):
        return tsum(self)


class _Record:
    __slots__ = ("inputs", "output", "backward")

    def __init__(self, inputs, output, backward):
        self.inputs = inputs
        self.output = output
        self.backward = backward


class _TapeStacks(threading.local):
    # per-thread, so concurrent tapes over shared read-only params cannot collide
    def __init__(self):
        self.stack: list[Tape] = []


_STACKS = _TapeStacks()


class Tape:
    """Ordered list of recorded operations for one forward pass."""

    def __init__(self):
        self._records: list[_Record] = []

    def __enter__(self) -> "Tape":
        _STACKS.stack.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _STACKS.stack.pop()
        return False

    def __len__(self) -> int:
        return len(self._records)

    @staticmethod
    def active() -> "Tape | None":
        stack = _STACKS.stack
        return stack[-1] if stack else None

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every requires-grad leaf reachable from ``loss``.

        Repeated calls accumulate into existing ``grad`` buffers; callers that
        want fresh gradients must zero them first.
        """
        if not isinstance(loss, Tensor) or loss.data.shape != ():
            raise ContractError("backward requires a scalar tensor loss")
        produced = {id(rec.output) for rec in self._records}
        if id(loss) not in produced:
            raise ContractError("loss was not produced on this tape")
        pending: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.dtype)}
        for rec in reversed(self._records):
            out_grad = pending.pop(id(rec.output), None)
            if out_grad is None:
                continue
            in_grads = rec.backward(out_grad)
            for tensor, g in zip(rec.inputs, in_grads):
                if g is None or not tensor.requires_grad:
                    continue
                if id(tensor) in produced:
                    acc = pending.get(id(tensor))
                    pending[id(tensor)] = g if acc is None else acc + g
                else:
                    if tensor.grad is None:
                        tensor.grad = np.zeros_like(tensor.data)
                    tensor.grad += g.astype(tensor.dtype, copy=False)


def _make(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(out_data)
    tape = Tape.active()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape._records.append(_Record(inputs, out, backward_fn))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Collapse a broadcast gradient back to ``shape`` by summing new axes."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError as err:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from err

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError as err:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from err

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(out, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy-style broadcasting over leading batch dims."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims disagree for {a.shape} @ {b.shape}")
    try:
        out = a.data @ b.data
    except ValueError as err:
        raise ShapeError(f"matmul: batch dims of {a.shape} and {b.shape} do not broadcast") from err

    def bwd(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _make(out, (a, b), bwd)


# ---------------------------------------------------------------------------
# activations


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # exp(-x) overflows to inf for very negative x, and 1 / (1 + inf) = 0 is the right limit
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid_np(a.data)
    return _make(y, (a,), lambda g: (g * y * (1.0 - y),))


def silu(a: Tensor) -> Tensor:
    s = _sigmoid_np(a.data)
    y = a.data * s
    # d/dx x*sig(x) = sig(x) * (1 + x * (1 - sig(x)))
    return _make(y, (a,), lambda g: (g * s * (1.0 + a.data * (1.0 - s)),))


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


def gelu(a: Tensor) -> Tensor:
    """GELU in the tanh approximation (closed-form backward)."""
    x = a.data
    inner = _GELU_C * (x + _GELU_K * (x * x * x))
    t = np.tanh(inner)
    y = 0.5 * x * (1.0 + t)

    def bwd(g):
        d_inner = _GELU_C * (1.0 + 3.0 * _GELU_K * x * x)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner),)

    return _make(y, (a,), bwd)


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), as max(x, 0) + log1p(e^-|x|), which never overflows."""
    y = np.exp(-np.abs(a.data))
    np.log1p(y, out=y)
    y += np.maximum(a.data, 0)
    return _make(y, (a,), lambda g: (g * _sigmoid_np(a.data),))


# ---------------------------------------------------------------------------
# reductions and shape ops


def tsum(a: Tensor) -> Tensor:
    """Sum over every axis to a scalar; the backward broadcasts the scalar gradient."""
    out = np.asarray(a.data.sum(), dtype=a.dtype)
    return _make(out, (a,), lambda g: (np.broadcast_to(g, a.shape).astype(a.dtype, copy=False),))


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    return _make(np.swapaxes(a.data, -1, -2), (a,), lambda g: (np.swapaxes(g, -1, -2),))


def index(a: Tensor, key) -> Tensor:
    """Read ``a.data[key]``, copied so it never aliases ``a``. ``key`` is basic (ints, slices, ``...``) or holds
    integer arrays, e.g. ``(rows[:, None], cols)``, that name no element twice, since the backward assigns."""
    out = a.data[key].copy()

    def bwd(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return (full,)

    return _make(out, (a,), bwd)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather over ids in [0, K]: id k >= 1 reads ``table[k - 1]``; padding id 0 reads zeros, no gradient."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() > table.shape[0]):
        raise IndexError(f"embedding ids outside [0, {table.shape[0]}]")
    real = ids > 0
    rows = ids[real] - 1
    out = np.zeros(ids.shape + table.shape[1:], dtype=table.dtype)
    out[real] = table.data[rows]

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, rows, g[real])
        return (gt,)

    return _make(out, (table,), bwd)


# ---------------------------------------------------------------------------
# structured ops


def conv1d_depthwise(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Causal per-channel 1-d convolution along axis 1 of ``x`` [B, L, D].

    ``kernel`` is [k, D]; tap ``k-1`` multiplies the current position. Steps
    before the start read as zeros, so the output never sees the future and
    has the input's length.
    """
    if x.ndim != 3:
        raise ShapeError(f"conv1d_depthwise expects [B, L, D], got {x.shape}")
    k, d = kernel.shape
    if k < 1:
        raise ConfigError(f"conv kernel width must be positive, got {k}")
    if d != x.shape[2] or bias.shape != (d,):
        raise ShapeError(f"conv kernel/bias {kernel.shape}/{bias.shape} do not match input {x.shape}")
    length = x.shape[1]
    # tap j reads s = k-1-j steps back; a tap with s >= length reads only zeros
    taps = [(j, k - 1 - j) for j in range(k) if k - 1 - j < length]
    out = np.zeros_like(x.data)
    for j, s in taps:
        out[:, s:] += x.data[:, : length - s] * kernel.data[j]
    out += bias.data

    def bwd(g):
        gk = np.zeros_like(kernel.data)
        gx = np.zeros_like(x.data)
        for j, s in taps:
            gk[j] = (x.data[:, : length - s] * g[:, s:]).sum(axis=(0, 1))
            gx[:, : length - s] += kernel.data[j] * g[:, s:]
        return gx, gk, g.sum(axis=(0, 1))

    return _make(out, (x, kernel, bias), bwd)


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Zero-mean unit-variance normalization over the last axis, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layernorm gain/bias must be ({d},), got {gain.shape}/{bias.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xmu = x.data - mu
    var = (xmu * xmu).mean(axis=-1, keepdims=True)
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = xmu * ivar
    out = xhat * gain.data + bias.data

    def bwd(g):
        dy = g * gain.data
        # fused layernorm backward with biased variance
        gx = ivar * (dy - dy.mean(axis=-1, keepdims=True) - xhat * (dy * xhat).mean(axis=-1, keepdims=True))
        sum_axes = tuple(range(g.ndim - 1))
        return gx.astype(x.dtype, copy=False), (g * xhat).sum(axis=sum_axes), g.sum(axis=sum_axes)

    return _make(out, (x, gain, bias), bwd)


def softmax_cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean over the batch of -log softmax(logits)[target], log-sum-exp stabilized."""
    if logits.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects [B, K] logits, got {logits.shape}")
    t = np.asarray(targets)
    if t.shape != (logits.shape[0],):
        raise ShapeError(f"targets shape {t.shape} != batch ({logits.shape[0]},)")
    if not np.issubdtype(t.dtype, np.integer):
        raise ContractError("targets must be integer indices")
    n, k = logits.shape
    if t.size and (t.min() < 0 or t.max() >= k):
        raise IndexError(f"target index outside [0, {k})")
    m = logits.data.max(axis=1, keepdims=True)
    shifted = logits.data - m
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True)) + m
    logp = logits.data - lse
    rows = np.arange(n)
    loss = np.asarray(-logp[rows, t].mean(), dtype=logits.dtype)

    def bwd(g):
        p = np.exp(logp)
        p[rows, t] -= 1.0
        return (p * (g / n),)

    return _make(loss, (logits,), bwd)
