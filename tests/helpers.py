"""Shared test utilities: finite-difference oracles and tiny fixtures."""

from __future__ import annotations

import numpy as np

from mambarec.autodiff import Tape, Tensor


def finite_diff(fn, tensor: Tensor, eps: float = 1e-5, entries=None) -> dict[int, float]:
    """Fourth-order central finite differences of scalar ``fn()`` at selected flat entries.

    The five-point stencil ``(-f(x+2h) + 8f(x+h) - 8f(x-h) + f(x-2h)) / 12h``
    has O(h^4) truncation error, so curvature in ``fn`` does not read as a
    gradient mismatch. ``fn`` must re-evaluate the forward pass from current
    tensor values and return a python float. Runs outside any tape.
    """
    flat = tensor.data.reshape(-1)
    if entries is None:
        entries = range(flat.size)
    out = {}
    for i in entries:
        orig = flat[i]
        f = {}
        for k in (2, 1, -1, -2):
            flat[i] = orig + k * eps
            f[k] = fn()
        flat[i] = orig
        out[int(i)] = (-f[2] + 8.0 * f[1] - 8.0 * f[-1] + f[-2]) / (12.0 * eps)
    return out


def check_grads(
    fn,
    named_tensors,
    eps: float = 1e-5,
    tol: float = 1e-4,
    grad_floor: float = 1e-8,
    max_entries: int | None = None,
    seed: int = 0,
) -> float:
    """Compare tape gradients of scalar ``fn()`` against fourth-order central differences.

    Asserts the max relative error over all probed entries with gradient
    magnitude above ``grad_floor`` stays below ``tol``. Discrepancies smaller
    than the central-difference roundoff floor (machine eps * |loss| / eps)
    are ignored: below that the oracle itself carries no signal.
    """
    named_tensors = list(named_tensors)
    for _, t in named_tensors:
        t.grad = None
    with Tape() as tape:
        loss = fn()
    tape.backward(loss)
    noise_floor = 100.0 * np.finfo(np.float64).eps * max(1.0, abs(float(loss.data))) / eps
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_name = ""
    for name, t in named_tensors:
        assert t.grad is not None, f"no gradient reached {name}"
        size = t.data.size
        if max_entries is not None and size > max_entries:
            entries = rng.choice(size, size=max_entries, replace=False)
        else:
            entries = range(size)
        fd = finite_diff(lambda: float(fn().data), t, eps=eps, entries=entries)
        tape_flat = t.grad.reshape(-1)
        for i, fd_val in fd.items():
            tape_val = float(tape_flat[i])
            scale = max(abs(fd_val), abs(tape_val))
            if scale <= grad_floor or abs(fd_val - tape_val) <= noise_floor:
                continue
            rel = abs(fd_val - tape_val) / scale
            if rel > worst:
                worst = rel
                worst_name = f"{name}[{i}]"
    assert worst < tol, f"gradient mismatch at {worst_name}: rel err {worst:.3e} >= {tol}"
    return worst


def rand_tensor(rng: np.random.Generator, *shape, scale: float = 1.0, requires_grad: bool = True) -> Tensor:
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=requires_grad)
