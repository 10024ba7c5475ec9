"""Forward-pass wall-time benchmark: the recurrent encoder versus a minimal
single-head softmax-attention layer, across doubling sequence lengths.

Per-length cost of the encoder is dominated by O(N) work (scan steps, convs,
position-wise matmuls), while attention carries an O(N^2) score matrix, so
the per-doubling time ratios separate the two regimes.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .autodiff import Tensor
from .config import RunConfig
from .errors import ConfigError
from .layers import encoder_stack, init_layer_params
from .model import layer_options

__all__ = ["AttentionParams", "attention_forward", "BenchRow", "run_bench", "doubling_ratios"]


@dataclass
class AttentionParams:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray


def init_attention_params(rng: np.random.Generator, dim: int, dtype=np.float32) -> AttentionParams:
    def w():
        return rng.normal(0.0, 0.02, size=(dim, dim)).astype(dtype)

    return AttentionParams(w(), w(), w(), w())


def attention_forward(x: np.ndarray, p: AttentionParams) -> np.ndarray:
    """Single-head softmax attention over [B, N, D]; the quadratic reference."""
    q = x @ p.wq
    k = x @ p.wk
    v = x @ p.wv
    scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(x.shape[-1])
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    return (weights @ v) @ p.wo


@dataclass
class BenchRow:
    model: str  # "encoder" or "attention"
    length: int
    best_s: float


def _best_times(fns, warmup: int, reps: int) -> list[float]:
    """Fastest timed rep of each of ``fns``, which take turns inside every
    warm-up and timed rep, so a slow stretch of the machine hits them alike.
    Outside load only adds time, so the fastest rep is the one it hit least."""
    for _ in range(warmup):
        for fn in fns:
            fn()
    times = [[] for _ in fns]
    was_enabled = gc.isenabled()
    gc.disable()  # collector pauses otherwise dominate the small-N timings
    try:
        for _ in range(reps):
            for fn, fn_times in zip(fns, times):
                t0 = time.perf_counter()
                fn()
                fn_times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
        gc.collect()
    return [min(t) for t in times]


def run_bench(
    cfg: RunConfig,
    lengths: list[int],
    batch: int = 8,
    reps: int = 5,
    warmup: int = 2,
) -> list[BenchRow]:
    """Fastest forward time per length for both models (no tape, inference only)."""
    if not lengths:
        raise ConfigError("bench needs a non-empty list of lengths")
    if any(n < 2 for n in lengths):
        raise ConfigError("bench lengths must be >= 2")
    for name, value, least in (("batch", batch, 1), ("reps", reps, 1), ("warmup", warmup, 0)):
        if value < least:
            raise ConfigError(f"bench {name} must be >= {least}, got {value}")
    dtype = np.dtype(cfg.precision)
    rng = np.random.default_rng(cfg.seed)
    layers = [
        init_layer_params(rng, cfg.dim, cfg.d_state, cfg.conv_width, cfg.expand, dtype)
        for _ in range(cfg.n_layers)
    ]
    attn = init_attention_params(rng, cfg.dim, dtype)
    opts = layer_options(cfg)
    cases = []  # (model, length, forward)
    for n in sorted(set(lengths)):
        x = rng.normal(0.0, 1.0, size=(batch, n, cfg.dim)).astype(dtype)
        lens = np.full(batch, n, dtype=np.int64)
        cases.append(("encoder", n, partial(encoder_stack, Tensor(x), layers, lens, opts)))
        cases.append(("attention", n, partial(attention_forward, x, attn)))
    best = _best_times([fn for _, _, fn in cases], warmup, reps)
    return [BenchRow(model, n, t) for (model, n, _), t in zip(cases, best)]


def doubling_ratios(rows: list[BenchRow], model: str) -> list[tuple[int, int, float]]:
    """(shorter, longer, time ratio) for successive 2x length pairs."""
    times = {r.length: r.best_s for r in rows if r.model == model}
    out = []
    for n in sorted(times):
        if 2 * n in times:
            out.append((n, 2 * n, times[2 * n] / times[n]))
    return out
