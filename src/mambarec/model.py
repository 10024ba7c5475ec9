"""End-to-end recommender: item embedding, encoder stack, next-item scoring.

Item id 0 is reserved for left padding: its embedding row is zero and never
updated. Scoring ties the output table to the input embedding by default
(``tie_output``); an untied table can be requested in the config. The user
representation is the encoder output at the final column, which left-padding
guarantees is the most recent real item.
"""

from __future__ import annotations

import dataclasses
import io
import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError
from .layers import LayerOptions, LayerParams, encoder_stack, init_layer_params

__all__ = [
    "ModelParams",
    "init_model_params",
    "layer_options",
    "named_tensors",
    "embed",
    "encode",
    "score",
    "batch_loss",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_FORMAT",
]

CHECKPOINT_FORMAT = "mambarec-checkpoint-v1"


@dataclass
class ModelParams:
    embedding: Tensor  # [n_items + 1, D]; row 0 = padding, all-zero
    layers: list[LayerParams]
    out_embedding: Tensor | None = None  # [n_items + 1, D] when untied

    @property
    def n_items(self) -> int:
        return self.embedding.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.embedding.shape[1]


def init_model_params(cfg, n_items: int, rng: np.random.Generator) -> ModelParams:
    """Build all learnable state for ``n_items`` real items under ``cfg``."""
    if n_items < 1:
        raise ConfigError("need at least one item")
    dtype = np.dtype(cfg.precision)
    emb = rng.normal(0.0, 0.02, size=(n_items + 1, cfg.dim)).astype(dtype)
    emb[0] = 0.0
    layers = [
        init_layer_params(rng, cfg.dim, cfg.d_state, cfg.conv_width, cfg.expand, dtype)
        for _ in range(cfg.n_layers)
    ]
    out_emb = None
    if not cfg.tie_output:
        out = rng.normal(0.0, 0.02, size=(n_items + 1, cfg.dim)).astype(dtype)
        out[0] = 0.0
        out_emb = Tensor(out, requires_grad=True)
    return ModelParams(embedding=Tensor(emb, requires_grad=True), layers=layers, out_embedding=out_emb)


def layer_options(cfg) -> LayerOptions:
    return LayerOptions(
        keep_last=cfg.flip_keep,
        dropout=cfg.dropout,
        no_flip=cfg.no_flip,
        no_gate=cfg.no_gate,
        no_gru=cfg.no_gru,
    )


def named_tensors(obj, prefix: str = ""):
    """Yield (dotted name, Tensor) pairs over a params dataclass tree.

    Field order is declaration order, so iteration is deterministic; lists are
    indexed numerically. Optimizer, checkpointing, and the gradient checks all
    key off these names.
    """
    if isinstance(obj, Tensor):
        yield prefix, obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if value is None:
                continue
            yield from named_tensors(value, f"{prefix}.{f.name}" if prefix else f.name)
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from named_tensors(value, f"{prefix}.{i}")


def embed(params: ModelParams, item_ids: np.ndarray) -> Tensor:
    """Gather embedding rows for an id matrix [B, N]; padding id 0 maps to zeros."""
    return ad.embedding(params.embedding, np.asarray(item_ids))


def encode(
    params: ModelParams,
    batch,
    opts: LayerOptions,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Embed a batch and run the encoder stack; returns [B, N, D]."""
    h = embed(params, batch.items)
    return encoder_stack(h, params.layers, batch.lengths, opts, rng=rng)


def score(
    params: ModelParams,
    batch,
    opts: LayerOptions,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Logits [B, K] over the K real items (column j scores item id j + 1).

    The padding row is excluded, so it can never be ranked or targeted.
    """
    h = encode(params, batch, opts, rng=rng)
    rep = ad.select(h, 1, h.shape[1] - 1)  # [B, D]; left-padding puts the newest item last
    table = params.embedding if params.out_embedding is None else params.out_embedding
    items = ad.narrow(table, 0, 1, table.shape[0] - 1)  # drop padding row
    return ad.matmul(rep, ad.transpose(items))


def batch_loss(
    params: ModelParams,
    batch,
    opts: LayerOptions,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Mean full-catalog cross entropy of the held-out next items."""
    targets = np.asarray(batch.targets)
    if targets.size and targets.min() < 1:
        raise ContractError("targets must be real item ids (>= 1)")
    logits = score(params, batch, opts, rng=rng)
    return ad.softmax_cross_entropy(logits, targets - 1)


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(path, params: ModelParams, config_dict: dict) -> None:
    """Write every parameter tensor plus the producing config; bit-exact round trip."""
    arrays = {f"param:{name}": t.data for name, t in named_tensors(params)}
    arrays["__format__"] = np.array(CHECKPOINT_FORMAT)
    arrays["__config__"] = np.array(json.dumps(config_dict, sort_keys=True))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Rebuild params and the stored config from a checkpoint file.

    The file must hold exactly the parameters its config builds, each with the
    built shape; anything else is a ``ConfigError`` that names the difference.
    """
    with np.load(path, allow_pickle=False) as blob:
        if str(blob["__format__"]) != CHECKPOINT_FORMAT:
            raise ConfigError(f"unrecognized checkpoint format in {path}")
        config_dict = json.loads(str(blob["__config__"]))
        stored = {k[len("param:") :]: blob[k] for k in blob.files if k.startswith("param:")}
    from .config import RunConfig  # local import to avoid a cycle

    cfg = RunConfig.from_dict(config_dict)
    n_items = stored["embedding"].shape[0] - 1
    params = init_model_params(cfg, n_items, np.random.default_rng(0))
    named = dict(named_tensors(params))
    missing = sorted(named.keys() - stored.keys())
    unexpected = sorted(stored.keys() - named.keys())
    if missing or unexpected:
        raise ConfigError(
            f"checkpoint {path} does not match its config: missing parameters {missing}, "
            f"unexpected parameters {unexpected}"
        )
    for name, t in named.items():
        if stored[name].shape != t.data.shape:
            raise ConfigError(f"checkpoint shape mismatch for {name}")
        t.data = stored[name].copy()
    return params, config_dict
