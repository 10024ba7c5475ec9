"""End-to-end recommender: item embedding, encoder stack, next-item scoring.

Item tables hold only items, stored as scoring reads them: ``[D, n_items]``, item id k
is column k - 1. Left-padding id 0 has no column; ``autodiff.embedding`` reads it as zeros.
Scoring multiplies by the table as stored, tied to the input embedding by default
(``tie_output``); an untied table can be requested in the config. The user
representation is the encoder output at the final column, which left-padding
guarantees is the most recent real item.
"""

from __future__ import annotations

import dataclasses
import io
import json
import zipfile
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import RunConfig
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

CHECKPOINT_FORMAT = "mambarec-checkpoint-v4"


@dataclass
class ModelParams:
    embedding: Tensor  # [D, n_items]; column k - 1 is item id k
    layers: list[LayerParams]
    out_embedding: Tensor | None = None  # [D, n_items] when untied

    @property
    def n_items(self) -> int:
        return self.embedding.shape[1]


def init_model_params(cfg, n_items: int, rng: np.random.Generator) -> ModelParams:
    """Build all learnable state for ``n_items`` real items under ``cfg``."""
    if n_items < 1:
        raise ConfigError("need at least one item")
    dtype = np.dtype(cfg.precision)

    def item_table() -> Tensor:
        # draws [n_items + 1, D] and drops row 0, so a seed builds the model it built when row 0 was padding
        draw = rng.normal(0.0, 0.02, size=(n_items + 1, cfg.dim))[1:]
        return Tensor(np.ascontiguousarray(draw.T, dtype=dtype), requires_grad=True)

    emb = item_table()
    layers = [
        init_layer_params(rng, cfg.dim, cfg.d_state, cfg.conv_width, cfg.expand, dtype)
        for _ in range(cfg.n_layers)
    ]
    return ModelParams(embedding=emb, layers=layers, out_embedding=None if cfg.tie_output else item_table())


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
    """Embed an id matrix [B, N] into [B, N, D]: id k reads column k - 1, and padding id 0 reads zeros."""
    return ad.embedding(params.embedding, np.asarray(item_ids))


def encode(
    params: ModelParams,
    batch,
    opts: LayerOptions,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Embed a batch and run the encoder stack; returns its last column, [B, D].

    Scoring reads only that column, so the last layer computes nothing else.
    """
    h = embed(params, batch.items)
    return encoder_stack(h, params.layers, batch.lengths, opts, rng=rng, read_last=True)


def score(
    params: ModelParams,
    batch,
    opts: LayerOptions,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Logits [B, K] over the K real items (column j scores item id j + 1).

    Padding has no row, so it can never be ranked or targeted.
    """
    rep = encode(params, batch, opts, rng=rng)  # left-padding puts the newest item last
    table = params.embedding if params.out_embedding is None else params.out_embedding
    return ad.matmul(rep, table)


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


def load_checkpoint(path) -> tuple[ModelParams, RunConfig]:
    """Rebuild params and the stored config from a checkpoint file.

    The file must hold exactly the parameters its config builds, each with the
    built dtype and shape; anything else is a ``ConfigError`` that names the
    difference. A file that is not an ``.npz`` archive of plain arrays, lacks the
    format, config or a 2-D embedding, holds another format or a config that is
    not a JSON object, is a ``ConfigError`` naming the path; a missing file raises ``OSError``.
    """
    try:
        blob = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile) as err:
        raise ConfigError(f"cannot read checkpoint {path}: {err}") from err
    if not isinstance(blob, np.lib.npyio.NpzFile):
        raise ConfigError(f"cannot read checkpoint {path}: not an .npz archive")
    with blob:
        try:
            arrays = {k: blob[k] for k in blob.files}
        except (ValueError, EOFError, zipfile.BadZipFile) as err:
            raise ConfigError(f"cannot read checkpoint {path}: {err}") from err
    absent = [k for k in ("__format__", "__config__", "param:embedding") if k not in arrays]
    if absent:
        raise ConfigError(f"checkpoint {path} has no {', '.join(absent)}")
    found = str(arrays["__format__"])
    if found != CHECKPOINT_FORMAT:
        raise ConfigError(f"checkpoint {path} has format {found!r}, but this version reads {CHECKPOINT_FORMAT!r}")
    try:
        config_dict = json.loads(str(arrays["__config__"]))
    except json.JSONDecodeError as err:
        raise ConfigError(f"checkpoint {path} has a __config__ that is not JSON: {err}") from err
    cfg = RunConfig.from_dict(config_dict, f"the __config__ of checkpoint {path}")
    stored = {k[len("param:") :]: a for k, a in arrays.items() if k.startswith("param:")}
    if stored["embedding"].ndim != 2:
        raise ConfigError(f"checkpoint {path}: embedding must be 2-D, got shape {stored['embedding'].shape}")
    params = init_model_params(cfg, stored["embedding"].shape[1], np.random.default_rng(0))
    named = dict(named_tensors(params))
    missing = sorted(named.keys() - stored.keys())
    unexpected = sorted(stored.keys() - named.keys())
    if missing or unexpected:
        raise ConfigError(
            f"checkpoint {path} does not match its config: missing parameters {missing}, "
            f"unexpected parameters {unexpected}"
        )
    for name, t in named.items():
        found = stored[name]
        if (found.dtype, found.shape) != (t.data.dtype, t.data.shape):
            built = f"{t.data.dtype} {t.data.shape}"
            raise ConfigError(f"checkpoint {path}: {name} is {found.dtype} {found.shape}, but its config builds {built}")
        t.data = found.copy()
    return params, cfg
