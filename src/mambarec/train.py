"""Adam optimizer and the training loop with early stopping.

Three independently seeded RNG streams drive parameter init, batch shuffling,
and dropout masks, so toggling any one concern leaves the others untouched.
Evaluation during training runs on the live parameters without a tape, which
cannot mutate them.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape
from .config import RunConfig
from .data import SplitDataset, batch_iter
from .errors import ConfigError, DataError, NumericError
from .metrics import EvalReport, grouped_report, rank_targets_batch
from .model import ModelParams, batch_loss, init_model_params, layer_options, named_tensors, score

__all__ = ["Adam", "TrainResult", "train_model", "evaluate_split", "seeded_rngs"]

logger = logging.getLogger(__name__)


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adam with bias correction: theta -= lr * m_hat / (sqrt(v_hat) + EPS)."""

    def __init__(self, named_params, lr=0.001, grad_clip=0.0):
        self.params = list(named_params)
        if not self.params:
            raise ConfigError("optimizer needs at least one parameter")
        self.lr = lr
        self.grad_clip = grad_clip
        self.step_count = 0
        self.m = [np.zeros_like(t.data) for _, t in self.params]
        self.v = [np.zeros_like(t.data) for _, t in self.params]

    def step(self) -> None:
        """Apply one update from the accumulated grads; missing grads are zero."""
        for name, t in self.params:
            if t.grad is not None and not np.isfinite(t.grad).all():
                raise NumericError(f"non-finite gradient in parameter {name}")
        if self.grad_clip > 0.0:
            total = 0.0
            for _, t in self.params:
                if t.grad is not None:
                    total += float((t.grad.astype(np.float64) ** 2).sum())
            norm = total**0.5
            if norm > self.grad_clip:
                scale = self.grad_clip / norm
                for _, t in self.params:
                    if t.grad is not None:
                        t.grad *= scale
        self.step_count += 1
        c1 = 1.0 - BETA1**self.step_count
        c2 = 1.0 - BETA2**self.step_count
        for i, (_, t) in enumerate(self.params):
            g = t.grad
            if g is None:
                g = 0.0
            self.m[i] = BETA1 * self.m[i] + (1.0 - BETA1) * g
            self.v[i] = BETA2 * self.v[i] + (1.0 - BETA2) * np.square(g)
            m_hat = self.m[i] / c1
            v_hat = self.v[i] / c2
            t.data -= (self.lr * m_hat / (np.sqrt(v_hat) + EPS)).astype(t.dtype, copy=False)

    def zero_grad(self) -> None:
        for _, t in self.params:
            t.grad = None


@dataclass
class TrainResult:
    params: ModelParams
    history: list[dict] = field(default_factory=list)  # per-epoch log rows
    best_metric: float = 0.0
    best_epoch: int = 0
    epochs_run: int = 0

    def write_history_csv(self, path) -> None:
        fields = ["epoch", "train_loss", "valid_hr10", "valid_ndcg10", "valid_mrr10"]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            for row in self.history:
                writer.writerow({k: row.get(k, "") for k in fields})


def seeded_rngs(seed: int) -> dict[str, np.random.Generator]:
    """Independent streams for init, shuffling, and dropout."""
    return {
        "init": np.random.default_rng([seed, 0]),
        "shuffle": np.random.default_rng([seed, 1]),
        "dropout": np.random.default_rng([seed, 2]),
    }


def evaluate_split(
    params: ModelParams,
    cfg: RunConfig,
    split: SplitDataset,
    which: str = "test",
    cutoffs=(10,),
) -> EvalReport:
    """Rank every held-out item over the full catalog and aggregate by group.

    Non-finite scores raise ``NumericError`` naming the split and the first such user. A split
    with no rows is a ``DataError``: its zero metrics would read as a measured result.
    """
    if split.n_items != params.n_items:
        raise DataError(f"split has {split.n_items} items but the model scores {params.n_items}")
    if not split.rows(which):
        raise DataError(f"the {which} split has no rows to evaluate")
    opts = layer_options(cfg)
    ranks: list[np.ndarray] = []
    groups: list[str] = []
    for batch in batch_iter(split, which, cfg.batch_size, shuffle_seed=None):
        logits = score(params, batch, opts).data
        bad = ~np.isfinite(logits).all(axis=1)  # a NaN outranks no item, so its target would rank first
        if bad.any():
            user = split.user_ids[int(batch.users[np.argmax(bad)]) - 1]
            raise NumericError(f"non-finite scores in the {which} split, first for user {user}")
        ranks.append(rank_targets_batch(logits, batch.targets - 1))
        groups.extend(split.groups[int(u)] for u in batch.users)
    return grouped_report(np.concatenate(ranks), groups, cutoffs=cutoffs)


def _snapshot(params: ModelParams) -> list[np.ndarray]:
    return [t.data.copy() for _, t in named_tensors(params)]


def _restore(params: ModelParams, snap: list[np.ndarray]) -> None:
    for (_, t), data in zip(named_tensors(params), snap):
        t.data = data.copy()


def train_model(cfg: RunConfig, split: SplitDataset, params: ModelParams | None = None) -> TrainResult:
    """Train on the split's training rows, keeping the best-by-valid-NDCG@10 state.

    Stops early at the ``cfg.patience + 1``-th evaluation in a row without
    improvement, as RecBole does; with 0 epochs the freshly initialized
    parameters come back unchanged. Training epochs on a split with no
    training rows is a ``DataError``: its zero loss would read as a perfect fit.
    """
    if cfg.epochs > 0 and not split.train:
        raise DataError(f"split has no training rows for {cfg.epochs} epoch(s): a user needs >= 4 interactions for one")
    rngs = seeded_rngs(cfg.seed)
    if params is None:
        params = init_model_params(cfg, split.n_items, rngs["init"])
    named = list(named_tensors(params))
    opt = Adam(named, lr=cfg.lr, grad_clip=cfg.grad_clip)
    opts = layer_options(cfg)
    result = TrainResult(params=params)
    best = _snapshot(params)
    stale = 0
    for epoch in range(1, cfg.epochs + 1):
        shuffle_seed = int(rngs["shuffle"].integers(0, 2**31 - 1))
        losses = []
        for step, batch in enumerate(batch_iter(split, "train", cfg.batch_size, shuffle_seed)):
            with Tape() as tape:
                loss = batch_loss(params, batch, opts, rng=rngs["dropout"])
            if not np.isfinite(loss.data):
                raise NumericError(f"loss became non-finite at epoch {epoch}, batch {step}, lr {cfg.lr}")
            opt.zero_grad()
            tape.backward(loss)
            opt.step()
            losses.append(float(loss.data))
        row: dict = {"epoch": epoch, "train_loss": sum(losses) / max(len(losses), 1)}
        if epoch % cfg.eval_every == 0 and split.valid:
            report = evaluate_split(params, cfg, split, "valid")
            row["valid_hr10"] = report.get("HR")
            row["valid_ndcg10"] = report.get("NDCG")
            row["valid_mrr10"] = report.get("MRR")
            if report.get("NDCG") > result.best_metric:
                result.best_metric = report.get("NDCG")
                result.best_epoch = epoch
                best = _snapshot(params)
                stale = 0
            else:
                stale += 1
        result.history.append(row)
        result.epochs_run = epoch
        logger.info(
            "epoch %d loss %.6f%s",
            epoch,
            row["train_loss"],
            f" valid NDCG@10 {row['valid_ndcg10']:.4f}" if "valid_ndcg10" in row else "",
        )
        if stale > cfg.patience:
            logger.info("early stop at epoch %d (best epoch %d)", epoch, result.best_epoch)
            break
    if result.best_epoch:
        _restore(params, best)
    return result
