"""Ranking metrics over full-catalog scores, overall and per user-length group.

Every held-out item is ranked against all K real items; ties break by
ascending item index so results are reproducible. With one relevant item per
user the ideal DCG is 1, so per-user NDCG@k reduces to 1/log2(rank + 1).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .data import GROUP_NAMES
from .errors import ContractError

__all__ = [
    "rank_targets_batch",
    "hr_at_k",
    "ndcg_at_k",
    "mrr_at_k",
    "EvalReport",
    "grouped_report",
]

OVERALL = "Overall"
METRICS = ("HR", "NDCG", "MRR")


def rank_targets_batch(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Rank of each row's target in a [B, K] score matrix: 1 + items scored higher + ties of lower index."""
    logits = np.asarray(logits)
    targets = np.asarray(targets)
    rows = np.arange(logits.shape[0])
    s = logits[rows, targets][:, None]
    greater = (logits > s).sum(axis=1)
    tie_mask = logits == s
    col = np.arange(logits.shape[1])[None, :]
    tied_before = (tie_mask & (col < targets[:, None])).sum(axis=1)
    return (1 + greater + tied_before).astype(np.int64)


def hr_at_k(ranks, k: int = 10) -> float:
    """Fraction of users whose held-out item ranks within the top k."""
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        return 0.0
    return float((ranks <= k).mean())


def ndcg_at_k(ranks, k: int = 10) -> float:
    """Mean of 1/log2(rank + 1) for ranks within k, else 0 (binary relevance)."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        return 0.0
    gains = np.where(ranks <= k, 1.0 / np.log2(ranks + 1.0), 0.0)
    return float(gains.mean())


def mrr_at_k(ranks, k: int = 10) -> float:
    """Mean reciprocal rank, truncated at k."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        return 0.0
    recip = np.where(ranks <= k, 1.0 / ranks, 0.0)
    return float(recip.mean())


_METRIC_FNS = {"HR": hr_at_k, "NDCG": ndcg_at_k, "MRR": mrr_at_k}


@dataclass
class EvalReport:
    """Per-cutoff metric values for the overall population and each group."""

    values: dict = field(default_factory=dict)  # (metric, cutoff, group) -> float
    counts: dict = field(default_factory=dict)  # group -> n_users

    def get(self, metric: str, cutoff: int = 10, group: str = OVERALL) -> float:
        return self.values[(metric, cutoff, group)]

    def rows(self) -> list[dict]:
        out = []
        for (metric, cutoff, group), value in sorted(self.values.items()):
            out.append(
                {
                    "metric": metric,
                    "cutoff": cutoff,
                    "group": group,
                    "value": value,
                    "n_users": self.counts.get(group, 0),
                }
            )
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=["metric", "cutoff", "group", "value", "n_users"])
            writer.writeheader()
            for row in self.rows():
                writer.writerow({**row, "value": f"{row['value']:.10f}"})

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.rows(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def summary(self, cutoff: int = 10) -> str:
        parts = [f"{m}@{cutoff}={self.get(m, cutoff):.4f}" for m in METRICS]
        return " ".join(parts)


def grouped_report(ranks, groups, cutoffs=(10,)) -> EvalReport:
    """Metrics per Short/Medium/Long partition plus the overall population.

    ``groups`` gives one label per entry of ``ranks``; every user belongs to
    exactly one group, so the overall value is the count-weighted group mean.
    """
    ranks = np.asarray(ranks)
    groups = list(groups)
    if len(groups) != ranks.shape[0]:
        raise ContractError(f"{len(groups)} group labels for {ranks.shape[0]} ranks")
    report = EvalReport()
    members = {name: np.array([g == name for g in groups], dtype=bool) for name in GROUP_NAMES}
    report.counts[OVERALL] = int(ranks.shape[0])
    for name, mask in members.items():
        report.counts[name] = int(mask.sum())
    for cutoff in cutoffs:
        for metric, fn in _METRIC_FNS.items():
            report.values[(metric, cutoff, OVERALL)] = fn(ranks, cutoff)
            for name, mask in members.items():
                report.values[(metric, cutoff, name)] = fn(ranks[mask], cutoff)
    return report

