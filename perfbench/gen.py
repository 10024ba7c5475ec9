"""Seeded synthetic interaction logs shaped like the public benchmark datasets.

The shapes follow the dataset tables of Mamba4Rec (arXiv 2403.03900):
Amazon-Beauty (about 22k users, 12.1k items, mean length 8.9) and
MovieLens-1M (6,040 users, 3,416 items, mean length about 165). Nothing is
downloaded; the same seed always yields byte-identical TSV text.

Item choice mixes a popularity skew with per-item successor lists, so a
sequential model has structure to learn and its training loss falls. Every
user is at least ``min_len`` long and every item occurs at least ``min_len``
times, so the program's 5-core filter keeps the whole generated shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ZIPF = 0.8  # popularity exponent
P_NEXT = 0.6  # chance the next item follows the previous item's successors
N_NEXT = 4  # successor list length per item


@dataclass(frozen=True)
class Shape:
    name: str
    users: int
    items: int
    mean_len: float  # target mean interactions per user
    min_len: int = 5  # shortest user; also the minimum count per item


BEAUTY = Shape("beauty", users=22363, items=12101, mean_len=8.9)
ML1M = Shape("ml1m", users=6040, items=3416, mean_len=165.0, min_len=20)


@dataclass
class Log:
    users: np.ndarray  # [n] dense user index, 0-based, grouped and time-ordered
    items: np.ndarray  # [n] dense item index, 0-based
    timestamps: np.ndarray  # [n] int64, strictly increasing within a user
    ratings: np.ndarray  # [n] int64 in 1..5


def generate(shape: Shape, seed: int) -> Log:
    """Draw one log for ``shape``; deterministic for ``(shape, seed)``."""
    rng = np.random.default_rng([seed, shape.users, shape.items])
    extra_mean = shape.mean_len - shape.min_len
    lengths = shape.min_len + rng.geometric(1.0 / (extra_mean + 1.0), size=shape.users) - 1
    pop = 1.0 / np.arange(1, shape.items + 1) ** ZIPF
    pop /= pop.sum()
    pop_order = rng.permutation(shape.items)  # popularity rank -> item index
    successors = pop_order[_draw(rng, pop, (shape.items, N_NEXT))]

    # Users sorted longest first, so the users still drawing at step t are a prefix.
    by_len = np.argsort(-lengths, kind="stable")
    alive_at = np.searchsorted(-lengths[by_len], -np.arange(1, int(lengths.max()) + 1), side="right")
    grid = np.zeros((shape.users, alive_at.size), dtype=np.int32)
    cur = pop_order[_draw(rng, pop, shape.users)]
    grid[:, 0] = cur
    for t in range(1, alive_at.size):
        n = int(alive_at[t])
        prev = cur[:n]
        follow = rng.random(n) < P_NEXT
        nxt = successors[prev, rng.integers(0, N_NEXT, size=n)]
        cur = np.where(follow, nxt, pop_order[_draw(rng, pop, n)])
        grid[:n, t] = cur
    grid[by_len] = grid.copy()  # back to user order

    alive = np.arange(alive_at.size)[None, :] < lengths[:, None]
    users = np.repeat(np.arange(shape.users), lengths)
    items = grid[alive].astype(np.int64)
    _raise_item_floor(items, shape, rng)
    gaps = rng.integers(1, 86_400, size=items.size)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    clock = np.cumsum(gaps)
    base = 978_300_000 + rng.integers(0, 10**7, size=shape.users)
    timestamps = base[users] + clock - np.repeat(clock[starts], lengths)
    ratings = rng.integers(1, 6, size=items.size)
    return Log(users, items, timestamps, ratings)


def _draw(rng: np.random.Generator, p: np.ndarray, size) -> np.ndarray:
    """Indices drawn from the distribution ``p``."""
    return np.minimum(np.searchsorted(np.cumsum(p), rng.random(size), side="right"), p.size - 1)


def _raise_item_floor(items: np.ndarray, shape: Shape, rng: np.random.Generator) -> None:
    """Rewrite random occurrences of common items so every item occurs ``min_len`` times."""
    counts = np.bincount(items, minlength=shape.items)
    deficit = np.maximum(shape.min_len - counts, 0)
    need = np.repeat(np.arange(shape.items), deficit)
    if not need.size:
        return
    donors = np.flatnonzero(counts[items] >= 4 * shape.min_len)
    slots = rng.choice(donors, size=need.size, replace=False)
    items[slots] = rng.permutation(need)


def log_shape(log: Log) -> dict:
    """Realized size of a log, in the terms the dataset tables use."""
    n_users = int(log.users.max()) + 1 if log.users.size else 0
    return {
        "users": n_users,
        "items": int(np.unique(log.items).size),
        "interactions": int(log.items.size),
        "mean_len": log.items.size / n_users if n_users else 0.0,
    }


def tsv_text(log: Log) -> str:
    """The log in the program's ingest format: user_id, item_id, timestamp, rating."""
    lines = ["user_id\titem_id\ttimestamp\trating"]
    lines.extend(
        f"u{u}\ti{i}\t{t}\t{r}"
        for u, i, t, r in zip(log.users.tolist(), log.items.tolist(), log.timestamps.tolist(), log.ratings.tolist())
    )
    lines.append("")
    return "\n".join(lines)
