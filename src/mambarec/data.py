"""Data pipeline: TSV ingestion, iterative core filtering, leave-one-out
splitting, user-length grouping, and deterministic batching.

Split layout per user sequence s of length n (after filtering/truncation):
test predicts s[n-1] from s[:n-1], validation predicts s[n-2] from s[:n-2],
and training predicts s[n-3] from s[:n-3]. Users need n >= 4 for a training
row; n == 3 users keep their validation/test rows only.
"""

from __future__ import annotations

import csv
import json
import logging
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError

__all__ = [
    "InteractionLog",
    "SplitRow",
    "SplitDataset",
    "Batch",
    "GROUP_NAMES",
    "ingest",
    "filter_and_bound",
    "split_leave_one_out",
    "group_label",
    "make_batch",
    "batch_iter",
    "dataset_stats",
    "save_split",
    "load_split",
]

logger = logging.getLogger(__name__)

GROUP_NAMES = ("Short", "Medium", "Long")
SPLIT_FORMAT = "mambarec-split-v1"


@dataclass
class InteractionLog:
    """An interaction log as columns, one entry per interaction.

    Rows are grouped by user, users in first-seen order, and within a user
    ascending by ``(timestamp, rating)``; ties keep their input order. The
    ``user`` and ``item`` codes number their labels by first appearance in
    this row order, so every label occurs in some row.
    """

    user_ids: list[str]
    item_ids: list[str]
    user: np.ndarray  # [n] int64 index into user_ids, nondecreasing
    item: np.ndarray  # [n] int64 index into item_ids
    timestamp: np.ndarray  # [n] int64
    rating: np.ndarray  # [n] float64

    @classmethod
    def from_columns(cls, user_ids, user, item_ids, item, timestamp, rating) -> InteractionLog:
        """Group and sort rows whose ``user``/``item`` codes index ``user_ids``/``item_ids``."""
        user = np.asarray(user, dtype=np.int64)
        timestamp = np.asarray(timestamp, dtype=np.int64)
        rating = np.asarray(rating, dtype=np.float64)
        first_seen, _ = _first_seen(user, len(user_ids))
        keys = (rating, timestamp, first_seen)
        # lexsort is stable, so rows already in key order keep the identity order it would return
        order = np.arange(user.size) if _in_key_order(keys) else np.lexsort(keys)
        log = cls(list(user_ids), list(item_ids), user, np.asarray(item, dtype=np.int64), timestamp, rating)
        return log.take(order)

    def take(self, rows: np.ndarray) -> InteractionLog:
        """The log of the selected rows (an index or a boolean mask), with unused labels dropped.

        The selected rows must stay grouped by user and sorted as the class requires.
        """
        user, users = _first_seen(self.user[rows], len(self.user_ids))
        item, items = _first_seen(self.item[rows], len(self.item_ids))
        return InteractionLog(
            [self.user_ids[u] for u in users.tolist()],
            [self.item_ids[i] for i in items.tolist()],
            user,
            item,
            self.timestamp[rows],
            self.rating[rows],
        )

    def __len__(self) -> int:
        return self.user.size

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)


def _in_key_order(keys: tuple[np.ndarray, ...]) -> bool:
    """Whether rows are nondecreasing in the keys, the last key primary, as ``np.lexsort`` orders them."""
    ordered = np.ones(max(keys[0].size - 1, 0), dtype=bool)  # in order by the keys folded in so far
    for key in keys:  # compared, not differenced: a difference of int64 timestamps can overflow
        ordered = (key[1:] > key[:-1]) | ((key[1:] == key[:-1]) & ordered)
    return bool(ordered.all())


def _first_seen(codes: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Renumber ``codes`` (values in ``[0, size)``) 0, 1, 2, ... by first appearance.

    Returns the new codes and, for each new code, the old one.
    """
    first = np.full(size, codes.size, dtype=np.int64)
    np.minimum.at(first, codes, np.arange(codes.size))
    used = np.flatnonzero(first < codes.size)
    old = used[np.argsort(first[used])]
    new = np.empty(size, dtype=np.int64)
    new[old] = np.arange(old.size)
    return new[codes], old


@dataclass
class SplitRow:
    user: int  # dense user index (1-based)
    inputs: list[int]  # dense item ids, truncated to the most recent max_len
    target: int


@dataclass
class SplitDataset:
    user_ids: list[str]  # dense index u <-> user_ids[u - 1]; 0 reserved
    item_ids: list[str]  # dense index i <-> item_ids[i - 1]; 0 = padding
    max_len: int
    train: list[SplitRow]
    valid: list[SplitRow]
    test: list[SplitRow]
    groups: dict[int, str]  # dense user index -> Short/Medium/Long

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    def rows(self, which: str) -> list[SplitRow]:
        try:
            return {"train": self.train, "valid": self.valid, "test": self.test}[which]
        except KeyError:
            raise ContractError(f"unknown split {which!r}") from None


@dataclass
class Batch:
    items: np.ndarray  # [B, N] int64, left-padded with 0
    lengths: np.ndarray  # [B] true input lengths
    targets: np.ndarray  # [B] dense item ids
    users: np.ndarray  # [B] dense user indices


# ---------------------------------------------------------------------------
# ingestion


def ingest(path) -> InteractionLog:
    """Parse a UTF-8 TSV, with or without a byte-order mark, with header
    user_id, item_id, timestamp[, rating].

    Rows are streamed into typed column buffers, with no object per row.
    Timestamps must fit in int64 and ratings must not be NaN, so that the
    ``(timestamp, rating)`` order is defined.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            columns = _read_columns(path, csv.reader(fh, delimiter="\t"))
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not UTF-8 text ({err.reason})") from None
    return InteractionLog.from_columns(*columns)


def _read_columns(path, reader) -> tuple:
    """The arguments of ``InteractionLog.from_columns`` for every data row of ``reader``."""
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    user, item, timestamp, rating = array("q"), array("q"), array("q"), array("d")
    try:
        header = next(reader, None)
    except csv.Error as err:  # a header field longer than csv.field_size_limit()
        raise DataError(f"{path}:1: {err}") from None
    if header is None:
        return [], user, [], item, timestamp, rating
    col = {name: i for i, name in enumerate(header)}
    missing = {"user_id", "item_id", "timestamp"} - col.keys()
    if missing:
        raise DataError(f"{path}: header missing columns {sorted(missing)}")
    if twice := [name for name in ("user_id", "item_id", "timestamp", "rating") if header.count(name) > 1]:
        raise DataError(f"{path}:1: header names column {twice[0]!r} twice")
    u_col, i_col, t_col, r_col = col["user_id"], col["item_id"], col["timestamp"], col.get("rating", -1)
    width = max(u_col, i_col, t_col) + 1
    if reader.line_num > 1:  # a quoted field in the header ran on past its line
        raise DataError(f"{path}:1: quoted field does not close on its line")
    line = 1  # the first line of the record being read
    try:
        for row in reader:
            line += 1
            if reader.line_num > line:  # a quoted field ran on past its line
                break
            if not row:
                continue
            if len(row) < width or not row[u_col] or not row[i_col] or not row[t_col]:
                raise DataError(f"{path}:{line}: incomplete row")
            ts_raw = row[t_col]
            try:
                timestamp.append(int(ts_raw))
            except ValueError:
                raise DataError(f"{path}:{line}: bad timestamp {ts_raw!r}") from None
            except OverflowError:
                raise DataError(f"{path}:{line}: timestamp {ts_raw!r} outside int64") from None
            r = 0.0
            if 0 <= r_col < len(row) and row[r_col]:
                try:
                    r = float(row[r_col])
                except ValueError:
                    raise DataError(f"{path}:{line}: bad rating {row[r_col]!r}") from None
                if r != r:
                    raise DataError(f"{path}:{line}: NaN rating")
            rating.append(r)
            user.append(user_index.setdefault(row[u_col], len(user_index)))
            item.append(item_index.setdefault(row[i_col], len(item_index)))
    except csv.Error as err:  # a field longer than csv.field_size_limit(), in the record after the last one read
        line += 1
        if reader.line_num == line:
            raise DataError(f"{path}:{line}: {err}") from None
    if reader.line_num > line:
        raise DataError(f"{path}:{line}: quoted field does not close on its line")
    return list(user_index), user, list(item_index), item, timestamp, rating


# ---------------------------------------------------------------------------
# filtering and splitting


def filter_and_bound(log: InteractionLog, min_len: int = 5, max_len_cap: int | None = None) -> InteractionLog:
    """Iterate {truncate to cap, drop rare items, drop short users} to a fixpoint.

    Dropping an item shortens its users, which can push them below the
    threshold, so a single pass is not enough; the loop runs until nothing
    changes, which makes the whole operation idempotent.
    """
    keep = np.ones(len(log), dtype=bool)
    while True:
        changed = False
        if max_len_cap:
            rows = np.flatnonzero(keep)
            users = log.user[rows]
            ends = np.cumsum(np.bincount(users, minlength=log.n_users))[users]
            old = rows[ends - np.arange(rows.size) > max_len_cap]  # rank from the user's end
            if old.size:
                keep[old] = False
                changed = True
        counts = np.bincount(log.item[keep], minlength=log.n_items)
        rare = keep & (counts[log.item] < min_len)
        if rare.any():
            keep &= ~rare
            changed = True
        lengths = np.bincount(log.user[keep], minlength=log.n_users)
        short = keep & (lengths[log.user] < min_len)
        if short.any():
            keep &= ~short
            changed = True
        if not changed:
            return log.take(keep)


def group_label(train_visible: int) -> str:
    """Short (0, 5], Medium (5, 20], Long (20, inf) by train-visible count."""
    if train_visible <= 5:
        return "Short"
    if train_visible <= 20:
        return "Medium"
    return "Long"


def split_leave_one_out(log: InteractionLog, max_len: int) -> SplitDataset:
    """Build the three splits and the id maps.

    Dense ids are assigned in first-appearance order over the time-sorted
    stream, so the artifact is stable for identical input. Users shorter than
    3 are dropped (the split needs all three roles); users of length 3 have an
    empty training prefix and contribute validation/test rows only.
    """
    lengths = np.bincount(log.user, minlength=log.n_users)
    dropped = int((lengths < 3).sum())
    log = log.take((lengths >= 3)[log.user])
    ids = (log.item + 1).tolist()  # the log numbers items by first appearance
    train: list[SplitRow] = []
    valid: list[SplitRow] = []
    test: list[SplitRow] = []
    groups: dict[int, str] = {}
    end = 0
    for u, n in enumerate(lengths[lengths >= 3].tolist(), start=1):
        start, end = end, end + n
        groups[u] = group_label(n - 2)
        test.append(SplitRow(u, ids[max(start, end - 1 - max_len) : end - 1], ids[end - 1]))
        valid.append(SplitRow(u, ids[max(start, end - 2 - max_len) : end - 2], ids[end - 2]))
        if n >= 4:
            train.append(SplitRow(u, ids[max(start, end - 3 - max_len) : end - 3], ids[end - 3]))
    if dropped:
        logger.warning("dropped %d users shorter than 3 interactions", dropped)
    return SplitDataset(log.user_ids, log.item_ids, max_len, train, valid, test, groups)


# ---------------------------------------------------------------------------
# batching


def make_batch(rows: list[SplitRow], max_len: int) -> Batch:
    """Left-pad a row group into fixed-width id matrices."""
    if not rows:
        raise ContractError("cannot build an empty batch")
    bsz = len(rows)
    items = np.zeros((bsz, max_len), dtype=np.int64)
    lengths = np.zeros(bsz, dtype=np.int64)
    targets = np.zeros(bsz, dtype=np.int64)
    users = np.zeros(bsz, dtype=np.int64)
    for i, row in enumerate(rows):
        seq = row.inputs[-max_len:]
        if not seq:
            raise ContractError(f"user {row.user}: empty input sequence in batch")
        items[i, max_len - len(seq) :] = seq
        lengths[i] = len(seq)
        targets[i] = row.target
        users[i] = row.user
    return Batch(items, lengths, targets, users)


def batch_iter(split: SplitDataset, which: str, batch_size: int, shuffle_seed: int | None = None):
    """Yield batches in deterministic order; the final partial batch is kept."""
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    rows = split.rows(which)
    order = np.arange(len(rows))
    if shuffle_seed is not None:
        np.random.default_rng(shuffle_seed).shuffle(order)
    for start in range(0, len(rows), batch_size):
        chunk = [rows[i] for i in order[start : start + batch_size]]
        yield make_batch(chunk, split.max_len)


# ---------------------------------------------------------------------------
# stats and artifact io


def dataset_stats(log: InteractionLog) -> dict:
    n_users, n_items, n_inter = log.n_users, log.n_items, len(log)
    sparsity = 1.0 - n_inter / (n_users * n_items) if n_users and n_items else 0.0
    return {
        "users": n_users,
        "items": n_items,
        "interactions": n_inter,
        "sparsity": sparsity,
        "avg_length": n_inter / n_users if n_users else 0.0,
    }


def save_split(split: SplitDataset, path) -> None:
    payload = {
        "format": SPLIT_FORMAT,
        "max_len": split.max_len,
        "user_ids": split.user_ids,
        "item_ids": split.item_ids,
        "groups": {str(u): g for u, g in split.groups.items()},
        "splits": {
            which: [[row.user, row.inputs, row.target] for row in split.rows(which)]
            for which in ("train", "valid", "test")
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _row_fault(row: SplitRow, n_users: int, n_items: int, groups: dict) -> str | None:
    """Why a loaded split row cannot be batched, ranked or grouped; None when it can."""
    if type(row.user) is not int or not 1 <= row.user <= n_users:
        return f"user {row.user!r} is not an int in [1, {n_users}]"
    if groups.get(row.user) not in GROUP_NAMES:
        return f"user {row.user!r} has no Short/Medium/Long group"
    if not isinstance(row.inputs, list) or not row.inputs:
        return "inputs must be a non-empty list"
    bad = [i for i in (*row.inputs, row.target) if type(i) is not int or not 1 <= i <= n_items]
    return f"item id {bad[0]!r} is not an int in [1, {n_items}]" if bad else None


def load_split(path) -> SplitDataset:
    """Read a ``save_split`` artifact; a malformed one raises ``DataError`` naming the path and first fault."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise DataError(f"{path}: not a valid split artifact: {err}") from None
    if not isinstance(payload, dict) or payload.get("format") != SPLIT_FORMAT:
        raise DataError(f"{path}: not a {SPLIT_FORMAT} artifact")
    for key, kind in (("max_len", int), ("user_ids", list), ("item_ids", list), ("groups", dict), ("splits", dict)):
        if type(payload.get(key)) is not kind:
            raise DataError(f"{path}: split artifact needs {key!r} as a JSON {kind.__name__}")
    if payload["max_len"] < 1:
        raise DataError(f"{path}: max_len must be >= 1, got {payload['max_len']}")
    try:
        groups = {int(u): g for u, g in payload["groups"].items()}
        splits = {which: [SplitRow(*row) for row in payload["splits"][which]] for which in ("train", "valid", "test")}
    except (KeyError, TypeError, ValueError) as err:
        raise DataError(f"{path}: not a valid split artifact: {err!r}") from None
    n_users, n_items = len(payload["user_ids"]), len(payload["item_ids"])
    for which, rows in splits.items():
        for k, row in enumerate(rows):
            if fault := _row_fault(row, n_users, n_items, groups):
                raise DataError(f"{path}: {which} row {k} {[row.user, row.inputs, row.target]!r}: {fault}")
    return SplitDataset(payload["user_ids"], payload["item_ids"], payload["max_len"], **splits, groups=groups)
