"""Reference oracle for the data pipeline: one Python object per interaction.

This is the straightforward loop form of ``mambarec.data``'s ingest, core
filter and leave-one-out split. The columnar pipeline must produce the same
``SplitDataset`` as these functions on every log. ``log_of`` and
``sequences_of`` convert between the two representations, and ``write_tsv``
serializes a log back to the ingestion format. ``rank_target`` is the scalar
ranking oracle, and ``popularity_ranks`` the train-frequency baseline.
``flip_row_index`` is the one-row form of ``mambarec.layers.flip_index``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from mambarec.data import InteractionLog, SplitDataset, SplitRow, group_label
from mambarec.errors import ContractError, DataError
from mambarec.metrics import rank_targets_batch


@dataclass
class Interaction:
    item_id: str
    timestamp: int
    rating: float = 0.0


@dataclass
class InteractionSequence:
    """One user's interactions, sorted ascending by (timestamp, rating)."""

    user_id: str
    items: list[Interaction] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.items)


def log_of(sequences: list[InteractionSequence]) -> InteractionLog:
    """The columnar log holding the same interactions, built by the production constructor."""
    user_ids = [s.user_id for s in sequences]
    item_index: dict[str, int] = {}
    rows = [
        (u, item_index.setdefault(it.item_id, len(item_index)), it.timestamp, it.rating)
        for u, s in enumerate(sequences)
        for it in s.items
    ]
    user, item, timestamp, rating = zip(*rows) if rows else ((), (), (), ())
    return InteractionLog.from_columns(user_ids, user, list(item_index), item, timestamp, rating)


def sequences_of(log: InteractionLog) -> list[InteractionSequence]:
    """One sequence per user of ``log``, in its row order, with Python scalars."""
    out = [InteractionSequence(user_id) for user_id in log.user_ids]
    for u, i, t, r in zip(log.user.tolist(), log.item.tolist(), log.timestamp.tolist(), log.rating.tolist()):
        out[u].items.append(Interaction(log.item_ids[i], t, r))
    return out


def write_tsv(log: InteractionLog, path) -> None:
    """Serialize a log back to the ingestion format (round-trip support)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(["user_id", "item_id", "timestamp", "rating"])
        writer.writerows(
            zip(
                [log.user_ids[u] for u in log.user.tolist()],
                [log.item_ids[i] for i in log.item.tolist()],
                log.timestamp.tolist(),
                log.rating.tolist(),
            )
        )


def _records(reader):
    """The reader's records, then the ``csv.Error`` that stopped it, if one did."""
    try:
        yield from reader
    except csv.Error as err:
        yield err


def ingest(path) -> list[InteractionSequence]:
    """Parse a TSV with header user_id, item_id, timestamp[, rating]."""
    sequences: dict[str, InteractionSequence] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        lines = list(fh)  # with their line breaks, which a quoted field may hold
        reader = csv.DictReader(lines, delimiter="\t")
        try:
            if reader.fieldnames is None:
                return []
        except csv.Error as err:
            raise DataError(f"{path}:1: {err}") from None
        required = {"user_id", "item_id", "timestamp"}
        missing = required - set(reader.fieldnames)
        if missing:
            raise DataError(f"{path}: header missing columns {sorted(missing)}")
        for name in ("user_id", "item_id", "timestamp", "rating"):
            if reader.fieldnames.count(name) > 1:  # DictReader would keep the last silently
                raise DataError(f"{path}:1: header names column {name!r} twice")
        if reader.line_num > 1:
            raise DataError(f"{path}:1: quoted field does not close on its line")
        has_rating = "rating" in reader.fieldnames
        end = reader.line_num  # the last line of the records read so far
        for row in _records(reader):
            start = end + 1
            while lines[start - 1] in ("\n", "\r\n", "\r"):  # blank lines, which the reader skips
                start += 1
            line = end = reader.reader.line_num  # DictReader's own count stops short of a record that fails
            if line > start:
                raise DataError(f"{path}:{start}: quoted field does not close on its line")
            if isinstance(row, csv.Error):
                raise DataError(f"{path}:{line}: {row}")
            user = row.get("user_id")
            item = row.get("item_id")
            ts_raw = row.get("timestamp")
            if not user or not item or ts_raw in (None, ""):
                raise DataError(f"{path}:{line}: incomplete row")
            try:
                ts = int(ts_raw)
            except ValueError:
                raise DataError(f"{path}:{line}: bad timestamp {ts_raw!r}") from None
            rating = 0.0
            if has_rating and row.get("rating") not in (None, ""):
                try:
                    rating = float(row["rating"])
                except ValueError:
                    raise DataError(f"{path}:{line}: bad rating {row['rating']!r}") from None
            seq = sequences.get(user)
            if seq is None:
                seq = sequences[user] = InteractionSequence(user)
            seq.items.append(Interaction(item, ts, rating))
    out = list(sequences.values())
    for seq in out:
        seq.items.sort(key=lambda it: (it.timestamp, it.rating))
    return out


def filter_and_bound(
    sequences: list[InteractionSequence],
    min_len: int = 5,
    max_len_cap: int | None = None,
) -> list[InteractionSequence]:
    """Iterate {truncate to cap, drop rare items, drop short users} to a fixpoint."""
    current = [InteractionSequence(s.user_id, list(s.items)) for s in sequences]
    while True:
        changed = False
        if max_len_cap:
            for seq in current:
                if len(seq.items) > max_len_cap:
                    seq.items = seq.items[-max_len_cap:]
                    changed = True
        counts: dict[str, int] = {}
        for seq in current:
            for it in seq.items:
                counts[it.item_id] = counts.get(it.item_id, 0) + 1
        rare = {item for item, c in counts.items() if c < min_len}
        if rare:
            for seq in current:
                kept = [it for it in seq.items if it.item_id not in rare]
                if len(kept) != len(seq.items):
                    seq.items = kept
                    changed = True
        survivors = [seq for seq in current if len(seq.items) >= min_len]
        if len(survivors) != len(current):
            changed = True
        current = survivors
        if not changed:
            return current


def split_leave_one_out(sequences: list[InteractionSequence], max_len: int) -> SplitDataset:
    """Leave-one-out split with dense ids in first-appearance order."""
    user_ids: list[str] = []
    item_ids: list[str] = []
    item_index: dict[str, int] = {}
    train: list[SplitRow] = []
    valid: list[SplitRow] = []
    test: list[SplitRow] = []
    groups: dict[int, str] = {}
    for seq in sequences:
        n = len(seq.items)
        if n < 3:
            continue
        user_ids.append(seq.user_id)
        u = len(user_ids)
        ids = []
        for it in seq.items:
            idx = item_index.get(it.item_id)
            if idx is None:
                item_ids.append(it.item_id)
                idx = item_index[it.item_id] = len(item_ids)
            ids.append(idx)
        groups[u] = group_label(n - 2)
        test.append(SplitRow(u, ids[max(0, n - 1 - max_len) : n - 1], ids[n - 1]))
        valid.append(SplitRow(u, ids[max(0, n - 2 - max_len) : n - 2], ids[n - 2]))
        if n >= 4:
            train.append(SplitRow(u, ids[max(0, n - 3 - max_len) : n - 3], ids[n - 3]))
    return SplitDataset(user_ids, item_ids, max_len, train, valid, test, groups)


def rank_target(logits: np.ndarray, target: int) -> int:
    """1-based rank of ``target`` in a score vector, index tie-break."""
    logits = np.asarray(logits)
    if logits.ndim != 1:
        raise ContractError(f"rank_target expects a 1-d score vector, got {logits.shape}")
    if not 0 <= target < logits.shape[0]:
        raise IndexError(f"target {target} outside [0, {logits.shape[0]})")
    s = logits[target]
    greater = int((logits > s).sum())
    tied_before = int((logits[:target] == s).sum())
    return 1 + greater + tied_before


def popularity_ranks(split: SplitDataset, which: str = "test") -> np.ndarray:
    """Ranks of held-out items under a train-frequency popularity ordering.

    Scores every item by its occurrence count over the training rows (inputs
    plus targets); ties break by ascending item index like the model ranking.
    """
    counts = np.zeros(split.n_items, dtype=np.float64)
    for row in split.train:
        for item in row.inputs:
            counts[item - 1] += 1
        counts[row.target - 1] += 1
    targets = [row.target - 1 for row in split.rows(which)]
    return rank_targets_batch(np.tile(counts, (len(targets), 1)), np.asarray(targets))


def flip_row_index(true_len: int, keep_last: int, width: int) -> np.ndarray:
    """Source-index map for one left-padded row of ``width`` positions.

    The row's real items occupy the last ``true_len`` columns in chronological
    order. The first ``max(true_len - keep_last, 0)`` of them are reversed; the
    final ``keep_last`` real items and all padding stay put.
    """
    idx = np.arange(width)
    n = max(true_len - keep_last, 0)
    if n > 1:
        start = width - true_len
        seg = slice(start, start + n)
        idx[seg] = idx[seg][::-1]
    return idx
