"""Ingestion, filtering, leave-one-out splitting, batching."""

import csv

import numpy as np
import pytest
import reference_data
from reference_data import Interaction, InteractionSequence, log_of, sequences_of, write_tsv

from mambarec.data import (
    batch_iter,
    dataset_stats,
    filter_and_bound,
    group_label,
    ingest,
    load_split,
    make_batch,
    save_split,
    split_leave_one_out,
)
from mambarec.errors import ContractError, DataError
from perfbench import gen


def _write(tmp_path, text, name="data.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _seq(user, items, t0=0):
    return InteractionSequence(user, [Interaction(i, t0 + k) for k, i in enumerate(items)])


# ---------------------------------------------------------------------------
# ingest


def test_ingest_single_user(tmp_path):
    path = _write(tmp_path, "user_id\titem_id\ttimestamp\nu1\ta\t3\nu1\tb\t1\nu1\tc\t2\n")
    seqs = sequences_of(ingest(path))
    assert len(seqs) == 1
    assert [it.item_id for it in seqs[0].items] == ["b", "c", "a"]  # sorted by time


def test_ingest_rating_breaks_timestamp_ties(tmp_path):
    path = _write(
        tmp_path,
        "user_id\titem_id\ttimestamp\trating\nu1\thigh\t5\t5\nu1\tlow\t5\t2\n",
    )
    seqs = sequences_of(ingest(path))
    assert [it.item_id for it in seqs[0].items] == ["low", "high"]  # ascending rating


def test_ingest_empty_file(tmp_path):
    path = _write(tmp_path, "")
    assert sequences_of(ingest(path)) == []


def test_ingest_header_only(tmp_path):
    path = _write(tmp_path, "user_id\titem_id\ttimestamp\n")
    assert sequences_of(ingest(path)) == []


def test_ingest_reports_bad_line(tmp_path):
    path = _write(tmp_path, "user_id\titem_id\ttimestamp\nu1\ta\tnot_a_number\n")
    with pytest.raises(DataError, match=":2"):
        ingest(path)


@pytest.mark.parametrize(
    "row, message",
    [("u1\tb", ":3: incomplete row"), ("\tb\t2\t1", ":3: incomplete row"), ("u1\tb\t2\tgood", ":3: bad rating")],
)
def test_ingest_reports_each_bad_row_kind(tmp_path, row, message):
    path = _write(tmp_path, f"user_id\titem_id\ttimestamp\trating\nu1\ta\t1\t\n{row}\n")
    with pytest.raises(DataError, match=message):
        ingest(path)


def test_ingest_missing_columns(tmp_path):
    path = _write(tmp_path, "user_id\titem\n")
    with pytest.raises(DataError, match="header"):
        ingest(path)


@pytest.mark.parametrize("column", ["user_id", "item_id", "timestamp", "rating"])
def test_ingest_rejects_a_header_naming_a_read_column_twice(tmp_path, column):
    path = _write(tmp_path, f"user_id\titem_id\ttimestamp\trating\t{column}\nu0\ti0\t0\t1\t2\n")
    for read in ingest, reference_data.ingest:
        with pytest.raises(DataError, match=f"data.tsv:1: header names column '{column}' twice"):
            read(path)


def test_ingest_reads_a_header_naming_an_unread_column_twice(tmp_path):
    path = _write(tmp_path, "user_id\tnote\titem_id\ttimestamp\tnote\nu0\ta\ti0\t0\tb\n")
    assert ingest(path).item_ids == ["i0"]


def test_ingest_roundtrip_through_tsv(tmp_path):
    seqs = [_seq("u1", ["a", "b", "c"]), _seq("u2", ["b", "a"])]
    out = tmp_path / "echo.tsv"
    write_tsv(log_of(seqs), out)
    again = sequences_of(ingest(out))
    assert [(s.user_id, [it.item_id for it in s.items]) for s in again] == [
        ("u1", ["a", "b", "c"]),
        ("u2", ["b", "a"]),
    ]


def test_ingest_quoted_field_holds_a_tab(tmp_path):
    path = _write(tmp_path, 'user_id\titem_id\ttimestamp\nu1\t"a\tb"\t2\nu1\tc\t1\n')
    seqs = sequences_of(ingest(path))
    assert [it.item_id for it in seqs[0].items] == ["c", "a\tb"]
    out = tmp_path / "echo.tsv"
    write_tsv(ingest(path), out)
    assert sequences_of(ingest(out)) == seqs


@pytest.mark.parametrize("text, line", [
    ('u0\ti0\t0\n\n\nu1\t"i1\t1\nu2\ti2\t2\nu3\ti3"\t3\nu4\ti4\t4\n', 5),  # closes on line 7
    ('u0\ti0\t0\r\n\r\nu1\t"i1\t1\r\nu2\ti2"\t2\r\n', 4),
    ('u0\ti0\t0\nu1\t"i1\t1\nu2\ti2\t2\n', 3),  # never closes
    ('u1\t"a\nb"\t1\n', 2),
    pytest.param('u1\t"i1\t1\n' + "u2\ti2\t2\n" * 20_000, 2, id="never-closes-past-the-field-size-limit"),
])
def test_ingest_rejects_a_record_over_more_than_one_line(tmp_path, text, line):
    path = _write(tmp_path, "user_id\titem_id\ttimestamp\n" + text)
    for read in ingest, reference_data.ingest:
        with pytest.raises(DataError, match=f"data.tsv:{line}: quoted field does not close on its line"):
            read(path)


def test_ingest_rejects_a_header_over_more_than_one_line(tmp_path):
    path = _write(tmp_path, 'user_id\t"note\nmore"\titem_id\ttimestamp\nu0\ti0\t0\n')
    for read in ingest, reference_data.ingest:
        with pytest.raises(DataError, match="data.tsv:1: quoted field does not close on its line"):
            read(path)


@pytest.mark.parametrize("text, line", [
    ("user_id\titem_id\ttimestamp\nu0\ti0\t0\nu1\t" + "x" * 200_000 + "\t1\nu2\ti2\t2\n", 3),
    ("user_id\t" + "x" * 200_000 + "\titem_id\ttimestamp\nu0\ti0\t0\n", 1),
], ids=["row", "header"])
def test_ingest_names_the_line_of_a_field_over_the_size_limit(tmp_path, text, line):
    path = _write(tmp_path, text)
    message = rf"data.tsv:{line}: field larger than field limit \({csv.field_size_limit()}\)"
    for read in ingest, reference_data.ingest:
        with pytest.raises(DataError, match=message):
            read(path)


def test_ingest_skips_blank_lines_and_names_the_row_line(tmp_path):
    path = _write(tmp_path, "user_id\titem_id\ttimestamp\n\nu1\ta\t1\n\n\nu1\tb\t2\n\n")
    assert [it.item_id for it in sequences_of(ingest(path))[0].items] == ["a", "b"]
    bad = _write(tmp_path, "user_id\titem_id\ttimestamp\nu1\ta\t1\n\n\nu1\tb\tx\n", name="bad.tsv")
    with pytest.raises(DataError, match=":5: bad timestamp"):
        ingest(bad)


def test_ingest_keeps_file_order_on_full_ties(tmp_path):
    rows = "".join(f"u1\ti{k}\t7\t3\n" for k in (4, 1, 3, 0, 2))
    path = _write(tmp_path, "user_id\titem_id\ttimestamp\trating\n" + rows)
    assert [it.item_id for it in sequences_of(ingest(path))[0].items] == ["i4", "i1", "i3", "i0", "i2"]


def test_ingest_of_rows_already_in_order_skips_the_sort(tmp_path, monkeypatch):
    # a generated log lists each user's rows together, in time order
    path = _write(tmp_path, gen.tsv_text(gen.generate(gen.Shape("small", users=200, items=80, mean_len=10.0), 3)))

    def no_sort(*args, **kwargs):
        raise AssertionError("np.lexsort ran on rows already in order")

    monkeypatch.setattr(np, "lexsort", no_sort)
    got = sequences_of(ingest(path))
    assert len(got) == 200
    assert got == reference_data.ingest(path)


@pytest.mark.parametrize("ts", [str(2**63), str(-(2**63) - 1)])
def test_ingest_rejects_timestamp_outside_int64(tmp_path, ts):
    path = _write(tmp_path, f"user_id\titem_id\ttimestamp\nu1\ta\t1\nu1\tb\t{ts}\n")
    with pytest.raises(DataError, match=":3: timestamp .* outside int64"):
        ingest(path)


def test_ingest_accepts_int64_extremes(tmp_path):
    path = _write(tmp_path, f"user_id\titem_id\ttimestamp\nu1\ta\t{2**63 - 1}\nu1\tb\t{-(2**63)}\n")
    assert [it.timestamp for it in sequences_of(ingest(path))[0].items] == [-(2**63), 2**63 - 1]


def test_ingest_rejects_nan_rating(tmp_path):
    path = _write(tmp_path, "user_id\titem_id\ttimestamp\trating\nu1\ta\t1\tnan\n")
    with pytest.raises(DataError, match=":2: NaN rating"):
        ingest(path)


def test_ingest_non_utf8_is_data_error(tmp_path):
    path = tmp_path / "latin.tsv"
    path.write_bytes(b"user_id\titem_id\ttimestamp\nu1\t\xff\t1\n")
    with pytest.raises(DataError, match="latin.tsv: not UTF-8"):
        ingest(path)


def test_ingest_reads_past_a_utf8_byte_order_mark(tmp_path):
    text = "user_id\titem_id\ttimestamp\trating\nu1\ta\t2\t1.0\nu2\tb\t1\t3.5\nu1\tc\t1\t2.0\n"
    plain = ingest(_write(tmp_path, text))
    marked = ingest(_write(tmp_path, "\ufeff" + text, name="bom.tsv"))
    assert (tmp_path / "bom.tsv").read_bytes().startswith(b"\xef\xbb\xbfuser_id")
    assert (marked.user_ids, marked.item_ids) == (plain.user_ids, plain.item_ids) == (["u1", "u2"], ["c", "a", "b"])
    for column in ("user", "item", "timestamp", "rating"):
        np.testing.assert_array_equal(getattr(marked, column), getattr(plain, column))


# ---------------------------------------------------------------------------
# filtering


def test_filter_drops_user_below_threshold():
    # "short" has 4 interactions; its rare items c/d vanish first, then the user
    seqs = [_seq("short", ["a", "b", "c", "d"]), _seq("long", ["a"] * 5 + ["b"] * 5)]
    kept = sequences_of(filter_and_bound(log_of(seqs), min_len=5))
    assert [s.user_id for s in kept] == ["long"]
    assert len(kept[0]) == 10


def test_filter_cascade_hand_fixture():
    # X appears 4 times -> dropped; u3 falls to 3 interactions -> dropped;
    # after that P and Q still have 5 occurrences each, so u1/u2 survive.
    seqs = [
        _seq("u1", ["P", "Q", "P", "Q", "P", "X"]),
        _seq("u2", ["Q", "P", "Q", "P", "Q", "X"]),
        _seq("u3", ["P", "Q", "X", "X", "P"]),
    ]
    kept = sequences_of(filter_and_bound(log_of(seqs), min_len=5))
    assert [s.user_id for s in kept] == ["u1", "u2"]
    assert all(len(s) == 5 for s in kept)
    assert {it.item_id for s in kept for it in s.items} == {"P", "Q"}


def test_filter_cap_keeps_most_recent():
    seq = _seq("u", [f"i{k % 6}" for k in range(150)])
    kept = sequences_of(filter_and_bound(log_of([seq]), min_len=1, max_len_cap=100))
    assert len(kept[0]) == 100
    assert kept[0].items[0].timestamp == 50  # oldest 50 dropped


def test_filter_is_idempotent_fixpoint():
    rng = np.random.default_rng(0)
    seqs = [
        _seq(f"u{u}", [f"i{rng.integers(0, 12)}" for _ in range(rng.integers(1, 15))])
        for u in range(30)
    ]
    once = sequences_of(filter_and_bound(log_of(seqs), min_len=5, max_len_cap=8))
    twice = sequences_of(filter_and_bound(log_of(once), min_len=5, max_len_cap=8))
    assert [(s.user_id, [(i.item_id, i.timestamp) for i in s.items]) for s in once] == [
        (s.user_id, [(i.item_id, i.timestamp) for i in s.items]) for s in twice
    ]


# ---------------------------------------------------------------------------
# leave-one-out split


def test_split_enumeration_four_items():
    split = split_leave_one_out(log_of([_seq("u", ["a", "b", "c", "d"])]), max_len=10)
    ids = {name: i + 1 for i, name in enumerate(split.item_ids)}
    (test_row,) = split.test
    (valid_row,) = split.valid
    (train_row,) = split.train
    assert (test_row.inputs, test_row.target) == ([ids["a"], ids["b"], ids["c"]], ids["d"])
    assert (valid_row.inputs, valid_row.target) == ([ids["a"], ids["b"]], ids["c"])
    assert (train_row.inputs, train_row.target) == ([ids["a"]], ids["b"])


def test_split_length_three_user_gets_valid_and_test_only():
    split = split_leave_one_out(log_of([_seq("u", ["a", "b", "c"])]), max_len=10)
    assert len(split.test) == 1 and len(split.valid) == 1
    assert split.train == []  # a nonempty training input would need 4 items


def test_split_drops_users_below_three():
    split = split_leave_one_out(log_of([_seq("u", ["a", "b"])]), max_len=10)
    assert split.n_users == 0 and not split.test


def test_split_truncates_to_recent_items():
    split = split_leave_one_out(log_of([_seq("u", list("abcdef"))]), max_len=2)
    ids = {name: i + 1 for i, name in enumerate(split.item_ids)}
    (test_row,) = split.test
    assert test_row.inputs == [ids["d"], ids["e"]]  # two most recent inputs
    assert test_row.target == ids["f"]


def test_split_group_boundaries():
    assert group_label(1) == "Short"
    assert group_label(5) == "Short"
    assert group_label(6) == "Medium"
    assert group_label(20) == "Medium"
    assert group_label(21) == "Long"


def test_split_groups_partition_users():
    rng = np.random.default_rng(1)
    seqs = [_seq(f"u{u}", [f"i{k}" for k in range(rng.integers(3, 30))]) for u in range(25)]
    split = split_leave_one_out(log_of(seqs), max_len=50)
    assert set(split.groups) == set(range(1, split.n_users + 1))
    for u, label in split.groups.items():
        n = len(seqs[u - 1].items)
        assert label == group_label(n - 2)


def test_split_no_leakage_prefix_identities():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(3, 20))
        items = [f"i{rng.integers(0, 8)}" for _ in range(n)]
        split = split_leave_one_out(log_of([_seq("u", items)]), max_len=100)
        ids = [split.item_ids.index(x) + 1 for x in items]
        (test_row,) = split.test
        (valid_row,) = split.valid
        assert test_row.inputs + [test_row.target] == ids
        assert valid_row.inputs + [valid_row.target] == ids[: n - 1]
        if n >= 4:
            (train_row,) = split.train
            # train consumes only positions strictly before the held-out pair
            assert train_row.inputs + [train_row.target] == ids[: n - 2]


def test_split_artifact_roundtrip(tmp_path):
    seqs = [_seq(f"u{u}", [f"i{k % 7}" for k in range(4 + u)]) for u in range(6)]
    split = split_leave_one_out(log_of(seqs), max_len=5)
    path = tmp_path / "split.json"
    save_split(split, path)
    again = load_split(path)
    assert again.user_ids == split.user_ids
    assert again.item_ids == split.item_ids
    assert again.groups == split.groups
    for which in ("train", "valid", "test"):
        assert [(r.user, r.inputs, r.target) for r in again.rows(which)] == [
            (r.user, r.inputs, r.target) for r in split.rows(which)
        ]
    save_split(again, tmp_path / "split2.json")
    assert (tmp_path / "split.json").read_bytes() == (tmp_path / "split2.json").read_bytes()


# ---------------------------------------------------------------------------
# batching


def _toy_split():
    seqs = [_seq(f"u{u}", [f"i{k}" for k in range(6)]) for u in range(5)]
    return split_leave_one_out(log_of(seqs), max_len=4)


def test_batch_sizes_include_final_partial():
    split = _toy_split()
    sizes = [b.items.shape[0] for b in batch_iter(split, "train", 2)]
    assert sizes == [2, 2, 1]


def test_batch_left_padding_and_lengths():
    split = _toy_split()
    batch = next(batch_iter(split, "valid", 5))
    assert batch.items.shape == (5, 4)
    row = batch.items[0]
    assert batch.lengths[0] == 4
    assert row[-1] != 0  # most recent item in the last column
    short = make_batch(split.train[:1], max_len=4)
    assert short.items[0, : 4 - short.lengths[0]].tolist() == [0] * (4 - short.lengths[0])


def test_batch_same_seed_same_order():
    split = _toy_split()
    a = [b.users.tolist() for b in batch_iter(split, "train", 2, shuffle_seed=7)]
    b = [b.users.tolist() for b in batch_iter(split, "train", 2, shuffle_seed=7)]
    assert a == b


def test_batch_shuffle_preserves_multiset():
    split = _toy_split()
    plain = sorted(u for b in batch_iter(split, "train", 2) for u in b.users.tolist())
    shuffled = sorted(u for b in batch_iter(split, "train", 2, shuffle_seed=3) for u in b.users.tolist())
    assert plain == shuffled


def test_batch_rejects_empty_input():
    with pytest.raises(ContractError):
        make_batch([], max_len=4)
    from mambarec.data import SplitRow

    with pytest.raises(ContractError):
        make_batch([SplitRow(1, [], 2)], max_len=4)


def test_dataset_stats_hand_count():
    seqs = [_seq("u1", ["a", "b", "c"]), _seq("u2", ["a", "b"])]
    stats = dataset_stats(log_of(seqs))
    assert stats["users"] == 2 and stats["items"] == 3 and stats["interactions"] == 5
    assert stats["avg_length"] == pytest.approx(2.5)
    assert stats["sparsity"] == pytest.approx(1 - 5 / 6)
