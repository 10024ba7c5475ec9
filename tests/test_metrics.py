"""Ranking metrics against hand computations and a full-sort oracle."""

import numpy as np
import pytest
from reference_data import Interaction, InteractionSequence, log_of, popularity_ranks, rank_target

from mambarec.data import split_leave_one_out
from mambarec.metrics import grouped_report, hr_at_k, mrr_at_k, ndcg_at_k, rank_targets_batch


def sort_rank_oracle(logits, target):
    """Rank by fully sorting (score desc, index asc)."""
    order = sorted(range(len(logits)), key=lambda i: (-logits[i], i))
    return order.index(target) + 1


def test_rank_unique_max_is_one():
    assert rank_target(np.array([0.1, 0.9, 0.3]), 1) == 1


def test_rank_all_tied_breaks_by_index():
    logits = np.zeros(5)
    assert rank_target(logits, 0) == 1
    assert rank_target(logits, 3) == 4


def test_rank_matches_sort_oracle_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        logits = rng.integers(0, 4, size=6).astype(float)  # heavy ties
        target = int(rng.integers(0, 6))
        assert rank_target(logits, target) == sort_rank_oracle(logits.tolist(), target)


def test_rank_batch_matches_scalar():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(20, 8))
    logits[::3, 2] = logits[::3, 5]  # some ties
    targets = rng.integers(0, 8, size=20)
    batch = rank_targets_batch(logits, targets)
    scalar = [rank_target(row, int(t)) for row, t in zip(logits, targets)]
    assert batch.tolist() == scalar


def test_rank_target_out_of_range():
    with pytest.raises(IndexError):
        rank_target(np.zeros(3), 3)


def test_hr_point_cases():
    assert hr_at_k([5]) == 1.0
    assert hr_at_k([11]) == 0.0
    assert hr_at_k([1, 12]) == 0.5


def test_ndcg_point_cases():
    assert ndcg_at_k([1]) == 1.0
    assert ndcg_at_k([3]) == pytest.approx(0.5)  # 1 / log2(4)
    assert ndcg_at_k([11]) == 0.0


def test_mrr_point_cases():
    assert mrr_at_k([2]) == 0.5
    assert mrr_at_k([1]) == 1.0
    assert mrr_at_k([2, 4]) == pytest.approx(0.375)
    assert mrr_at_k([11]) == 0.0  # truncated at the cutoff


def test_metric_ordering_per_user():
    for rank in range(1, 30):
        h, n, m = hr_at_k([rank]), ndcg_at_k([rank]), mrr_at_k([rank])
        assert h >= n >= m


def test_improving_a_rank_never_hurts():
    rng = np.random.default_rng(2)
    ranks = rng.integers(1, 30, size=12)
    for fn in (hr_at_k, ndcg_at_k, mrr_at_k):
        base = fn(ranks)
        for i in range(len(ranks)):
            if ranks[i] > 1:
                better = ranks.copy()
                better[i] -= 1
                assert fn(better) >= base - 1e-15


def test_shift_invariance_of_ranks():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(10, 9))
    targets = rng.integers(0, 9, size=10)
    shifted = rank_targets_batch(logits + 123.45, targets)
    assert rank_targets_batch(logits, targets).tolist() == shifted.tolist()


def test_grouped_report_single_group_equals_overall():
    report = grouped_report([1, 3, 12], ["Short"] * 3)
    for metric in ("HR", "NDCG", "MRR"):
        assert report.get(metric, group="Short") == report.get(metric)


def test_grouped_report_weighted_mean_identity():
    rng = np.random.default_rng(4)
    ranks = rng.integers(1, 25, size=30)
    groups = [["Short", "Medium", "Long"][i % 3] for i in range(30)]
    report = grouped_report(ranks, groups)
    for metric in ("HR", "NDCG", "MRR"):
        weighted = sum(
            report.get(metric, group=g) * report.counts[g] for g in ("Short", "Medium", "Long")
        )
        assert weighted / report.counts["Overall"] == pytest.approx(report.get(metric))


def test_grouped_report_three_user_hand_case():
    # ranks 1 (Short), 3 (Medium), 11 (Long)
    report = grouped_report([1, 3, 11], ["Short", "Medium", "Long"])
    assert report.get("HR", group="Short") == 1.0
    assert report.get("NDCG", group="Medium") == pytest.approx(0.5)
    assert report.get("MRR", group="Long") == 0.0
    assert report.get("HR") == pytest.approx(2 / 3)
    assert report.get("NDCG") == pytest.approx((1.0 + 0.5 + 0.0) / 3)
    assert report.get("MRR") == pytest.approx((1.0 + 1 / 3 + 0.0) / 3)
    assert report.counts == {"Overall": 3, "Short": 1, "Medium": 1, "Long": 1}


def test_report_rows_and_files(tmp_path):
    report = grouped_report([1, 2], ["Short", "Short"])
    rows = report.rows()
    assert {r["metric"] for r in rows} == {"HR", "NDCG", "MRR"}
    assert all(set(r) == {"metric", "cutoff", "group", "value", "n_users"} for r in rows)
    report.write_csv(tmp_path / "r.csv")
    report.write_json(tmp_path / "r.json")
    assert (tmp_path / "r.csv").read_text().startswith("metric,cutoff,group,value,n_users")
    assert (tmp_path / "r.json").stat().st_size > 0


def test_metric_values_within_unit_interval():
    rng = np.random.default_rng(5)
    ranks = rng.integers(1, 100, size=50)
    report = grouped_report(ranks, ["Medium"] * 50, cutoffs=(5, 10))
    assert all(0.0 <= v <= 1.0 for v in report.values.values())


def test_popularity_ranks_prefers_frequent_items():
    # u1..: everyone trains on item "a"; test target "a" for u1, "c" for u2
    seqs = [
        InteractionSequence("u1", [Interaction(x, t) for t, x in enumerate("aaab" + "ba")]),
        InteractionSequence("u2", [Interaction(x, t) for t, x in enumerate("aaab" + "bc")]),
    ]
    split = split_leave_one_out(log_of(seqs), max_len=10)
    ranks = popularity_ranks(split, "test")
    ids = {name: i for i, name in enumerate(split.item_ids)}
    # training rows hold a,a,a,b per user; "a" is the most popular item
    assert ranks[0] == 1  # u1's target is "a"
    assert ranks[1] == 3  # "c" never seen in train: ranked after a and b
    assert ids["a"] == 0
