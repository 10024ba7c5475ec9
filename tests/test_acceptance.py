"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Tolerances are pinned here, not configurable.
"""

import functools
import math
import time
import tracemalloc

import numpy as np
import pytest
import reference_data
from helpers import check_grads, rand_tensor
from reference_data import Interaction, InteractionSequence, log_of, popularity_ranks, sequences_of, write_tsv
from test_mamba import stepwise_block_oracle, unrolled_scan_oracle

import mambarec.autodiff as ad
from mambarec.autodiff import Tensor
from mambarec.bench import doubling_ratios, run_bench
from mambarec.config import RunConfig
from mambarec.data import (
    Batch,
    filter_and_bound,
    ingest,
    load_split,
    save_split,
    split_leave_one_out,
)
from mambarec.layers import flip_index
from mambarec.mamba import init_mamba_params, mamba_forward
from mambarec.metrics import grouped_report, rank_targets_batch
from mambarec.model import batch_loss, init_model_params, layer_options, named_tensors, score
from mambarec.train import evaluate_split, train_model
from perfbench import gen


def criterion(number, title):
    """Print one pass/fail line per criterion, whatever pytest shows."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[ACCEPTANCE] criterion {number} ({title}): FAIL")
                raise
            print(f"\n[ACCEPTANCE] criterion {number} ({title}): PASS")

        return run

    return wrap


# ---------------------------------------------------------------------------
# 1. gradient suite


@criterion(1, "gradient suite")
def test_criterion_1_gradient_suite():
    t0 = time.time()
    rng = np.random.default_rng(100)
    tol = 1e-4

    # every primitive, exhaustively over small operands
    a = rand_tensor(rng, 3, 4)
    b = rand_tensor(rng, 4, 2)
    check_grads(lambda: ad.matmul(a, b).sum(), [("a", a), ("b", b)], tol=tol)

    x = rand_tensor(rng, 2, 3, 4)
    y = rand_tensor(rng, 4)
    check_grads(lambda: ad.mul(ad.add(x, y), ad.add(x, Tensor(-0.3))).sum(), [("x", x), ("y", y)], tol=tol)

    for fn in (ad.sigmoid, ad.silu, ad.gelu, ad.softplus):
        z = rand_tensor(rng, 13)
        check_grads(lambda: ad.mul(fn(z), z).sum(), [("z", z)], tol=tol)

    cx = rand_tensor(rng, 2, 6, 3)
    ck = rand_tensor(rng, 4, 3)
    cb = rand_tensor(rng, 3)
    check_grads(
        lambda: ad.silu(ad.conv1d_depthwise(cx, ck, cb)).sum(),
        [("x", cx), ("kernel", ck), ("bias", cb)],
        tol=tol,
    )

    lx = rand_tensor(rng, 2, 4, 6)
    lgain = rand_tensor(rng, 6)
    lbias = rand_tensor(rng, 6)
    check_grads(
        lambda: ad.silu(ad.layernorm(lx, lgain, lbias)).sum(),
        [("x", lx), ("gain", lgain), ("bias", lbias)],
        tol=tol,
    )

    logits = rand_tensor(rng, 4, 9)
    targets = rng.integers(0, 9, size=4)
    check_grads(lambda: ad.softmax_cross_entropy(logits, targets), [("logits", logits)], tol=tol)

    table = rand_tensor(rng, 7, 5)
    ids = rng.integers(0, 7, size=(2, 6))
    check_grads(lambda: ad.mul(ad.embedding(table, ids), ad.embedding(table, ids)).sum(), [("table", table)], tol=tol)

    sx = rand_tensor(rng, 2, 5, 4)

    def shape_chain():
        u = ad.index(sx, np.s_[..., 1:4])
        v = ad.index(sx, np.s_[:, 2])
        flipped = ad.index(sx, (np.arange(2)[:, None], np.tile(np.arange(5)[::-1], (2, 1))))
        return ad.add(ad.add(ad.mul(u, u).sum(), v.sum()), ad.mul(flipped, flipped).sum())

    check_grads(shape_chain, [("x", sx)], tol=tol)

    tx = rand_tensor(rng, 2, 3, 4)
    tw = rand_tensor(rng, 2, 4, 3)
    check_grads(lambda: ad.mul(ad.transpose(tx), tw).sum(), [("x", tx), ("w", tw)], tol=tol)

    qx = rand_tensor(rng, 3, 5)
    check_grads(lambda: ad.mul(ad.tsum(qx), ad.tsum(ad.mul(qx, qx))), [("x", qx)], tol=tol)

    # the full 1-layer model at B=2, L=8, D=16, d_state=4
    cfg = RunConfig(
        dim=16, n_layers=1, max_len=8, flip_keep=3, d_state=4, conv_width=4,
        expand=2, dropout=0.0, precision="float64", batch_size=2,
    )
    params = init_model_params(cfg, n_items=12, rng=np.random.default_rng(101))
    items = np.array([[0, 0, 1, 2, 3, 4, 5, 6], [0, 0, 0, 7, 8, 9, 10, 11]])
    batch = Batch(items, (items != 0).sum(1), np.array([7, 3]), np.array([1, 2]))
    opts = layer_options(cfg)
    check_grads(
        lambda: batch_loss(params, batch, opts),
        list(named_tensors(params)),
        tol=tol,
        max_entries=24,
    )

    elapsed = time.time() - t0
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. scan oracle


@criterion(2, "scan oracle")
def test_criterion_2_scan_oracle():
    rng = np.random.default_rng(200)
    p = init_mamba_params(rng, dim=6, d_state=5, d_conv=4, expand=2, dtype=np.float64)
    x = rng.normal(size=(2, 12, 6))
    got = mamba_forward(Tensor(x), p).data

    # per-timestep recurrent evaluation
    np.testing.assert_allclose(got, stepwise_block_oracle(x, p), atol=1e-10)

    # dense unrolled sum, checked on the scan's own inputs (L <= 12)
    u = rng.normal(size=(2, 10, 3))
    delta = np.abs(rng.normal(size=(2, 10, 3))) + 0.02
    a = -np.abs(rng.normal(size=(3, 4))) - 0.02
    bmat = rng.normal(size=(2, 10, 4))
    cmat = rng.normal(size=(2, 10, 4))
    d = rng.normal(size=3)
    from mambarec.mamba import ssm_scan

    scanned = ssm_scan(Tensor(u), Tensor(delta), Tensor(a), Tensor(bmat), Tensor(cmat), Tensor(d)).data
    np.testing.assert_allclose(scanned, unrolled_scan_oracle(u, delta, a, bmat, cmat, d), atol=1e-10)


# ---------------------------------------------------------------------------
# 3. flip algebra


@criterion(3, "flip algebra")
def test_criterion_3_flip_algebra():
    rng = np.random.default_rng(300)
    for case in range(1000):
        width = int(rng.integers(1, 65))
        true_len = int(rng.integers(0, width + 1))
        keep = int(rng.integers(0, 65))
        idx = flip_index([true_len], keep, width)[0]
        np.testing.assert_array_equal(idx[idx], np.arange(width), err_msg=f"case {case}: not an involution")
        assert sorted(idx.tolist()) == list(range(width)), f"case {case}: multiset changed"
        pad = width - true_len
        np.testing.assert_array_equal(idx[:pad], np.arange(pad), err_msg=f"case {case}: padding moved")
        kept = min(keep, true_len)
        if kept:
            np.testing.assert_array_equal(
                idx[width - kept :], np.arange(width - kept, width), err_msg=f"case {case}: suffix moved"
            )
        if keep >= true_len:
            np.testing.assert_array_equal(idx, np.arange(width), err_msg=f"case {case}: keep>=len not identity")
        if keep == 0 and true_len == width:
            np.testing.assert_array_equal(idx, np.arange(width)[::-1], err_msg=f"case {case}: keep=0 not reversal")


# ---------------------------------------------------------------------------
# 4. metric oracle


@criterion(4, "metric oracle")
def test_criterion_4_metric_oracle():
    # 5 users x 8 items; score rows built so the held-out column lands at
    # ranks 1, 3, 2, 8, 5
    base = np.array([8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
    targets = np.array([0, 2, 1, 7, 4])
    logits = np.tile(base, (5, 1))
    ranks = rank_targets_batch(logits, targets)
    assert ranks.tolist() == [1, 3, 2, 8, 5]

    groups = ["Short", "Short", "Medium", "Long", "Medium"]
    report = grouped_report(ranks, groups, cutoffs=(10,))

    # hand evaluation of the three formulas with binary relevance, IDCG = 1
    hand_hr = sum(1.0 for r in [1, 3, 2, 8, 5] if r <= 10) / 5.0
    hand_ndcg = sum(1.0 / math.log2(r + 1) for r in [1, 3, 2, 8, 5]) / 5.0
    hand_mrr = sum(1.0 / r for r in [1, 3, 2, 8, 5]) / 5.0
    assert report.get("HR") == hand_hr == 1.0
    assert report.get("NDCG") == pytest.approx(hand_ndcg, abs=0.0)
    assert report.get("MRR") == pytest.approx(hand_mrr, abs=0.0)
    assert 1.0 / math.log2(3 + 1) == 0.5  # the rank-3 contribution called out in the criterion

    # grouped report obeys the user-count-weighted mean identity
    for metric in ("HR", "NDCG", "MRR"):
        weighted = sum(report.get(metric, group=g) * report.counts[g] for g in ("Short", "Medium", "Long"))
        assert weighted / 5.0 == pytest.approx(report.get(metric), abs=1e-15)


# ---------------------------------------------------------------------------
# 5. overfit test


def _cyclic_dataset(n_users=200, catalog=50, length=10, seed=500):
    rng = np.random.default_rng(seed)
    seqs = []
    for u in range(n_users):
        start = int(rng.integers(0, catalog))
        items = [f"i{(start + t) % catalog}" for t in range(length)]
        seqs.append(InteractionSequence(f"u{u}", [Interaction(x, t) for t, x in enumerate(items)]))
    return split_leave_one_out(log_of(seqs), max_len=length)


@criterion(5, "overfit vs popularity floor")
def test_criterion_5_overfit():
    t0 = time.time()
    split = _cyclic_dataset()
    pop_hr = float((popularity_ranks(split, "test") <= 10).mean())
    assert pop_hr < 0.3, f"popularity baseline unexpectedly strong: {pop_hr}"

    cfg = RunConfig(
        dim=32, n_layers=1, flip_keep=5, d_state=32, conv_width=4, expand=2,
        lr=0.001, dropout=0.0, batch_size=32, epochs=50, seed=0, eval_every=10,
        patience=100, precision="float32", max_len=10,
    )
    result = train_model(cfg, split)
    report = evaluate_split(result.params, cfg, split, "test")
    elapsed = time.time() - t0
    hr = report.get("HR")
    assert hr >= 0.95, f"held-out HR@10 {hr:.3f} < 0.95"
    assert hr > pop_hr, "model does not beat the popularity floor"
    assert elapsed < 300.0, f"overfit run took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 6. complexity claim


@criterion(6, "linear-vs-quadratic complexity")
def test_criterion_6_complexity():
    cfg = RunConfig(dim=64, n_layers=1, d_state=32, conv_width=4, expand=2, precision="float32", dropout=0.0)
    rows = run_bench(cfg, [128, 256, 512], batch=8, reps=7, warmup=2)
    enc = doubling_ratios(rows, "encoder")
    att = doubling_ratios(rows, "attention")
    assert len(enc) == 2 and len(att) == 2
    for short, long_, ratio in enc:
        assert ratio <= 2.5, f"encoder doubling {short}->{long_} ratio {ratio:.2f} > 2.5"
    largest = [r for s, l, r in att if l == 512]
    assert largest and largest[0] >= 3.0, f"attention 256->512 ratio {largest} < 3.0"


def test_training_tape_length_is_independent_of_sequence_length():
    """Deterministic companion to criterion 6, on the path training runs: a default-config
    train step records the same number of tape ops at every sequence length, 77 (as the README states)."""
    counts = []
    for length in (16, 64, 200):
        cfg = RunConfig(max_len=length)
        params = init_model_params(cfg, n_items=30, rng=np.random.default_rng(0))
        items = np.random.default_rng(1).integers(1, 31, size=(2, length))
        items[1, : length // 2] = 0  # left padding
        batch = Batch(items, (items != 0).sum(1), np.array([3, 5]), np.array([0, 1]))
        with ad.Tape() as tape:
            batch_loss(params, batch, layer_options(cfg), rng=np.random.default_rng(2))
        counts.append(len(tape))
    assert counts == [77, 77, 77], f"tape records at L = 16, 64, 200: {counts}"


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_peak_is_linear_in_sequence_length():
    """Deterministic companion to criterion 6: the allocation peak of an untaped score
    and of a taped train step at least doubles no faster than L does."""
    cfg = RunConfig(dim=64, n_layers=1, d_state=32, conv_width=4, expand=2, precision="float32", dropout=0.0)
    params = init_model_params(cfg, n_items=100, rng=np.random.default_rng(0))
    opts = layer_options(cfg)

    def train_step(batch):
        with ad.Tape() as tape:
            loss = batch_loss(params, batch, opts)
        tape.backward(loss)

    peaks = {"eval": [], "train": []}
    for length in (128, 256, 512):
        items = np.random.default_rng(length).integers(1, 101, size=(8, length))
        batch = Batch(items, np.full(8, length), np.arange(1, 9), np.arange(8))
        peaks["eval"].append(_traced_peak(lambda: score(params, batch, opts)))
        peaks["train"].append(_traced_peak(lambda: train_step(batch)))
    for name, (p128, p256, p512) in peaks.items():
        ratios = (p256 / p128, p512 / p256)
        assert max(ratios) <= 2.2, f"{name} peak {p128}, {p256}, {p512} bytes at L = 128, 256, 512"


# ---------------------------------------------------------------------------
# 7. ablation direction


def _conflict_dataset(catalog=40, n_users=200, data_seed=1234):
    """Half the users are short (<= 5 interactions) and follow a +7 step rule;
    long users follow +1. Last-item geometry alone cannot serve both."""
    rng = np.random.default_rng([data_seed, 7])
    seqs = []
    for u in range(n_users):
        short = u % 2 == 0
        length = int(rng.integers(4, 6)) if short else int(rng.integers(12, 19))
        step = 7 if short else 1
        x = int(rng.integers(0, catalog))
        items = [x]
        for _ in range(length - 1):
            x = (x + step) % catalog
            items.append(int(x))
        seqs.append(InteractionSequence(f"u{u}", [Interaction(f"i{k}", t) for t, k in enumerate(items)]))
    return split_leave_one_out(log_of(seqs), max_len=20)


@criterion(7, "ablation direction on short users")
def test_criterion_7_ablation_direction():
    split = _conflict_dataset()
    short_users = sum(1 for g in split.groups.values() if g == "Short")
    assert short_users * 2 == split.n_users  # half the users are short
    wins = 0
    for seed in range(5):
        cfg = RunConfig(
            dim=16, n_layers=1, flip_keep=5, d_state=8, conv_width=4, expand=2,
            lr=0.005, dropout=0.2, batch_size=16, epochs=30, seed=seed,
            eval_every=100, patience=100, precision="float32", max_len=20,
        )
        hr_default = evaluate_split(train_model(cfg, split).params, cfg, split, "test").get("HR", group="Short")
        no_gru = cfg.replace(no_gru=True)
        hr_ablated = evaluate_split(train_model(no_gru, split).params, no_gru, split, "test").get(
            "HR", group="Short"
        )
        wins += hr_default > hr_ablated
        print(f"  seed {seed}: Short HR@10 default={hr_default:.3f} no-gru={hr_ablated:.3f}")
    assert wins >= 4, f"default beat the no-gru variant on Short in only {wins}/5 seeds"


# ---------------------------------------------------------------------------
# 8. determinism


@criterion(8, "bitwise determinism")
def test_criterion_8_determinism():
    split = _cyclic_dataset(n_users=30, catalog=12, length=8, seed=800)
    cfg = RunConfig(
        dim=8, n_layers=1, flip_keep=2, d_state=4, conv_width=3, expand=2,
        lr=0.001, dropout=0.2, batch_size=8, epochs=2, seed=9, eval_every=1,
        patience=100, precision="float32", max_len=8,
    )
    r1 = train_model(cfg, split)
    r2 = train_model(cfg, split)
    losses1 = [row["train_loss"] for row in r1.history]
    losses2 = [row["train_loss"] for row in r2.history]
    assert len(losses1) == 2 and losses1 == losses2  # epoch-1 and epoch-2, bitwise
    e1 = evaluate_split(r1.params, cfg, split, "test")
    e2 = evaluate_split(r2.params, cfg, split, "test")
    assert e1.values == e2.values and e1.counts == e2.counts


# ---------------------------------------------------------------------------
# 9. pipeline integrity


def _random_sequences(rng):
    catalog = int(rng.integers(2, 10))
    seqs = []
    for u in range(int(rng.integers(2, 12))):
        n = int(rng.integers(1, 13))
        items = [
            Interaction(f"i{rng.integers(0, catalog)}", int(rng.integers(0, 5)), float(rng.integers(1, 6)))
            for _ in range(n)
        ]
        items.sort(key=lambda it: (it.timestamp, it.rating))
        seqs.append(InteractionSequence(f"u{u}", items))
    return seqs


@criterion(9, "pipeline integrity over 500 random datasets")
def test_criterion_9_pipeline_integrity(tmp_path):
    rng = np.random.default_rng(900)
    for case in range(500):
        seqs = _random_sequences(rng)
        min_len = int(rng.integers(1, 5))
        cap = int(rng.integers(3, 9)) if rng.random() < 0.5 else None

        # filter fixpoint
        once = sequences_of(filter_and_bound(log_of(seqs), min_len=min_len, max_len_cap=cap))
        twice = sequences_of(filter_and_bound(log_of(once), min_len=min_len, max_len_cap=cap))
        key = lambda data: [(s.user_id, [(i.item_id, i.timestamp, i.rating) for i in s.items]) for s in data]
        assert key(once) == key(twice), f"case {case}: filter not a fixpoint"

        # ingest -> serialize -> ingest identity on the id-mapped representation
        tsv = tmp_path / "rt.tsv"
        write_tsv(log_of(once), tsv)
        again = sequences_of(ingest(tsv))
        assert key(once) == key(again), f"case {case}: tsv round trip changed data"

        # split: no leakage via prefix identities; artifact round trip
        max_len = int(rng.integers(2, 16))
        split = split_leave_one_out(log_of(once), max_len=max_len)
        by_user = {s.user_id: s for s in once}
        for which, held in (("test", 0), ("valid", 1)):
            for row in split.rows(which):
                seq = by_user[split.user_ids[row.user - 1]]
                ids = [split.item_ids.index(it.item_id) + 1 for it in seq.items]
                n = len(ids)
                prefix = ids[: n - held]  # input plus its target; later items stay held out
                assert row.target == prefix[-1], f"case {case}: wrong {which} target"
                assert row.inputs == prefix[max(0, len(prefix) - 1 - max_len) : -1]
        for row in split.train:
            seq = by_user[split.user_ids[row.user - 1]]
            ids = [split.item_ids.index(it.item_id) + 1 for it in seq.items]
            prefix = ids[: len(ids) - 2]  # train never touches the held-out pair
            assert row.target == prefix[-1], f"case {case}: wrong train target"
            assert row.inputs == prefix[max(0, len(prefix) - 1 - max_len) : -1]
        artifact = tmp_path / "split.json"
        save_split(split, artifact)
        loaded = load_split(artifact)
        for which in ("train", "valid", "test"):
            assert [(r.user, r.inputs, r.target) for r in loaded.rows(which)] == [
                (r.user, r.inputs, r.target) for r in split.rows(which)
            ], f"case {case}: artifact round trip changed {which}"


def _split_key(split):
    rows = {which: [(r.user, r.inputs, r.target) for r in split.rows(which)] for which in ("train", "valid", "test")}
    return split.user_ids, split.item_ids, split.max_len, split.groups, rows


def _write_shuffled_tsv(seqs, path, rng):
    """The sequences' rows as a TSV, interleaved across users in a random order."""
    rows = [(s.user_id, it.item_id, it.timestamp, it.rating) for s in seqs for it in s.items]
    lines = ["user_id\titem_id\ttimestamp\trating"]
    lines += [f"{u}\t{i}\t{t}\t{r}" for u, i, t, r in (rows[k] for k in rng.permutation(len(rows)))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _oracle_split(path, min_len, cap, max_len):
    seqs = reference_data.filter_and_bound(reference_data.ingest(path), min_len, cap)
    return reference_data.split_leave_one_out(seqs, max_len)


def test_columnar_split_equals_the_object_oracle(tmp_path):
    """ingest -> filter_and_bound -> split_leave_one_out gives the reference oracle's
    split, on criterion 9's random datasets (rows shuffled) and on a generated log."""
    rng = np.random.default_rng(901)
    tsv = tmp_path / "log.tsv"
    for case in range(500):
        _write_shuffled_tsv(_random_sequences(rng), tsv, rng)
        min_len = int(rng.integers(1, 5))
        cap = int(rng.integers(3, 9)) if rng.random() < 0.5 else None
        max_len = int(rng.integers(2, 16))
        split = split_leave_one_out(filter_and_bound(ingest(tsv), min_len, cap), max_len)
        assert _split_key(split) == _split_key(_oracle_split(tsv, min_len, cap, max_len)), f"case {case}"
    tsv.write_text(gen.tsv_text(gen.generate(gen.Shape("small", users=300, items=120, mean_len=12.0), 1)))
    for min_len, cap in ((5, None), (5, 7), (12, None), (8, 15)):
        split = split_leave_one_out(filter_and_bound(ingest(tsv), min_len, cap), 20)
        assert split.n_users > 0, (min_len, cap)
        assert _split_key(split) == _split_key(_oracle_split(tsv, min_len, cap, 20)), (min_len, cap)
