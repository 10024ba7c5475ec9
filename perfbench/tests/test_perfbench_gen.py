"""The synthetic log generator: deterministic per seed, and on its target shape."""

import numpy as np
import pytest

from mambarec import data
from perfbench import gen

SMALL = gen.Shape("small", users=300, items=120, mean_len=12.0)


def test_same_seed_same_text_and_other_seed_differs():
    assert gen.tsv_text(gen.generate(SMALL, 3)) == gen.tsv_text(gen.generate(SMALL, 3))
    assert gen.tsv_text(gen.generate(SMALL, 3)) != gen.tsv_text(gen.generate(SMALL, 4))


@pytest.mark.parametrize("shape", [gen.BEAUTY, gen.ML1M], ids=lambda s: s.name)
def test_hits_target_shape(shape):
    log = gen.generate(shape, 0)
    realized = gen.log_shape(log)
    assert realized["users"] == shape.users
    assert realized["items"] == shape.items
    assert realized["mean_len"] == pytest.approx(shape.mean_len, rel=0.03)
    assert np.bincount(log.users).min() >= shape.min_len
    assert np.bincount(log.items, minlength=shape.items).min() >= shape.min_len
    same_user = log.users[1:] == log.users[:-1]
    assert (np.diff(log.timestamps)[same_user] > 0).all()


def test_popularity_is_skewed_and_transitions_repeat():
    log = gen.generate(SMALL, 0)
    counts = np.sort(np.bincount(log.items))[::-1]
    assert counts[: SMALL.items // 10].sum() > 0.25 * counts.sum()
    same_user = log.users[1:] == log.users[:-1]
    pairs = set(zip(log.items[:-1][same_user].tolist(), log.items[1:][same_user].tolist()))
    assert len(pairs) < 0.8 * same_user.sum()  # successors recur far more than chance


def test_program_pipeline_keeps_the_generated_shape(tmp_path):
    log = gen.generate(SMALL, 1)
    path = tmp_path / "log.tsv"
    path.write_text(gen.tsv_text(log), encoding="utf-8")
    split = data.split_leave_one_out(data.filter_and_bound(data.ingest(path), 5), 50)
    assert split.n_users == SMALL.users
    assert split.n_items == SMALL.items
