"""The benchmark-trajectory aggregator, fed hand-written per-run records, the tree naming and the label check (no benchmark runs)."""

import subprocess

import pytest

from tools import record_bench
from tools.record_bench import Refused, aggregate, tree_state

SHA = "a" * 40


def _record(workload, seed, rss, loss, failed=0, sha=SHA):
    return {
        "workload": workload, "seed": seed, "attempted": 4, "failed": failed,
        "end_to_end": {"peak_rss_mb": {"value": rss, "unit": "MB"},
                       "train_loss_final": {"value": loss, "unit": "nats"}},
        "environment": {"git_sha": sha, "seed": seed, "nproc": 2},
    }


def test_aggregate_gives_median_quartiles_and_n_per_workload_and_metric():
    runs = [_record("train-short", s, rss, 9.0) for s, rss in enumerate((200.0, 190.0, 196.0, 194.0, 198.0), 1)]
    runs.append(_record("eval-long", 1, 275.0, 8.5))
    out = aggregate(runs, SHA)
    assert set(out) == {"train-short", "eval-long"}
    assert set(out["train-short"]) == {"peak_rss_mb", "train_loss_final"}
    rss = out["train-short"]["peak_rss_mb"]
    assert rss == {"unit": "MB", "median": 196.0, "q1": 194.0, "q3": 198.0, "n": 5,
                   "values": [200.0, 190.0, 196.0, 194.0, 198.0]}
    assert out["train-short"]["train_loss_final"]["median"] == 9.0
    assert out["eval-long"]["peak_rss_mb"] == {"unit": "MB", "median": 275.0, "q1": 275.0, "q3": 275.0, "n": 1,
                                               "values": [275.0]}


def test_quartiles_interpolate_between_runs():
    runs = [_record("train-long", s, rss, 8.0) for s, rss in enumerate((1.0, 2.0, 3.0, 4.0), 1)]
    rss = aggregate(runs, SHA)["train-long"]["peak_rss_mb"]
    assert (rss["q1"], rss["median"], rss["q3"], rss["n"]) == (1.75, 2.5, 3.25, 4)


def test_a_run_at_another_commit_is_refused():
    runs = [_record("train-short", 1, 200.0, 9.0), _record("train-long", 1, 270.0, 8.0, sha="b" * 40)]
    with pytest.raises(Refused, match="train-long seed 1: recorded at b+, not HEAD a+"):
        aggregate(runs, SHA)


def test_a_run_with_a_failed_gate_is_refused():
    with pytest.raises(Refused, match="1 of 4 gates failed"):
        aggregate([_record("eval-long", 3, 275.0, 8.5, failed=1)], SHA)


def test_a_dirty_tree_is_named_by_its_content_and_left_as_it_was(tmp_path, monkeypatch):
    for role in ("AUTHOR", "COMMITTER"):  # git stash create writes a commit
        monkeypatch.setenv(f"GIT_{role}_NAME", "bench")
        monkeypatch.setenv(f"GIT_{role}_EMAIL", "bench@example.com")

    def git(*args):
        return subprocess.run(["git", *args], cwd=tmp_path, check=True, capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    (tmp_path / "scan.py").write_text("steps = 4\n")
    git("add", "scan.py")
    git("commit", "-q", "-m", "parent")
    head = git("rev-parse", "HEAD")
    assert tree_state(tmp_path) == {"git_sha": head, "clean": True}

    (tmp_path / "scan.py").write_text("steps = 8\n")
    status = git("status", "--porcelain")
    state = tree_state(tmp_path)
    assert state["git_sha"] == head and state["clean"] is False
    assert git("show", f"{state['content_sha']}:scan.py") == "steps = 8"
    assert (tmp_path / "scan.py").read_text() == "steps = 8\n"
    assert git("status", "--porcelain") == status and git("stash", "list") == ""


@pytest.mark.parametrize("label", ["a/b", ""])
def test_a_label_that_is_not_a_file_name_part_is_refused_before_any_run(label, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(record_bench, "_run", no_run)
    with pytest.raises(SystemExit) as exc:
        record_bench.main(["--label", label, "--seeds", "1"])
    assert exc.value.code == 2
    assert "--label must be non-empty and hold no path separator" in capsys.readouterr().err


def test_outside_a_git_checkout_it_exits_2_before_any_run(tmp_path, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(record_bench, "_run", no_run)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))  # git looks no higher than tmp_path
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        record_bench.main(["--label", "x", "--seeds", "1"])
    assert exc.value.code == 2
    assert "is not in a git checkout" in capsys.readouterr().err
