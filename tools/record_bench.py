"""Record the benchmark's end-to-end metrics at one commit into BENCH_<label>.json.

    python3 tools/record_bench.py --label LABEL --seeds N

Run it from the checkout to measure. For each seed 1..N it runs every workload
of BENCHMARK.json in turn (``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` with ``OPENBLAS_NUM_THREADS=1``, T being BENCHMARK.json's
``run_seconds``), so a slow stretch of the machine hits every workload alike.
It refuses a run whose gates failed or whose recorded commit is not HEAD.
``BENCH_<label>.json`` at the checkout's root then holds, per workload and
end-to-end metric, the median, the quartiles, N and the per-seed values, with
the environment, the run length, the commit and whether the working tree was
clean. A dirty tree is also named by its content: ``content_sha`` is the
commit that ``git stash create`` makes of its tracked files, index and
working tree, without touching either (``git diff HEAD <content_sha>``
shows what was measured on top of HEAD).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np


class Refused(Exception):
    """A run that the trajectory must not include."""


def aggregate(records: list[dict], head_sha: str) -> dict:
    """Per workload and end-to-end metric: median, quartiles, N and values over ``records``.

    ``records`` are per-run perfbench JSONs (``.perfbench-out/<workload>-seed<N>-trace0.json``).
    Raises Refused for a run with a failed gate or recorded at another commit than ``head_sha``.
    """
    values: dict[str, dict[str, list[float]]] = {}
    units: dict[str, str] = {}
    for rec in records:
        where = f"{rec['workload']} seed {rec['seed']}"
        if rec["failed"] != 0:
            raise Refused(f"{where}: {rec['failed']} of {rec['attempted']} gates failed")
        if rec["environment"]["git_sha"] != head_sha:
            raise Refused(f"{where}: recorded at {rec['environment']['git_sha']}, not HEAD {head_sha}")
        for name, metric in rec["end_to_end"].items():
            values.setdefault(rec["workload"], {}).setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    out = {}
    for workload, metrics in values.items():
        out[workload] = {}
        for name, vals in metrics.items():
            q1, median, q3 = np.percentile(vals, [25, 50, 75]).tolist()
            out[workload][name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3, "n": len(vals),
                                   "values": vals}
    return out


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True, text=True).stdout.strip()


def tree_state(root: Path) -> dict:
    """HEAD's SHA, whether the working tree is clean and, when it is not, ``content_sha`` naming its content."""
    head = _git(root, "rev-parse", "HEAD")
    if _git(root, "status", "--porcelain") == "":
        return {"git_sha": head, "clean": True}
    # with only untracked files changed there is nothing to stash: the tracked content is HEAD's
    return {"git_sha": head, "clean": False, "content_sha": _git(root, "stash", "create") or head}


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise Refused(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads((root / ".perfbench-out" / f"{workload}-seed{seed}-trace0.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--seeds", type=int, default=5, help="runs per workload, seeds 1..N")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    if not args.label or "/" in args.label or os.sep in args.label:  # else only the write fails, after every run
        parser.error(f"--label must be non-empty and hold no path separator, got {args.label!r}")

    try:
        root = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel"))
    except subprocess.CalledProcessError:
        parser.error(f"{Path.cwd()} is not in a git checkout; run from the checkout to measure")
    tree = tree_state(root)
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads, seconds = [w["name"] for w in bench["workloads"]], bench["run_seconds"]
    records = []
    try:
        for seed in range(1, args.seeds + 1):
            for workload in workloads:
                records.append(_run(root, workload, seed, seconds))
                e2e = ", ".join(f"{k}={v['value']:.4g}" for k, v in records[-1]["end_to_end"].items())
                print(f"{workload} seed {seed}: {e2e}", flush=True)
        summary = aggregate(records, tree["git_sha"])
    except Refused as exc:
        print(f"record_bench: refused: {exc}", file=sys.stderr)
        return 1
    environment = {k: v for k, v in records[0]["environment"].items() if k not in ("seed", "git_sha")}
    path = root / f"BENCH_{args.label}.json"
    result = {"label": args.label, **tree, "seconds": seconds, "seeds": list(range(1, args.seeds + 1)),
              "environment": environment, "workloads": summary}
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
