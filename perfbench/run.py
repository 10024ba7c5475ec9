"""Benchmark for mambarec: training and full-catalog evaluation throughput.

Run from the repository root:

    python3 perfbench/run.py --workload train-short --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py                    # every workload, untraced then traced

One workload runs per process. Untraced, the phase a workload is about runs
for ``--seconds``; traced, every phase runs a fixed count, so per-layer sums
compare across commits. The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones). Details,
including the environment, go to ``.perfbench-out/<workload>-seed<n>-trace<t>.json``
and, when traced, the spans to ``...-spans.jsonl``. The exit code is 0 when
every correctness gate passed, 1 when one failed and 2 when the package
source is missing.
"""

import os

# BLAS must be single-threaded before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mambarec" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'mambarec'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    if args.workload == "all":
        return run_all(args, harness)
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(harness.WORKLOADS)} or all")
    return run_one(args, harness)


def run_one(args, harness) -> int:
    from perfbench.trace import Tracer

    wl = harness.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{wl.name}-", dir=OUT))
    tracer = Tracer() if args.trace else None
    t0 = time.perf_counter()
    try:
        record = harness.run(wl, args.seed, args.seconds, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["wall_s"] = time.perf_counter() - t0
    record["environment"] = harness.environment(ROOT, args.seed)
    stem = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.write(f"{stem}-spans.jsonl")
    stem.with_name(stem.name + ".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    report(record, harness)
    metrics = record["per_layer"] if tracer else record["end_to_end"]
    correct = record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"], "failed": record["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


def report(record: dict, harness) -> None:
    env, g = record["environment"], record["generated"]
    print(f"== {record['workload']} seed={record['seed']} seconds={record['seconds']} trace={record['trace']}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"generated: {g['users']} users, {g['items']} items, {g['interactions']} interactions, "
          f"mean length {g['mean_len']:.2f}; generator {g['gen_s']:.3f} s (not in setup_s)")
    print("set-ups (s): " + " ".join(f"{s:.3f}" for s in record["setup_runs_s"]))
    for r in record["train_rounds"]:
        print(f"train round: {harness.STEPS_PER_ROUND} steps in {r['seconds']:.3f} s, losses {r['losses']}")
    for c in record["eval_calls"]:
        print(f"eval batch: {c['users']} users in {c['seconds']:.3f} s")
    for gate in record["gates"]:
        print(f"gate {'ok  ' if gate['ok'] else 'FAIL'} {gate['gate']}" + (f" ({gate['detail']})" if gate["detail"] else ""))
    print(f"{'metric':<34}{'value':>16}  unit")
    for name, m in record["end_to_end"].items():
        print(f"{name:<34}{_fmt(m['value']):>16}  {m['unit']}")
    rate = record["failed"] / record["attempted"] if record["attempted"] else 0.0
    print(f"{'error_rate':<34}{_fmt(rate):>16}  1  ({record['failed']} failed of {record['attempted']} attempted)")
    if "per_layer" in record:
        moves = {name: target for name, _, _, _, target in harness.PER_LAYER}
        print(f"{'per-layer metric':<34}{'value':>16}  {'unit':<6}moves")
        for name, m in record["per_layer"].items():
            print(f"{name:<34}{_fmt(m['value']):>16}  {m['unit']:<6}{moves[name]}")
        print(f"{'span (timed phases)':<34}{'calls':>8}{'self_s':>12}{'total_s':>12}{'records':>10}")
        for name, row in sorted(record["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{name:<34}{row['calls']:>8}{row['self_s']:>12.4f}{row['total_s']:>12.4f}{row['records']:>10}")
        cov = record["step_coverage"]
        print(f"train-step coverage: {cov['steps']} steps, worst share of step time in span self times "
              f"{_fmt(cov['worst'])} (tolerance {cov['tolerance']:.2f}); example {cov['example']}")
    print(f"run wall time {record['wall_s']:.1f} s")


def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}"


def run_all(args, harness) -> int:
    """Each workload in a fresh process, untraced then traced; then a summary with the tracing overhead."""
    status = 0
    records = {}
    for name in harness.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            code = subprocess.run(cmd, cwd=ROOT, check=False).returncode
            status = status or code
            path = OUT / f"{name}-seed{args.seed}-trace{trace}.json"
            if code in (0, 1) and path.is_file():
                records[name, trace] = json.loads(path.read_text(encoding="utf-8"))
    print("== summary")
    print(f"{'workload':<13}{'metric':<24}{'value':>14}  unit")
    attempted = failed = 0
    combined = {}
    for name in harness.WORKLOADS:
        rec = records.get((name, 0))
        if rec is None:
            print(f"{name:<13}no result")
            continue
        attempted += rec["attempted"]
        failed += rec["failed"]
        for metric, m in rec["end_to_end"].items():
            combined[f"{name}.{metric}"] = m
            print(f"{name:<13}{metric:<24}{_fmt(m['value']):>14}  {m['unit']}")
        rate = rec["failed"] / rec["attempted"]
        print(f"{name:<13}{'error_rate':<24}{_fmt(rate):>14}  1")
        traced = records.get((name, 1))
        if traced is not None:
            for label, key, per in (("train step", "train_rounds", harness.STEPS_PER_ROUND), ("eval batch", "eval_calls", 1)):
                if not (rec[key] and traced[key]):
                    continue
                plain = statistics.median(r["seconds"] for r in rec[key]) / per
                with_trace = statistics.median(r["seconds"] for r in traced[key]) / per
                print(f"{name:<13}tracing overhead, {label}: {1e3 * (with_trace - plain):+.2f} ms "
                      f"({100 * (with_trace - plain) / plain:+.2f}% of {1e3 * plain:.1f} ms; traced minus untraced run)")
    print(json.dumps({"correct": status == 0 and failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return status or (1 if failed else 0)


if __name__ == "__main__":
    sys.exit(main())
