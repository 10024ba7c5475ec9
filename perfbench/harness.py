"""Workloads, set-up, timed phases and correctness gates of the benchmark.

Every workload runs the same pipeline on a generated log: set-up (ingest,
core filter, leave-one-out split, parameter init, checkpoint save and load),
then a train phase of ``train_model`` rounds and an eval phase of
``evaluate_split`` batches. Each workload has a count of rounds and batches.
Untraced, the phase the workload is about keeps going past its count until
the requested seconds have passed; the other phase runs its small count, so
every end-to-end metric is measured on every workload. Traced, both phases
run exactly their counts, so per-layer sums compare across commits. The load
is a closed loop in one process: each round or batch starts when the
previous one ends.

The package is called only through its public module functions, looked up on
the modules at call time, so a traced run sees every call.
"""

from __future__ import annotations

import dataclasses
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mambarec import autodiff, data, mamba, model, train
from mambarec.config import RunConfig
from mambarec.errors import MambaRecError

from . import gen
from .trace import Tracer, self_times, step_coverage

EVAL_BATCH = 64  # users per evaluate_split call, the default batch size
SETUP_REPS = 2  # set-ups per run; setup_s is their median
STEPS_PER_ROUND = 2  # a train round is train_model over 2 epochs of one batch
SAMPLE_USERS = 4  # users in the taped-versus-untaped logits check, and the batch of the gradient check
GRAD_EPS = 1e-4  # float64 finite-difference step, as a distance in parameter space
GRAD_TOL = 1e-5  # tolerance of the gradient check, relative to the gradient's norm
STEP_COVERAGE_MIN = 0.98  # share of a train step that its spans' self times must cover


@dataclass(frozen=True)
class Workload:
    name: str
    shape: gen.Shape
    max_len: int
    train_batch: int
    timed: str  # the phase that, untraced, runs on until --seconds: "train" or "eval"
    train_rounds: int
    eval_batches: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-short", gen.BEAUTY, 50, 64, "train", 1, 12,
            "Beauty-shaped data, default config (L=50, batch 64): padding-heavy rows, so the 12.1k-item head, "
            "cross-entropy and Adam weigh most; the largest memory peak",
        ),
        Workload(
            "train-long", gen.ML1M, 200, 8, "train", 1, 3,
            "ML-1M-shaped data at L=200, batch 8: the taped scan's backward is quadratic in L, so a fused O(L) scan "
            "shows here first",
        ),
        Workload(
            "eval-long", gen.ML1M, 200, 2, "eval", 3, 6,
            "ML-1M-shaped full-catalog ranking of test users from a reloaded checkpoint: the untaped read path, which a "
            "backward-only change must leave unchanged",
        ),
    )
}

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("train_examples_per_s", "1/s", "higher", 0.25),
    ("eval_users_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
    ("train_loss_final", "nats", "lower", 0.1),
)

# name, unit, how it is computed, span, the end-to-end metric it should move.
#   self:    self time summed over the timed phases
#   total:   inclusive time summed over the timed phases
#   setup:   self time per set-up, median over the set-ups
#   records: tape records added per train step, mean over train steps
PER_LAYER = (
    ("autodiff.Tape.backward.s", "s", "self", "autodiff.Tape.backward", "train_examples_per_s, mostly train-long"),
    ("autodiff.tape_records", "count", "records", "train.forward", "train_examples_per_s, mostly train-long"),
    ("autodiff.softmax_cross_entropy.s", "s", "self", "autodiff.softmax_cross_entropy",
     "train_examples_per_s on train-short"),
    ("mamba.ssm_scan.s", "s", "self", "mamba.ssm_scan",
     "train_examples_per_s on train-long; eval_users_per_s on eval-long"),
    ("mamba.ssm_scan.tape_records", "count", "records", "mamba.ssm_scan", "train_examples_per_s on train-long"),
    ("mamba.mamba_forward.s", "s", "self", "mamba.mamba_forward", "all three workloads"),
    ("layers.conv_gru.s", "s", "self", "layers.conv_gru", "train_examples_per_s on train-short and train-long"),
    ("layers.conv_gru.tape_records", "count", "records", "layers.conv_gru",
     "train_examples_per_s on train-short and train-long"),
    ("layers.dense_conv_gate.s", "s", "self", "layers.dense_conv_gate", "all three workloads"),
    ("layers.partial_flip.s", "s", "self", "layers.partial_flip", "all three workloads"),
    ("layers.bidirectional_mamba.s", "s", "self", "layers.bidirectional_mamba", "all three workloads"),
    ("layers.encoder_layer.s", "s", "self", "layers.encoder_layer", "train-short and eval-long"),
    ("model.embed.s", "s", "self", "model.embed", "train_examples_per_s on train-short"),
    ("model.score.s", "s", "self", "model.score", "train_examples_per_s on train-short"),
    ("model.init_model_params.s", "s", "setup", "model.init_model_params", "setup_s"),
    ("model.load_checkpoint.s", "s", "setup", "model.load_checkpoint", "setup_s"),
    ("train.forward.s", "s", "total", "train.forward", "train_examples_per_s"),
    ("train.backward.s", "s", "total", "autodiff.Tape.backward", "train_examples_per_s"),
    ("train.Adam.step.s", "s", "total", "train.Adam.step", "train_examples_per_s, most on train-short"),
    ("train.evaluate_split.s", "s", "total", "train.evaluate_split", "eval_users_per_s"),
    ("metrics.rank_targets_batch.s", "s", "self", "metrics.rank_targets_batch", "eval_users_per_s on eval-long"),
    ("metrics.grouped_report.s", "s", "self", "metrics.grouped_report", "eval_users_per_s on eval-long"),
    ("data.ingest.s", "s", "setup", "data.ingest", "setup_s, mostly train-long and eval-long"),
    ("data.filter_and_bound.s", "s", "setup", "data.filter_and_bound", "setup_s, mostly train-long and eval-long"),
    ("data.split_leave_one_out.s", "s", "setup", "data.split_leave_one_out",
     "setup_s, mostly train-long and eval-long"),
    ("data.make_batch.s", "s", "self", "data.make_batch", "the throughput metrics (predicted negligible)"),
)

TIMED_PHASES = ("train", "eval")


class Ledger:
    """Operations attempted and failed, and the outcome of every gate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.gates: list[dict] = []

    def ops(self, n: int, ok: bool) -> None:
        self.attempted += n
        self.failed += 0 if ok else n

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        self.ops(1, ok)
        self.gates.append({"gate": name, "ok": bool(ok), "detail": detail})


# ---------------------------------------------------------------------------
# environment


def environment(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": _mem_total_mb(),
        "git_sha": git_sha(root),
        "seed": seed,
    }


def _mem_total_mb() -> float:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20


def git_sha(root: Path) -> str:
    """HEAD's commit read from ``.git`` without running git; "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# the run


def run(wl: Workload, seed: int, seconds: float, tracer: Tracer | None, work: Path) -> dict:
    """Generate, set up, measure and check one workload; returns the detail record.

    With a ``tracer``, its wrappers are installed for the whole run and each
    span is labelled with the phase it ran in.
    """
    ledger = Ledger()

    t0 = time.perf_counter()
    log = gen.generate(wl.shape, seed)
    tsv = work / "interactions.tsv"
    tsv.write_text(gen.tsv_text(log), encoding="utf-8")
    gen_s = time.perf_counter() - t0
    shape = gen.log_shape(log)
    del log

    cfg = RunConfig(max_len=wl.max_len, batch_size=EVAL_BATCH, seed=seed)
    ckpt = work / "checkpoint.npz"

    def set_up():
        seqs = data.ingest(tsv)
        kept = data.filter_and_bound(seqs, cfg.min_len, cfg.max_len_cap)
        split = data.split_leave_one_out(kept, cfg.max_len)
        fresh = model.init_model_params(cfg, split.n_items, train.seeded_rngs(cfg.seed)["init"])
        model.save_checkpoint(ckpt, fresh, cfg.to_dict())
        loaded, _ = model.load_checkpoint(ckpt)
        return split, fresh, loaded

    if tracer:
        tracer.install()
    try:
        setup_times = []
        for rep in range(SETUP_REPS):
            if tracer:
                tracer.phase = f"setup{rep}"
            t0 = time.perf_counter()
            split, fresh, params = set_up()
            setup_times.append(time.perf_counter() - t0)

        ledger.gate(
            "pipeline keeps the generated shape",
            split.n_users == shape["users"] and split.n_items == shape["items"],
            f"split {split.n_users} users / {split.n_items} items, generated {shape['users']} / {shape['items']}",
        )
        fresh_arrays = [t.data for _, t in model.named_tensors(fresh)]
        pristine = [t.data.copy() for _, t in model.named_tensors(params)]
        ledger.gate(
            "checkpoint round trip is bit-exact",
            len(fresh_arrays) == len(pristine)
            and all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(fresh_arrays, pristine)),
        )
        del fresh, fresh_arrays

        def restore():
            for (_, t), a in zip(model.named_tensors(params), pristine):
                t.data = a.copy()
                t.grad = None

        rng = np.random.default_rng([seed, 7])
        rows = [split.train[i] for i in rng.choice(len(split.train), size=wl.train_batch, replace=False)]
        train_split = dataclasses.replace(split, train=rows, valid=[])
        train_cfg = cfg.replace(batch_size=wl.train_batch, epochs=STEPS_PER_ROUND)
        rounds: list[dict] = []

        def train_round(_i: int) -> bool:
            restore()
            t0 = time.perf_counter()
            try:
                result = train.train_model(train_cfg, train_split, params)
            except MambaRecError as err:
                ledger.ops(STEPS_PER_ROUND, False)
                ledger.gate("train round completes", False, f"{type(err).__name__}: {err}")
                return False
            seconds_taken = time.perf_counter() - t0
            losses = [row["train_loss"] for row in result.history]
            ok = len(losses) == STEPS_PER_ROUND and all(math.isfinite(x) for x in losses)
            ledger.ops(STEPS_PER_ROUND, ok)
            rounds.append({"seconds": seconds_taken, "losses": losses})
            return ok

        eval_calls: list[dict] = []
        cutoffs = (10, split.n_items)

        def eval_batch(i: int) -> bool:
            start = (i * EVAL_BATCH) % len(split.test)
            chunk = split.test[start : start + EVAL_BATCH]
            view = dataclasses.replace(split, test=chunk)
            t0 = time.perf_counter()
            try:
                report = train.evaluate_split(params, cfg, view, "test", cutoffs=cutoffs)
            except MambaRecError as err:
                ledger.ops(1, False)
                ledger.gate("eval batch completes", False, f"{type(err).__name__}: {err}")
                return False
            seconds_taken = time.perf_counter() - t0
            ok, detail = _eval_report_ok(report, len(chunk), split.n_items)
            ledger.ops(1, ok)
            if not ok:
                ledger.gate("eval report is well formed", False, detail)
            eval_calls.append({"seconds": seconds_taken, "users": len(chunk)})
            return ok

        phases = {"train": train_round, "eval": eval_batch}
        counts = {"train": wl.train_rounds, "eval": wl.eval_batches}
        for name in (wl.timed, "eval" if wl.timed == "train" else "train"):
            budget = seconds if name == wl.timed and tracer is None else 0.0
            if tracer:
                tracer.phase = name
            if name == "eval":
                restore()
            _run_phase(phases[name], budget, counts[name])
            if name == wl.timed:  # the probe of the other phase may not set the peak
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        if rounds:
            first = rounds[0]["losses"]
            ledger.gate("train loss falls within a round", first[-1] < first[0], f"losses {first}")
        if len(rounds) > 1:  # a train round outlasts --seconds, so only eval-long's probe repeats one
            ledger.gate(
                "train rounds are deterministic",
                all(r["losses"] == rounds[0]["losses"] for r in rounds),
                f"{len(rounds)} rounds",
            )
        ledger.gate("eval ran", bool(eval_calls))
        ledger.gate("train ran", bool(rounds))

        if tracer:
            tracer.phase = "check"
        restore()
        _sample_checks(ledger, split, params, cfg, seed)
        _scan_gradient_check(ledger, split.max_len, seed)
    finally:
        if tracer:
            tracer.uninstall()

    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(tracer is not None),
        "generated": {**shape, "gen_s": gen_s},
        "split": {"users": split.n_users, "items": split.n_items, "train_rows": len(split.train),
                  "test_rows": len(split.test), "max_len": split.max_len},
        "setup_runs_s": setup_times,
        "train_rounds": rounds,
        "eval_calls": eval_calls,
        "gates": ledger.gates,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
    }
    record["end_to_end"] = end_to_end(wl, setup_times, rounds, eval_calls, peak_rss_mb)
    if tracer:
        record["per_layer"], record["spans"], record["step_coverage"] = per_layer(tracer)
        worst = record["step_coverage"]["worst"]
        ledger.gate(
            "self times cover each train step",
            worst is not None and worst >= STEP_COVERAGE_MIN,
            f"worst coverage {worst}",
        )
        record["gates"], record["attempted"], record["failed"] = ledger.gates, ledger.attempted, ledger.failed
    return record


def _run_phase(unit, budget_s: float, minimum: int) -> None:
    """Closed loop: run units back to back until the budget is spent and the minimum met."""
    start = time.perf_counter()
    done = 0
    while done < minimum or time.perf_counter() - start < budget_s:
        if not unit(done):
            return
        done += 1


def _eval_report_ok(report, n_users: int, n_items: int) -> tuple[bool, str]:
    """Ranks lie in [1, K] (HR@K is 1, every value a share) and every user was counted."""
    if report.counts.get("Overall") != n_users:
        return False, f"n_users {report.counts.get('Overall')} != {n_users}"
    for key, value in report.values.items():
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            return False, f"{key} = {value} outside [0, 1]"
    if report.get("HR", n_items) != 1.0:
        return False, f"HR@{n_items} = {report.get('HR', n_items)}: a rank exceeds the catalog"
    return True, ""


def reference_ranks(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """1-based rank of each target under a descending stable sort (ties by item index)."""
    order = np.argsort(-logits, axis=1, kind="stable")
    return np.array([int(np.flatnonzero(order[i] == t)[0]) + 1 for i, t in enumerate(targets)])


def _sample_checks(ledger: Ledger, split, params, cfg: RunConfig, seed: int) -> None:
    """Pin the untaped inference path to the taped training path, and the ranking to a reference."""
    rng = np.random.default_rng([seed, 11])
    rows = [split.test[i] for i in rng.choice(len(split.test), size=SAMPLE_USERS, replace=False)]
    batch = data.make_batch(rows, split.max_len)
    opts = model.layer_options(cfg)
    plain = model.score(params, batch, opts).data
    with autodiff.Tape():
        taped = model.score(params, batch, opts).data
    scale = float(np.abs(plain).max())
    diff = float(np.abs(taped - plain).max())
    ledger.gate(
        "taped and untaped logits agree (float32)",
        plain.shape == taped.shape and diff <= 1e-5 * max(scale, 1.0),
        f"max |diff| {diff:.3e}, max |logit| {scale:.3e}",
    )
    ranks = reference_ranks(plain, batch.targets - 1)
    view = dataclasses.replace(split, test=rows)
    cutoffs = (10, split.n_items)
    report = train.evaluate_split(params, cfg, view, "test", cutoffs=cutoffs)
    expected = {}
    for k in cutoffs:
        hit = ranks <= k
        expected[("HR", k)] = float(hit.mean())
        expected[("NDCG", k)] = float(np.where(hit, 1.0 / np.log2(ranks + 1.0), 0.0).mean())
        expected[("MRR", k)] = float(np.where(hit, 1.0 / ranks, 0.0).mean())
    worst = max(abs(report.get(m, k) - v) for (m, k), v in expected.items())
    ledger.gate("eval metrics match reference ranks", worst <= 1e-12, f"ranks {ranks.tolist()}, max diff {worst:.1e}")


def _scan_gradient_check(ledger: Ledger, length: int, seed: int) -> None:
    """Pin ``Tape.backward``'s gradients of the scan's inputs to finite differences of the untaped forward.

    At the model's initial scale the scan adds almost nothing to the loss
    (its parameter gradients are about 1e-21), so a zeroed or scaled scan
    backward would still train. The check therefore runs one seeded Mamba
    block at unit scale on ``SAMPLE_USERS`` rows of the workload's length,
    with loss ``sum(w * mamba_forward(x))``. It runs in float64, where a
    central difference is exact to about 1e-9, so a wrong gradient shows in
    any direction. For each scan parameter it compares the taped gradient
    ``g`` with central differences along ``g / |g|``, which catches a scaled
    or zeroed gradient, and along a random unit direction, which catches a
    missing or wrong part of ``g``. Errors are relative to ``|g|``.
    """
    rng = np.random.default_rng([seed, 13])
    dim = 16
    block = mamba.init_mamba_params(rng, dim=dim, d_state=8, dtype=np.float64, init_std=0.3)
    x = autodiff.Tensor(rng.normal(size=(SAMPLE_USERS, length, dim)))
    w = rng.normal(size=x.shape)

    def untaped_loss() -> float:
        return float((mamba.mamba_forward(x, block).data * w).sum())

    with autodiff.Tape() as tape:
        loss = autodiff.tsum(autodiff.mul(mamba.mamba_forward(x, block), autodiff.Tensor(w)))
    tape.backward(loss)
    for name in ("A_log", "dt_bias", "D_skip", "x_proj", "dt_proj"):
        param = getattr(block, name)
        grad = param.grad if param.grad is not None else np.zeros(param.shape)
        norm = float(np.linalg.norm(grad))
        base = param.data
        random_dir = rng.normal(size=base.shape)
        errors = []
        for direction in (grad / norm if norm > 0.0 else grad, random_dir / np.linalg.norm(random_dir)):
            param.data = base + GRAD_EPS * direction
            plus = untaped_loss()
            param.data = base - GRAD_EPS * direction
            minus = untaped_loss()
            param.data = base
            fd = (plus - minus) / (2 * GRAD_EPS)
            errors.append(abs(fd - float((grad * direction).sum())) / norm if norm > 0.0 else math.inf)
        ledger.gate(
            f"scan gradient of {name} matches finite differences",
            max(errors) <= GRAD_TOL,
            f"|g| {norm:.4e}, relative error along g {errors[0]:.1e}, along a random direction {errors[1]:.1e}",
        )


# ---------------------------------------------------------------------------
# metrics


def end_to_end(wl: Workload, setup_times, rounds, eval_calls, peak_rss_mb: float) -> dict:
    values = {
        "train_examples_per_s": _median([STEPS_PER_ROUND * wl.train_batch / r["seconds"] for r in rounds]),
        "eval_users_per_s": _median([c["users"] / c["seconds"] for c in eval_calls]),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": _median(setup_times),
        "train_loss_final": rounds[0]["losses"][-1] if rounds else None,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}


def _median(values):
    return statistics.median(values) if values else None


def per_layer(tracer: Tracer) -> tuple[dict, dict, dict]:
    """Per-layer metrics, a per-span summary and the train-step coverage check."""
    spans = tracer.spans
    selfs = self_times(spans)
    train_steps = {s.step for s in spans if s.phase == "train" and s.name == "train.forward"}
    n_steps = max(len(train_steps), 1)
    setup_phases = sorted({s.phase for s in spans if s.phase.startswith("setup")})

    summary: dict[str, dict] = {}
    for s, own in zip(spans, selfs):
        row = summary.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "records": 0})
        if s.phase in TIMED_PHASES:
            row["calls"] += 1
            row["self_s"] += own
            row["total_s"] += s.duration
            if s.step in train_steps:
                row["records"] += s.records

    def setup_median(span_name):
        per_rep = {p: 0.0 for p in setup_phases}
        for s, own in zip(spans, selfs):
            if s.name == span_name and s.phase in per_rep:
                per_rep[s.phase] += own
        return _median(list(per_rep.values()))

    metrics = {}
    for name, unit, how, span_name, _ in PER_LAYER:
        row = summary.get(span_name, {"self_s": 0.0, "total_s": 0.0, "records": 0})
        if how == "setup":
            value = setup_median(span_name)
        elif how == "records":
            value = row["records"] / n_steps
        else:
            value = row[f"{how}_s"]
        metrics[name] = {"value": value, "unit": unit}

    steps = step_coverage(spans, selfs, train_steps)
    shares = [own / dur for _, dur, own in steps if dur > 0]
    coverage = {
        "steps": len(steps),
        "worst": min(shares) if shares else None,
        "tolerance": 1.0 - STEP_COVERAGE_MIN,
        "example": {"step": steps[0][0], "step_s": steps[0][1], "self_sum_s": steps[0][2]} if steps else None,
    }
    return metrics, summary, coverage
