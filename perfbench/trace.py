"""Span recording around the public functions of the mambarec layer modules.

A traced run replaces each measured function at every module attribute its
callers look it up through (``from .mamba import mamba_forward`` in
``layers`` makes ``mambarec.layers.mamba_forward`` the site ``layers`` calls),
records one span per call, and puts the originals back afterwards. Spans stay
in memory and are written out once the run ends. Nothing here runs when
tracing is off.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass

# The layer modules; ``config``, ``cli``, ``errors`` and ``bench`` are not on
# a measured path.
MODULES = ("data", "model", "layers", "mamba", "autodiff", "train", "metrics")

# (defining module, attribute path, span name). Span names follow the module
# that owns the code, except ``batch_loss``: only ``train_model`` calls it,
# under a tape, so its span is the training forward pass.
TARGETS = (
    ("data", "ingest", "data.ingest"),
    ("data", "filter_and_bound", "data.filter_and_bound"),
    ("data", "split_leave_one_out", "data.split_leave_one_out"),
    ("data", "make_batch", "data.make_batch"),
    ("model", "init_model_params", "model.init_model_params"),
    ("model", "save_checkpoint", "model.save_checkpoint"),
    ("model", "load_checkpoint", "model.load_checkpoint"),
    ("model", "batch_loss", "train.forward"),
    ("model", "score", "model.score"),
    ("model", "encode", "model.encode"),
    ("model", "embed", "model.embed"),
    ("layers", "encoder_stack", "layers.encoder_stack"),
    ("layers", "encoder_layer", "layers.encoder_layer"),
    ("layers", "bidirectional_mamba", "layers.bidirectional_mamba"),
    ("layers", "partial_flip", "layers.partial_flip"),
    ("layers", "dense_conv_gate", "layers.dense_conv_gate"),
    ("layers", "conv_gru", "layers.conv_gru"),
    ("mamba", "mamba_forward", "mamba.mamba_forward"),
    ("mamba", "ssm_scan", "mamba.ssm_scan"),
    ("autodiff", "Tape.backward", "autodiff.Tape.backward"),
    ("autodiff", "softmax_cross_entropy", "autodiff.softmax_cross_entropy"),
    ("train", "train_model", "train.train_model"),
    ("train", "evaluate_split", "train.evaluate_split"),
    ("train", "Adam.step", "train.Adam.step"),
    ("metrics", "rank_targets_batch", "metrics.rank_targets_batch"),
    ("metrics", "grouped_report", "metrics.grouped_report"),
)

# Each batch the program builds starts a new step: a train step or an eval batch.
STEP_START = "data.make_batch"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    step: int
    phase: str
    records: int = 0  # tape records added during the call

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while installed; ``phase`` labels the spans that follow."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = ""
        self.step = 0
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        mods = {name: importlib.import_module(f"mambarec.{name}") for name in MODULES}
        tape_cls = mods["autodiff"].Tape
        for mod_name, attr, span_name in TARGETS:
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:  # a method: patch the class it is looked up on
                owner = getattr(mods[mod_name], owner_name)
                self._patch(owner, leaf, self._wrap(getattr(owner, leaf), span_name, tape_cls))
                continue
            original = getattr(mods[mod_name], leaf)
            traced = self._wrap(original, span_name, tape_cls)
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, traced)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, fn, name: str, tape_cls):
        spans = self.spans
        opened = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == STEP_START:
                self.step += 1
            tape = tape_cls.active()
            before = len(tape) if tape is not None else 0
            index = len(spans)
            span = Span(name, 0.0, 0.0, opened[-1] if opened else -1, self.step, self.phase)
            spans.append(span)
            opened.append(index)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                opened.pop()
                if tape is not None:
                    span.records = len(tape) - before

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                row = {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                       "step": s.step, "phase": s.phase, "records": s.records}
                fh.write(json.dumps(row) + "\n")


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered(children[i]) for i, s in enumerate(spans)]


def step_coverage(spans: list[Span], selfs: list[float], steps) -> list[tuple[int, float, float]]:
    """(step, step duration, sum of self times under it) for each step id in ``steps``.

    A step's top-level spans are its ``STEP_START`` span and the spans with
    the same step id and the same parent, e.g. forward, backward and the
    optimizer update under ``train_model``. The step runs from the first of
    them to the end of the last, and the self times of every span beneath
    them add up to that duration less the gaps no span covers.
    """
    parent_of = {s.step: s.parent for s in spans if s.name == STEP_START and s.step in steps}
    bounds: dict[int, list[float]] = {}
    total: dict[int, float] = {}
    for s, own in zip(spans, selfs):
        if s.step not in parent_of:
            continue
        top = s
        while top.parent != parent_of[s.step] and top.parent >= 0:
            top = spans[top.parent]
        if top.parent != parent_of[s.step] or top.step != s.step:
            continue
        b = bounds.setdefault(s.step, [top.start, top.end])
        b[0] = min(b[0], top.start)
        b[1] = max(b[1], top.end)
        total[s.step] = total.get(s.step, 0.0) + own
    return [(step, bounds[step][1] - bounds[step][0], total[step]) for step in sorted(bounds)]
