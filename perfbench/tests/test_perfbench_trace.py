"""Span arithmetic on hand-built trees, and wrapper install and removal."""

import importlib

import numpy as np
import pytest

from perfbench import trace
from perfbench.trace import Span


def _span(name, start, end, parent=-1, step=0):
    return Span(name, start, end, parent, step, "train")


def test_covered_merges_overlaps():
    assert trace.covered([]) == 0.0
    assert trace.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert trace.covered([(5.0, 6.0), (0.0, 10.0)]) == pytest.approx(10.0)


def test_self_time_is_duration_minus_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 5.0, 9.0, parent=0),
        _span("c", 6.0, 7.0, parent=2),
    ]
    assert trace.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])
    assert sum(trace.self_times(spans)) == pytest.approx(spans[0].duration)


def test_step_coverage_sums_self_times_under_one_step():
    spans = [
        _span("train.train_model", 0.0, 20.0, step=0),
        _span(trace.STEP_START, 1.0, 2.0, parent=0, step=1),
        _span("train.forward", 2.0, 5.0, parent=0, step=1),
        _span("model.score", 3.0, 4.0, parent=2, step=1),
        _span("autodiff.Tape.backward", 5.0, 9.0, parent=0, step=1),
        _span("train.Adam.step", 9.25, 9.5, parent=0, step=1),  # 0.25 s gap before it
        # a later round starts while step 1 is still the current step id
        _span("train.train_model", 21.0, 30.0, step=1),
    ]
    ((step, duration, self_sum),) = trace.step_coverage(spans, trace.self_times(spans), {1})
    assert step == 1
    assert duration == pytest.approx(8.5)
    assert self_sum == pytest.approx(8.25)


def test_tracer_records_nested_spans_and_restores_modules():
    modules = {name: importlib.import_module(f"mambarec.{name}") for name in trace.MODULES}
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    backward_before = modules["autodiff"].Tape.__dict__["backward"]

    from mambarec.autodiff import Tape, Tensor
    from mambarec.mamba import init_mamba_params

    params = init_mamba_params(np.random.default_rng(0), dim=4, d_state=2)
    x = Tensor(np.random.default_rng(1).normal(size=(1, 3, 4)).astype(np.float32))
    tracer = trace.Tracer()
    tracer.install()
    try:
        tracer.phase = "train"
        with Tape() as tape:
            loss = modules["layers"].mamba_forward(x, params).sum()
        tape.backward(loss)
    finally:
        tracer.uninstall()

    assert {name: dict(vars(mod)) for name, mod in modules.items()} == before
    assert modules["autodiff"].Tape.__dict__["backward"] is backward_before
    names = [s.name for s in tracer.spans]
    assert names == ["mamba.mamba_forward", "mamba.ssm_scan", "autodiff.Tape.backward"]
    block, scan, _ = tracer.spans
    assert scan.parent == 0 and block.parent == -1
    assert 0 < scan.records < block.records < len(tape)
    assert all(s.phase == "train" and s.end >= s.start for s in tracer.spans)
