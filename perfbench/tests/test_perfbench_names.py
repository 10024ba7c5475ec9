"""BENCHMARK.json agrees with the harness, and every name is well formed."""

import json
import re
from pathlib import Path

from perfbench import harness, trace

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_every_metric_and_workload_name_is_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))


def test_spec_matches_the_harness():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [(w.name, w.why) for w in harness.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [(n, u) for n, u, *_ in harness.PER_LAYER]
    assert SPEC["paths"] == ["perfbench"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower" for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def test_every_per_layer_metric_reads_a_traced_span():
    spans = {span for _, _, span in trace.TARGETS}
    for name, _, how, span, _ in harness.PER_LAYER:
        assert span in spans, name
        assert how in ("self", "total", "setup", "records"), name
