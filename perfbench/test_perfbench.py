"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q

The smoke mode runs each workload for one round at generation 3.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import COUNTS, END, NAME, Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    result = run.measure(workload, seed=7, seconds=0, trace=trace, smoke=True)["result"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_reference_digest_counts_as_failure():
    refs = copy.deepcopy(workloads.load_refs())
    for key in refs["outputs"]:
        if key.startswith("build "):
            refs["outputs"][key] = "0" * 64
    result = run.measure("build-hat", seed=7, seconds=0, trace=False, smoke=True,
                         refs=refs)["result"]
    assert result["failed"] > 0 and not result["correct"]


def test_seed_fixes_the_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.rounds(name, 3, 5) == workloads.rounds(name, 3, 5)
        assert len({json.dumps(workloads.rounds(name, s, 5)) for s in range(10)}) > 1


def test_expand_gets_one_span_that_lasts_until_exhausted():
    from hatfam import configfile, geometry, substitution, supervectors

    tile = geometry.tile_from_config(configfile.load_text("tile.cfg"))
    layout = substitution.layout_from_config(configfile.load_text("layout.cfg"), tile)
    node = substitution.build("hat", 3, supervectors.hat_params(), layout)
    original = substitution.expand
    tracer = Tracer()
    with tracer.installed():
        it = substitution.expand(node)
        first = [next(it)]
        open_while_consumed = tracer.spans[-1][END] is None
        placed = first + list(it)
    spans = [s for s in tracer.spans if s[NAME] == "substitution.expand"]
    assert open_while_consumed
    assert len(spans) == 1 and spans[0][END] is not None
    assert spans[0][COUNTS]["hats"] == len(placed) == workloads.hats("hat", 3)
    assert substitution.expand is original
