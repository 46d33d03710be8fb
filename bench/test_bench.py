"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import inspect
import json
import os

import pytest

import run

run.import_library()

import stablepartners as sp  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, LatinRoute  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_for_a_seed(name):
    wl = WORKLOADS[name]()
    first = [wl.generate(7, i) for i in range(12)]
    assert first == [wl.generate(7, i) for i in range(12)]
    assert first != [wl.generate(8, i) for i in range(12)]


def _bindings():
    """Every attribute a tracer may rebind, as (owner, name, object)."""
    owners = [sp] + [getattr(sp, layer) for layer in tracing.LAYERS]
    owners += [c for c in vars(sp.choice).values() if inspect.isclass(c)]
    return [(o, k, v) for o in owners for k, v in list(vars(o).items())]


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = _bindings()
    original = sp.build_full_route
    wl = LatinRoute()
    items = run.build_pool(wl, 3, 2, str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sp.build_full_route is not original
        outs, _, _ = run.timed_loop(wl, items, limit=2, tracer=tracer)
    finally:
        tracer.uninstall()
    assert all(err is None for _, err in outs)
    after = {(id(o), k): v for o, k, v in _bindings()}
    changed = [k for o, k, v in before if after[(id(o), k)] is not v]
    assert changed == []

    metrics = tracer.metrics(len(outs))
    layers = sum(metrics[layer + ".self_s"][0] for layer in tracing.LAYERS)
    assert metrics["bipartite.find_rotations_calls"][0] > 0
    assert layers == pytest.approx(metrics["trace.op_s"][0], rel=0.1)


class CorruptedLatin(LatinRoute):
    """Every other route is cut short, so its end is not the firm optimum."""

    pool = 4

    def operate(self, inst, i):
        route = super().operate(inst, i)
        if i % 2:
            route = sp.Route(route.start, route.steps[:-1])
        return route


def test_corrupted_answers_count_as_failed(tmp_path):
    result, rows = run.run(CorruptedLatin(), 3, 60, 0, 0.0, str(tmp_path))
    assert result["attempted"] == 4
    assert result["failed"] == 2
    assert not result["correct"]
    assert dict((r[0], r[1]) for r in rows)["failed_frac"] == 0.5


def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    traced = {name: unit for name, (_, unit) in tracing.Tracer().metrics(1).items()}
    traced["trace.overhead_frac"] = "1"
    assert per_layer == traced
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
