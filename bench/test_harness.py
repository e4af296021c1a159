"""Tests of the benchmark harness itself.

    python3 -m pytest bench/test_harness.py -q
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_library()

import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    # root [0, 100] holds a [10, 40] and b [50, 90]; a holds c [20, 25] and
    # c again [30, 38]; b holds c [60, 70]
    timeline = [
        (0, "enter", "root"),
        (10, "enter", "a"),
        (20, "enter", "c"),
        (25, "exit", None),
        (30, "enter", "c"),
        (38, "exit", None),
        (40, "exit", None),
        (50, "enter", "b"),
        (60, "enter", "c"),
        (70, "exit", None),
        (90, "exit", None),
        (100, "exit", None),
    ]
    for now, event, name in timeline:
        clock.now = now
        tracer.enter(name) if event == "enter" else tracer.exit()
    assert dict(tracer.calls) == {"root": 1, "a": 1, "b": 1, "c": 3}
    assert dict(tracer.total_ns) == {"root": 100, "a": 30, "b": 40, "c": 23}
    assert dict(tracer.self_ns) == {"root": 30, "a": 17, "b": 30, "c": 23}
    assert sum(tracer.self_ns.values()) == tracer.total_ns["root"]


@pytest.mark.parametrize(
    "count, p90, beyond",
    [(10, 9, 1), (99, 90, 9), (100, 90, 10), (101, 91, 10), (250, 225, 25)],
)
def test_nearest_rank_percentile_and_samples_beyond(count, p90, beyond):
    values = list(range(count, 0, -1))
    assert run.percentile(values, 90) == p90
    assert run.samples_beyond(count, 90) == beyond
    assert run.percentile(values, 50) == (count + 1) // 2


def test_too_few_operations_for_p90_are_refused():
    class Trivial:
        def execute(self, op):
            return op.expected

        def check(self, op, out):
            return out == op.expected

    ops = [workloads.Op("g", (), expected=i) for i in range(99)]
    with pytest.raises(RuntimeError, match="beyond p90"):
        run.timed_pass(Trivial(), ops)
    result = run.timed_pass(Trivial(), ops + [workloads.Op("g", (), expected=99)])
    assert not result["failures"] and len(result["latencies"]) == 100


def test_quartile_spread_matches_statistics_quantiles():
    med, q1, q3, spread = run.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert (med, q1, q3) == (5.5, 2.75, 8.25)
    assert spread == pytest.approx(5.5 / 5.5)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_seed_fixes_the_inputs(name, tmp_path):
    workload = workloads.WORKLOADS[name]

    def input_digest(seed, sub):
        (tmp_path / sub).mkdir()
        ops = workload.build(seed, 0.1, tmp_path / sub)
        return run.digest((op.group, op.digest_input) for op in ops)

    first = input_digest(1, "a")
    assert input_digest(1, "b") == first
    assert input_digest(2, "c") != first


@pytest.mark.parametrize("name", ["identity-campaign", "bfs-oracle"])
def test_fresh_inputs_are_new_objects_with_the_same_answers(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    ops = workload.build(4, 0.1, tmp_path)[:12]
    workload.settle(ops)
    # the first input object of a payload; bfs-oracle payloads start with a kind
    first = 1 if name == "bfs-oracle" else 0
    for op in ops:
        copy = workload.fresh(op)
        assert copy.payload[first] is not op.payload[first]
        assert workload.check(copy, workload.execute(copy))


def _bindings():
    """Every function-valued attribute of every btpgl module, plus the
    methods the tracer counts, as (owner, name) -> object."""
    out = {}
    for module in tracing._btpgl_modules():
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj):
                out[(module.__name__, attr)] = obj
    for layer, cls_name, method in tracing.COUNT_ONLY_METHODS:
        cls = getattr(sys.modules[f"btpgl.{layer}"], cls_name)
        out[(cls_name, method)] = cls.__dict__[method]
    return out


def test_traced_run_rebinds_every_holder_and_restores_originals(tmp_path):
    from btpgl import cycles, lattices

    before = _bindings()
    workload = workloads.WORKLOADS["intersect-files"]
    ops = workload.build(3, 0.1, tmp_path)[:6]
    workload.settle(ops)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        # a name bound by `from .lattices import` is wrapped in cycles too
        assert cycles.intersect_spans is lattices.intersect_spans
        assert cycles.intersect_spans is not before[("btpgl.lattices", "intersect_spans")]
        outputs = [workload.execute(op) for op in ops]
    assert all(workload.check(op, out) for op, out in zip(ops, outputs))
    assert tracer.calls["cli.main"] == 6
    assert tracer.calls["serialize.parse_instance"] == 6
    assert tracer.calls["lattices.intersect_spans"] > 0
    assert tracer.calls["padic.PAdicContext.val"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_spec()
