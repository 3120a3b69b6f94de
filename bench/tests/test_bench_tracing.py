"""Span recording, self-time arithmetic and the layer metrics built on it."""

import types

import pytest

from fedbench.layers import METRICS, ROUND, layer_metrics
from fedbench.tracing import NO_PARENT, SpanTable, Tracer, covered_length


def table(spans):
    """SpanTable from (name, parent, start, end, attr) rows."""
    names, parents, starts, ends, attrs = map(list, zip(*spans))
    return SpanTable(names, parents, [0] * len(names), starts, ends, attrs)


def test_covered_length_merges_overlaps_and_skips_empty():
    assert covered_length([]) == 0
    assert covered_length([(0, 10), (20, 30)]) == 20
    assert covered_length([(0, 10), (5, 15)]) == 15
    assert covered_length([(0, 30), (5, 10)]) == 30
    assert covered_length([(5, 5), (7, 3)]) == 0


def test_self_time_on_a_hand_built_tree():
    spans = table([
        ("root", NO_PARENT, 0, 100, 0),
        ("a", 0, 10, 40, 0),
        ("a.child", 1, 15, 25, 0),
        ("b", 0, 30, 60, 0),          # overlaps a: the root counts it once
        ("c", 0, 90, 120, 0),         # runs past the root: clipped to 90..100
        ("b.child", 3, 30, 60, 0),    # covers all of b
    ])
    assert spans.self_times() == [40, 20, 10, 0, 30, 30]
    assert spans.roots() == [0, 0, 0, 0, 0, 0]


def test_tracer_records_nesting_and_restores_patches():
    ticks = iter(range(0, 1000, 10))
    mod = types.SimpleNamespace()

    class Thing:
        def work(self, n):
            return mod.inner(n) + 1

    mod.inner = lambda n: n * 2
    original_inner, original_work = mod.inner, Thing.work
    tracer = Tracer([(mod, "inner", "m.inner", lambda args, out: out),
                     (Thing, "work", "m.work", None)],
                    clock=lambda: next(ticks))
    assert Thing().work(3) == 7 and len(tracer) == 0
    with tracer.op("round", request=4):
        assert Thing().work(3) == 7
    assert mod.inner is original_inner and Thing.work is original_work
    assert tracer.names == ["round", "m.work", "m.inner"]
    assert tracer.parents == [NO_PARENT, 0, 1]
    assert tracer.requests == [4, 4, 4]
    assert tracer.attrs == [0, 0, 6]
    spans = tracer.table()
    assert all(spans.duration(i) > 0 for i in range(len(spans)))

    with pytest.raises(ZeroDivisionError):
        with tracer.op("round", request=5):
            1 / 0
    assert mod.inner is original_inner and Thing.work is original_work


def test_layer_metrics_shares_and_uncovered():
    spans = table([
        (ROUND, NO_PARENT, 0, 1000, 0),
        ("federated.run_round", 0, 0, 1000, 0),
        ("env.step", 1, 100, 300, 0),
        ("env.slot_cost", 2, 150, 250, 0),
        ("nn.forward", 1, 300, 700, 1),
        ("nn.forward", 1, 700, 800, 64),
        ("federated.average", 1, 900, 950, 0),
    ])
    metrics = layer_metrics(spans, overhead=0.02)
    assert list(metrics) == list(METRICS)
    assert metrics["env.share"] == pytest.approx(0.2)
    assert metrics["env.step_us"] == pytest.approx(0.1)
    assert metrics["nn.share"] == pytest.approx(0.5)
    assert metrics["nn.forward_b1_us"] == pytest.approx(0.4)
    assert metrics["nn.forward_b64_us"] == pytest.approx(0.1)
    assert metrics["nn.forward_calls_per_step"] == 2.0
    assert metrics["federated.share"] == pytest.approx(0.05)
    assert metrics["trace.uncovered_share"] == pytest.approx(0.25)
    assert metrics["ddpg.soft_update_us"] == 0.0
    assert metrics["trace.overhead"] == 0.02
