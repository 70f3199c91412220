"""Span accounting of the traced run, and that tracing leaves the program as it was."""

import layers


def _span(tracer, key, start, end, parent=None, thread=1):
    record = layers._Span(key, start, parent, thread)
    record.end = end
    tracer.spans.append(record)
    return record


def test_self_time_subtracts_child_spans():
    tracer = layers.LayerTracer()
    outer = _span(tracer, "plan.execute", 0.0, 10.0)
    _span(tracer, "dispatch.run", 2.0, 5.0, parent=outer)
    _span(tracer, "dispatch.run", 6.0, 7.0, parent=outer)
    assert tracer.self_seconds() == {"plan.execute": 6.0, "dispatch.run": 4.0}


def test_unattributed_time_is_the_window_minus_top_level_spans():
    tracer = layers.LayerTracer()
    first = _span(tracer, "a", 1.0, 4.0)
    _span(tracer, "b", 3.0, 6.0, thread=2)  # overlaps, on another thread
    _span(tracer, "c", 2.0, 3.5, parent=first)  # nested: already covered
    _span(tracer, "d", 8.0, 12.0)  # clipped at the window's end
    assert tracer.covered_seconds(0.0, 10.0) == 7.0


def test_uninstall_restores_every_wrapped_function():
    import repro.harness.reproduce as reproduce
    import repro.plan as plan_pkg
    from repro.harness.cache import MeasurementCache
    from repro.kernels.base import PageRankKernel

    before = (plan_pkg.compile_plan, reproduce.compile_plan, MeasurementCache.get,
              PageRankKernel.__dict__["trace"])
    tracer = layers.LayerTracer()
    layers.install_reproduce_layers(tracer)
    assert plan_pkg.compile_plan is not before[0]
    assert reproduce.compile_plan is plan_pkg.compile_plan
    tracer.uninstall()
    after = (plan_pkg.compile_plan, reproduce.compile_plan, MeasurementCache.get,
             PageRankKernel.__dict__["trace"])
    assert after == before


def test_traced_calls_record_spans_and_counts():
    import numpy as np

    import repro.graphs.builder as builder
    from repro.graphs.edgelist import EdgeList

    tracer = layers.LayerTracer()
    layers.install_reproduce_layers(tracer)
    try:
        builder.build_csr(EdgeList(3, np.array([0, 1]), np.array([1, 2])))
    finally:
        tracer.uninstall()
    assert tracer.counts["graphs.builds"] == 1
    assert tracer.counts["graphs.edges_in"] == 2
    assert [s.key for s in tracer.spans] == ["graphs.build"]
