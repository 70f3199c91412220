"""The traced run: per-layer metrics plus the cost of tracing itself.

The workload is measured three times in one process, one round each:
with no tracing, with the wrappers of :mod:`layers` installed, and with
no tracing again.  The per-layer metrics come from the traced
measurement.  The trace
accounting compares the two over their work-bound windows (every
reproduction pass; the closed burst and warm replay of each serve
cycle):

* ``traced_wall_s``: the traced windows' total length;
* ``unattributed_s``: the part of those windows no top-level span covers;
* ``trace_overhead_frac``: (traced - untraced) / untraced window time,
  against the last, warmed-up untraced measurement.

Per-layer ``*_s`` values are self time, summed over the traced
measurement; ``*_ms`` values are per operation.  A layer the workload
does not reach reads 0.
"""

from __future__ import annotations

import os

import layers
import stats


def _windows(result) -> list[tuple[float, float]]:
    if "cold" in result:
        return [p.window for p in result["cold"] + result["warm"]]
    return [w for c in result["cycles"] for w in c.windows]


def _p50(values) -> float:
    return stats.median(values) if values else 0.0


def _tail(values) -> float:
    try:
        return stats.tail(values).value
    except ValueError:
        return 0.0


def run(workload, seed, scratch, measure, lines):
    """Measure untraced, traced, untraced; return ``(combined result, metrics)``.

    The first measurement only warms the process up (lazy imports and
    first-touch costs land there); the overhead compares the traced
    measurement with the last one.
    """
    references: dict = {}
    warmup = measure(workload, seed, 1, os.path.join(scratch, "warmup"), references=references)
    tracer = layers.LayerTracer()
    if workload.startswith("reproduce"):
        layers.install_reproduce_layers(tracer)
    else:
        layers.install_serve_layers(tracer)
    try:
        traced = measure(
            workload, seed, 1, os.path.join(scratch, "traced"), span=tracer.span,
            references=references,
        )
    finally:
        tracer.uninstall()
    untraced = measure(workload, seed, 1, os.path.join(scratch, "untraced"), references=references)

    windows = _windows(traced)
    traced_wall = sum(end - start for start, end in windows)
    untraced_wall = sum(end - start for start, end in _windows(untraced))
    covered = sum(tracer.covered_seconds(start, end) for start, end in windows)
    self_s = tracer.self_seconds()
    counts = tracer.counts
    samples = tracer.samples

    def s(key):
        return self_s.get(key, 0.0)

    m = {
        "graphs.build_s": (s("graphs.build"), "s"),
        "graphs.builds": (counts["graphs.builds"], "count"),
        "graphs.edges_in": (counts["graphs.edges_in"], "count"),
        "kernels.make_s": (s("kernels.make"), "s"),
        "kernels.trace_s": (s("kernels.trace"), "s"),
        "kernels.accesses": (counts["kernels.accesses"], "count"),
        "memsim.engine_s": (s("memsim.engine"), "s"),
        "memsim.simulations": (counts["memsim.simulations"], "count"),
        "memsim.accesses_per_s": (
            counts["kernels.accesses"] / s("memsim.engine") if s("memsim.engine") else 0.0,
            "1/s",
        ),
        "models.l1_s": (s("models.l1"), "s"),
        "models.l1_analyses": (counts["models.l1_analyses"], "count"),
        "models.time_model_s": (s("models.time_model"), "s"),
        "cache.gets": (counts["cache.gets"], "count"),
        "cache.hits": (counts["cache.hits"], "count"),
        "cache.get_s": (s("cache.get"), "s"),
        "cache.put_s": (s("cache.put"), "s"),
        "harness.render_s": (s("harness.render"), "s"),
        "plan.specs_s": (s("plan.specs"), "s"),
        "plan.compile_s": (s("plan.compile"), "s"),
        "plan.execute_s": (s("plan.execute"), "s"),
        "ppr.solves": (counts["ppr.solves"], "count"),
        "ppr.queries_solved": (counts["ppr.queries_solved"], "count"),
        "ppr.iterations_per_query": (
            counts["ppr.iterations"] / counts["ppr.queries_solved"]
            if counts["ppr.queries_solved"] else 0.0,
            "count",
        ),
        "ppr.unconverged": (counts["ppr.unconverged"], "count"),
        "ppr.solve_ms.p50": (_p50(samples["ppr.solve_ms"]), "ms"),
    }
    m.update(_plan_and_dispatch(traced, tracer))
    m.update(_serve(traced, tracer, self_s))
    m.update({
        "traced_wall_s": (traced_wall, "s"),
        "unattributed_s": (traced_wall - covered, "s"),
        "trace_overhead_frac": ((traced_wall - untraced_wall) / untraced_wall, "ratio"),
    })
    lines.append(
        f"traced {traced_wall:.3f} s against untraced {untraced_wall:.3f} s; "
        f"{traced_wall - covered:.3f} s unattributed"
    )
    combined = _combine(_combine(warmup, traced), untraced)
    return combined, {name: {"value": float(v), "unit": u} for name, (v, u) in m.items()}


def _plan_and_dispatch(result, tracer) -> dict:
    if "cold" not in result:
        passes, cold = [], []
    else:
        passes, cold = result["cold"] + result["warm"], result["cold"]
    cell_ms = [v * 1000.0 for p in cold for v in p.cell_seconds]
    run_s = tracer.inclusive.get("dispatch.run", 0.0)
    workers = result.get("workers", 1)
    return {
        "plan.cells_requested": (sum(p.cells_requested for p in passes), "count"),
        "plan.cells_unique": (sum(p.cells for p in passes), "count"),
        "plan.cells_executed": (sum(p.cells_executed for p in passes), "count"),
        "plan.cache_hits": (sum(p.cache_hits for p in passes), "count"),
        "dispatch.run_s": (run_s, "s"),
        "dispatch.cells": (sum(p.dispatch_cells for p in passes), "count"),
        "dispatch.retries": (sum(p.retries for p in passes), "count"),
        "dispatch.pool_restarts": (sum(p.pool_restarts for p in passes), "count"),
        "dispatch.cell_ms.p50": (_p50(cell_ms), "ms"),
        "dispatch.cell_ms.tail": (_tail(cell_ms), "ms"),
        "dispatch.busy_frac": (
            sum(cell_ms) / 1000.0 / (workers * run_s) if run_s else 0.0, "ratio"
        ),
    }


def _serve(result, tracer, self_s) -> dict:
    cycles = result.get("cycles", [])

    def total(key):
        return sum(c.stats.get(key, 0) for c in cycles)

    lookups = total("cache_hits") + total("cache_misses")
    batches = total("batches")
    samples = tracer.samples
    return {
        "serve.batches": (batches, "count"),
        "serve.occupancy_mean": (
            sum(c.stats["mean_occupancy"] * c.stats["batches"] for c in cycles) / batches
            if batches else 0.0,
            "count",
        ),
        "serve.coalesced": (total("coalesced"), "count"),
        "serve.queue_wait_ms.p50": (_p50(samples["serve.queue_wait_ms"]), "ms"),
        "serve.queue_wait_ms.tail": (_tail(samples["serve.queue_wait_ms"]), "ms"),
        "serve.cache_hits": (total("cache_hits"), "count"),
        "serve.cache_misses": (total("cache_misses"), "count"),
        "serve.hit_ratio": (total("cache_hits") / lookups if lookups else 0.0, "ratio"),
        "serve.cache_s": (self_s.get("serve.cache", 0.0), "s"),
        "serve.request_s": (self_s.get("serve.request", 0.0), "s"),
        "serve.updates": (total("updates_applied"), "count"),
        "serve.rebuild_ms": (_p50(samples["serve.rebuild_ms"]), "ms"),
        "serve.invalidate_ms": (_p50(samples["serve.invalidate_ms"]), "ms"),
        "serve.repropagate_ms": (_p50(samples["serve.repropagate_ms"]), "ms"),
        "serve.entries_carried": (total("entries_carried"), "count"),
        "serve.entries_invalidated": (total("entries_invalidated"), "count"),
        "loadgen.late_ms.max": (
            max((v for c in cycles for v in c.late_ms), default=0.0), "ms"
        ),
        "loadgen.backlog_end": (max((c.backlog_end for c in cycles), default=0), "count"),
    }


def _combine(first, second):
    """One result carrying both measurements' operation counts."""
    if "cold" in first:
        return {
            "cold": first["cold"] + second["cold"],
            "warm": first["warm"] + second["warm"],
            "workers": first["workers"],
        }
    detail = {k: first["detail"][k] + second["detail"][k] for k in first["detail"]}
    return {
        "cycles": first["cycles"] + second["cycles"],
        "attempted": first["attempted"] + second["attempted"],
        "failed": first["failed"] + second["failed"],
        "detail": detail,
    }
