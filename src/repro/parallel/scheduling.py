"""Work scheduling for parallel graph kernels (paper Section VII).

Two schedulers mirror the paper's choices:

* :func:`edge_balanced_ranges` — the *static* schedule for the binning
  phase.  Splitting vertices evenly is wrong on skewed graphs (one thread
  could receive all of a hub's edges); splitting by *edge count* bounds
  each thread's propagations.  Implemented as a binary search over the CSR
  offsets, so it costs O(T log n).
* :func:`greedy_assign` — the *dynamic* schedule for the accumulate phase,
  modelled offline as greedy longest-processing-time assignment of
  per-range costs to threads (what a dynamic work queue converges to).

The same blocking insight applies to the harness itself: sweep cells
that share a graph should land on the same worker.  :func:`graph_key`
defines what "the same graph" means for every dispatcher,
:func:`cell_affinity` extracts a ``(graph key, edge cost)`` hint per
sweep cell, and :func:`affinity_lanes` assigns whole affinity groups to
worker lanes with the very same :func:`greedy_assign` balancer (cost =
estimated edges × cells).  The resilient engine's lane queue turns the
lanes into de-facto worker pinning (:mod:`repro.parallel.resilience`),
and the fleet coordinator leases by them and ships each graph once per
worker (:mod:`repro.cluster.shipping`).
"""

from __future__ import annotations

import heapq
from typing import Any, Hashable, Sequence

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.utils.validation import check_positive

__all__ = [
    "edge_balanced_ranges",
    "range_edge_counts",
    "greedy_assign",
    "imbalance",
    "graph_key",
    "cell_affinity",
    "affinity_lanes",
]


def edge_balanced_ranges(graph: CSRGraph, num_threads: int) -> list[tuple[int, int]]:
    """Split vertices into ``num_threads`` contiguous ranges of ~equal edges.

    Range boundaries are found by binary-searching the CSR offsets for the
    ideal per-thread edge quota.  Every vertex appears in exactly one
    range; ranges are contiguous and ordered.  Degenerate cases (more
    threads than vertices, empty graph) produce empty trailing ranges.
    """
    check_positive("num_threads", num_threads)
    n = graph.num_vertices
    m = graph.num_edges
    offsets = graph.offsets
    boundaries = [0]
    for t in range(1, num_threads):
        target = m * t / num_threads
        cut = int(np.searchsorted(offsets, target, side="left"))
        cut = min(max(cut, boundaries[-1]), n)
        boundaries.append(cut)
    boundaries.append(n)
    return [(boundaries[i], boundaries[i + 1]) for i in range(num_threads)]


def range_edge_counts(graph: CSRGraph, ranges: list[tuple[int, int]]) -> np.ndarray:
    """Edges owned by each vertex range."""
    offsets = graph.offsets
    return np.array(
        [int(offsets[stop] - offsets[start]) for start, stop in ranges], dtype=np.int64
    )


def greedy_assign(costs: np.ndarray, num_threads: int) -> tuple[list[list[int]], float]:
    """Longest-processing-time greedy assignment of tasks to threads.

    Returns ``(assignment, makespan)`` where ``assignment[t]`` lists the
    task indices given to thread ``t`` and ``makespan`` is the largest
    per-thread total cost.  This is the classic 4/3-approximation and a
    faithful offline model of a dynamic work queue with decreasing-size
    pulls (the accumulate-phase scheduling).
    """
    check_positive("num_threads", num_threads)
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 1:
        raise ValueError("costs must be 1-D")
    assignment: list[list[int]] = [[] for _ in range(num_threads)]
    heap = [(0.0, t) for t in range(num_threads)]
    heapq.heapify(heap)
    for task in np.argsort(-costs, kind="stable"):
        load, t = heapq.heappop(heap)
        assignment[t].append(int(task))
        heapq.heappush(heap, (load + float(costs[task]), t))
    makespan = max(load for load, _ in heap)
    return assignment, makespan


def imbalance(costs: np.ndarray, num_threads: int, *, dynamic: bool = True) -> float:
    """Load imbalance ``makespan / ideal`` for a task-cost vector.

    ``dynamic=True`` uses :func:`greedy_assign`; ``dynamic=False`` models
    a naive static round-robin (tasks dealt in index order) — the contrast
    the paper's scheduling choices are about.
    """
    check_positive("num_threads", num_threads)
    costs = np.asarray(costs, dtype=np.float64)
    total = float(costs.sum())
    if total == 0.0:
        return 1.0
    ideal = total / num_threads
    if dynamic:
        _, makespan = greedy_assign(costs, num_threads)
    else:
        loads = np.zeros(num_threads)
        for i, cost in enumerate(costs):
            loads[i % num_threads] += cost
        makespan = float(loads.max())
    return makespan / ideal


# ----------------------------------------------------------------------
# sweep-cell graph affinity (the harness-side blocking schedule)
# ----------------------------------------------------------------------
def graph_key(graph: CSRGraph) -> Hashable:
    """What "the same graph" means to cell dispatch: the same object.

    By identity, not content digest: hashing a multi-MB graph per cell
    would cost more than the locality buys, and plan-compiled sweeps
    pass the same object for equal content anyway.  Lane assignment
    (:func:`cell_affinity`) and the fleet's ship-once dedup
    (:mod:`repro.cluster.shipping`) both key on this.
    """
    return ("mem", id(graph))


def _graph_hint(value: Any) -> tuple[Hashable, float] | None:
    """``(affinity key, edge cost)`` if ``value`` is a graph argument."""
    if isinstance(value, CSRGraph):
        return graph_key(value), float(value.num_edges)
    return None


def cell_affinity(cells: Sequence[Any]) -> list[tuple[Hashable, float]]:
    """Affinity hint ``(group key, cost)`` for every sweep cell.

    Cells are grouped by the first graph argument they carry
    (:func:`graph_key`) with the graph's edge count as the cost
    estimate.  A cell with no graph argument — e.g. the scaling cells,
    which generate their own graph — forms a singleton group of unit
    cost, so it still load-balances but never constrains placement.
    """
    hints: list[tuple[Hashable, float]] = []
    for index, cell in enumerate(cells):
        hint = None
        for value in (*cell.args, *cell.kwargs.values()):
            hint = _graph_hint(value)
            if hint is not None:
                break
        if hint is None:
            hints.append((("cell", index), 1.0))
        else:
            key, edges = hint
            hints.append((key, max(edges, 1.0)))
    return hints


def affinity_lanes(
    hints: Sequence[tuple[Hashable, float]], num_workers: int
) -> list[list[int]]:
    """Assign affinity groups to ``num_workers`` lanes, cost-balanced.

    ``hints`` is one ``(group key, cost)`` pair per cell (see
    :func:`cell_affinity`).  Whole groups are assigned to lanes via
    :func:`greedy_assign` on total group cost (cost per cell × cells in
    the group), so cells sharing a key always co-locate and lane loads
    stay within the greedy 4/3 bound.  Returns exactly ``num_workers``
    lists of cell indices (possibly empty), each in submission order.
    """
    check_positive("num_workers", num_workers)
    groups: dict[Hashable, list[int]] = {}
    for index, (key, _) in enumerate(hints):
        groups.setdefault(key, []).append(index)
    keys = list(groups)
    costs = np.array(
        [sum(hints[index][1] for index in groups[key]) for key in keys],
        dtype=np.float64,
    )
    assignment, _ = greedy_assign(costs, num_workers)
    return [
        sorted(index for g in lane for index in groups[keys[g]])
        for lane in assignment
    ]
