"""Graph-affinity scheduling: grouping, co-location, and greedy bounds.

The affinity layer (:func:`repro.parallel.scheduling.cell_affinity` +
:func:`repro.parallel.scheduling.affinity_lanes`) must be a pure
re-labelling of the sweep: every cell assigned exactly once, cells
sharing a graph always on the same lane, lane loads within the greedy
list-scheduling bound on *grouped* costs — and the resilient engine's
lane dispatch must leave results bit-identical to the FIFO order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.builder import build_csr
from repro.graphs.generators import uniform_random_graph
from repro.parallel.scheduling import affinity_lanes, cell_affinity, graph_key
from repro.parallel.sweep import SweepCell, run_cells


# ----------------------------------------------------------------------
# property tests on (key, cost) hints
# ----------------------------------------------------------------------
hints_strategy = st.lists(
    st.tuples(st.sampled_from("abcdefg"), st.floats(0.0, 100.0)),
    min_size=1,
    max_size=50,
)


@given(hints=hints_strategy, workers=st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_property_every_cell_assigned_exactly_once(hints, workers):
    lanes = affinity_lanes(hints, workers)
    assert len(lanes) == workers
    assigned = sorted(index for lane in lanes for index in lane)
    assert assigned == list(range(len(hints)))


@given(hints=hints_strategy, workers=st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_property_shared_key_cells_colocate(hints, workers):
    """Cells with the same affinity key always land on one lane —
    regardless of worker count (a group never splits; the balancer
    moves whole groups)."""
    lanes = affinity_lanes(hints, workers)
    lane_of = {
        index: lane_index
        for lane_index, lane in enumerate(lanes)
        for index in lane
    }
    by_key: dict[str, set[int]] = {}
    for index, (key, _) in enumerate(hints):
        by_key.setdefault(key, set()).add(lane_of[index])
    assert all(len(lanes_used) == 1 for lanes_used in by_key.values())


@given(hints=hints_strategy, workers=st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_property_greedy_bound_holds_on_grouped_costs(hints, workers):
    """Graham's list-scheduling bound, at group granularity: lane loads
    never exceed mean group load + the largest single group."""
    lanes = affinity_lanes(hints, workers)
    costs = [cost for _, cost in hints]
    group_totals: dict[str, float] = {}
    for key, cost in hints:
        group_totals[key] = group_totals.get(key, 0.0) + cost
    lane_loads = [sum(costs[index] for index in lane) for lane in lanes]
    mean_load = sum(costs) / workers
    max_group = max(group_totals.values())
    assert max(lane_loads) <= mean_load + max_group + 1e-9


def test_lanes_preserve_submission_order_within_lane():
    hints = [("a", 1.0), ("b", 1.0), ("a", 1.0), ("b", 1.0), ("a", 1.0)]
    lanes = affinity_lanes(hints, 2)
    for lane in lanes:
        assert lane == sorted(lane)


def test_affinity_lanes_rejects_bad_workers():
    with pytest.raises(ValueError):
        affinity_lanes([("a", 1.0)], 0)


# ----------------------------------------------------------------------
# cell hint extraction
# ----------------------------------------------------------------------
def _identity_cell(*args, **kwargs):
    return args, kwargs


def test_cell_affinity_groups_by_graph_identity():
    g1 = build_csr(uniform_random_graph(300, 4, seed=1))
    g2 = build_csr(uniform_random_graph(300, 4, seed=2))
    cells = [
        SweepCell(key=("g1", w), fn=_identity_cell, args=(g1, w)) for w in (8, 16)
    ] + [
        SweepCell(key=("g2", w), fn=_identity_cell, args=(g2, w)) for w in (8, 16)
    ]
    hints = cell_affinity(cells)
    keys = [key for key, _ in hints]
    assert keys[0] == keys[1]
    assert keys[2] == keys[3]
    assert keys[0] != keys[2]
    assert all(cost == float(g1.num_edges) for _, cost in hints[:2])
    # The fleet's ship-once dedup keys on the same definition.
    assert keys[0] == graph_key(g1) and keys[2] == graph_key(g2)


def test_cell_affinity_graphless_cells_are_singletons():
    cells = [
        SweepCell(key=i, fn=_identity_cell, args=(i,), kwargs={"x": 2 * i})
        for i in range(4)
    ]
    hints = cell_affinity(cells)
    assert len({key for key, _ in hints}) == len(cells)
    assert all(cost == 1.0 for _, cost in hints)


# ----------------------------------------------------------------------
# end to end: lane dispatch is invisible in the results
# ----------------------------------------------------------------------
def _degree_cell(graph, scale):
    return float(np.sum(np.diff(graph.offsets))) * scale


def test_run_cells_affinity_matches_serial_results():
    graphs = [build_csr(uniform_random_graph(200, 4, seed=s)) for s in (1, 2, 3)]
    cells = [
        SweepCell(key=(s, scale), fn=_degree_cell, args=(graphs[s], scale))
        for s in range(3)
        for scale in (1.0, 2.0, 3.0)
    ]
    serial = run_cells(cells, workers=1)
    pooled = run_cells(cells, workers=2, affinity=True)
    assert pooled == serial
