"""Tests for :mod:`repro.parallel` (paper Section VII)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import build_csr, kronecker_graph, uniform_random_graph
from repro.kernels import make_kernel, reference_pagerank
from repro.models import SIMULATED_MACHINE
from repro.parallel import (
    ThreadedDPBPageRank,
    edge_balanced_ranges,
    greedy_assign,
    imbalance,
    parallel_time,
    range_edge_counts,
    recommended_bin_width,
    thread_scaling,
)
from repro.parallel.shm import graph_fingerprint
from repro.utils.fingerprint import stable_digest


@pytest.fixture(scope="module")
def skewed_graph():
    return build_csr(kronecker_graph(12, 8, seed=91), symmetric=True)


@pytest.fixture(scope="module")
def random_graph():
    return build_csr(uniform_random_graph(4096, 8, seed=92))


# ----------------------------------------------------------------------
# scheduling
# ----------------------------------------------------------------------
def test_ranges_cover_all_vertices(random_graph):
    ranges = edge_balanced_ranges(random_graph, 5)
    assert ranges[0][0] == 0
    assert ranges[-1][1] == random_graph.num_vertices
    for (a, b), (c, d) in zip(ranges, ranges[1:]):
        assert b == c


def test_edge_balance_beats_vertex_balance_on_skew(skewed_graph):
    """The paper's point: assign work by edges, not vertices."""
    threads = 8
    edge_ranges = edge_balanced_ranges(skewed_graph, threads)
    edge_costs = range_edge_counts(skewed_graph, edge_ranges)
    # Naive vertex split.
    n = skewed_graph.num_vertices
    step = n // threads
    vertex_ranges = [
        (i * step, (i + 1) * step if i < threads - 1 else n) for i in range(threads)
    ]
    vertex_costs = range_edge_counts(skewed_graph, vertex_ranges)
    assert edge_costs.max() < vertex_costs.max()
    # Edge balancing is near-perfect on this input.
    assert edge_costs.max() / max(edge_costs.mean(), 1) < 1.3


def test_single_thread_range(random_graph):
    ranges = edge_balanced_ranges(random_graph, 1)
    assert ranges == [(0, random_graph.num_vertices)]


def test_more_threads_than_vertices():
    g = build_csr(uniform_random_graph(4, 2, seed=93))
    ranges = edge_balanced_ranges(g, 8)
    assert len(ranges) == 8
    assert ranges[-1][1] == 4
    assert sum(b - a for a, b in ranges) == 4


def test_greedy_assign_covers_all_tasks():
    costs = np.array([5, 3, 8, 1, 2, 7], dtype=float)
    assignment, makespan = greedy_assign(costs, 3)
    flat = sorted(task for bucket in assignment for task in bucket)
    assert flat == list(range(6))
    assert makespan >= costs.sum() / 3  # cannot beat the ideal
    assert makespan <= costs.sum()


def test_greedy_assign_near_optimal_on_uniform():
    costs = np.ones(100)
    _, makespan = greedy_assign(costs, 4)
    assert makespan == pytest.approx(25)


def test_imbalance_dynamic_beats_static():
    # Alternating huge/tiny tasks: round-robin piles the huge ones up.
    costs = np.array([100, 1] * 8, dtype=float)
    static = imbalance(costs, 2, dynamic=False)
    dynamic = imbalance(costs, 2, dynamic=True)
    assert dynamic <= static
    assert dynamic == pytest.approx(1.0, abs=0.05)


def test_imbalance_empty_costs():
    assert imbalance(np.zeros(4), 2) == 1.0


def test_greedy_rejects_bad_input():
    with pytest.raises(ValueError):
        greedy_assign(np.ones((2, 2)), 2)
    with pytest.raises(ValueError):
        greedy_assign(np.ones(3), 0)


@given(
    costs=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40),
    threads=st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_property_greedy_within_list_scheduling_bound(costs, threads):
    """Graham's bound vs the computable lower bounds: the makespan never
    exceeds mean-load + max-task, and never beats either lower bound."""
    costs = np.asarray(costs)
    _, makespan = greedy_assign(costs, threads)
    mean_load = costs.sum() / threads
    max_task = costs.max() if costs.size else 0.0
    assert makespan <= mean_load + max_task + 1e-9
    assert makespan >= max(mean_load, max_task) - 1e-9


# ----------------------------------------------------------------------
# model
# ----------------------------------------------------------------------
def test_recommended_width_shrinks_with_threads():
    widths = [recommended_bin_width(SIMULATED_MACHINE, t) for t in (1, 2, 4, 8)]
    assert widths == sorted(widths, reverse=True)
    assert widths[1] == widths[0] // 2


def test_parallel_time_memory_bound_does_not_scale():
    t1 = parallel_time(SIMULATED_MACHINE, requests=1e9, instructions=1.0, num_threads=1)
    t16 = parallel_time(SIMULATED_MACHINE, requests=1e9, instructions=1.0, num_threads=16)
    assert t16.total == pytest.approx(t1.total, rel=0.3)


def test_parallel_time_instruction_bound_scales():
    t1 = parallel_time(SIMULATED_MACHINE, requests=1.0, instructions=1e12, num_threads=1)
    t16 = parallel_time(
        SIMULATED_MACHINE, requests=1.0, instructions=1e12, num_threads=16
    )
    assert t1.total / t16.total > 10


def test_thread_scaling_story():
    """Baseline saturates bandwidth early; DPB keeps scaling longer.

    Needs a graph well beyond the cache (n >> c) so the baseline is
    genuinely memory-bound, as in the paper's Section VI-A discussion.
    """
    graph = build_csr(uniform_random_graph(65536, 8, seed=94))
    base = make_kernel(graph, "baseline", SIMULATED_MACHINE)
    dpb = make_kernel(graph, "dpb", SIMULATED_MACHINE)
    base_counters = base.measure(1)
    dpb_counters = dpb.measure(1)
    threads = [1, 2, 4, 8, 16]
    base_times = thread_scaling(
        SIMULATED_MACHINE, base_counters, base.instruction_count(), threads
    )
    dpb_times = thread_scaling(
        SIMULATED_MACHINE, dpb_counters, dpb.instruction_count(), threads
    )
    base_speedup = base_times[1].total / base_times[16].total
    dpb_speedup = dpb_times[1].total / dpb_times[16].total
    assert dpb_speedup > 1.5 * base_speedup
    # At full thread count DPB is the faster configuration.
    assert dpb_times[16].total < base_times[16].total


# ----------------------------------------------------------------------
# threaded kernel
# ----------------------------------------------------------------------
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_threaded_dpb_matches_reference(random_graph, threads):
    expected = reference_pagerank(random_graph, 2)
    got = ThreadedDPBPageRank(random_graph, num_threads=threads).run(2)
    np.testing.assert_allclose(got, expected, rtol=2e-4, atol=1e-9)


def test_threaded_dpb_on_skewed_graph(skewed_graph):
    expected = reference_pagerank(skewed_graph, 2)
    got = ThreadedDPBPageRank(skewed_graph, num_threads=4).run(2)
    np.testing.assert_allclose(got, expected, rtol=2e-4, atol=1e-9)


def test_threaded_trace_overhead_is_bin_tails(random_graph):
    """Per-thread bins add only partial-line rounding to communication."""
    st_counters = make_kernel(random_graph, "dpb", SIMULATED_MACHINE).measure(1)
    mt_kernel = ThreadedDPBPageRank(
        random_graph,
        SIMULATED_MACHINE,
        num_threads=4,
        bin_width=make_kernel(random_graph, "dpb", SIMULATED_MACHINE).layout.bin_width,
    )
    mt_counters = mt_kernel.measure(1)
    assert mt_counters.total_requests >= st_counters.total_requests
    assert mt_counters.total_requests < 1.15 * st_counters.total_requests


def test_threaded_rejects_bad_thread_count(random_graph):
    with pytest.raises(ValueError):
        ThreadedDPBPageRank(random_graph, num_threads=0)


def test_threaded_spans_nest_per_thread(random_graph):
    """Phase spans nest under the caller; worker-task spans stand alone.

    Each worker thread has its own span stack, so ``binning_task`` /
    ``accumulate_task`` record as root paths (one per task), never nested
    under the caller's ``binning``/``accumulate`` phase spans — the same
    thread-independence contract as :mod:`repro.obs.spans`.
    """
    from repro.obs.spans import recording

    num_threads = 4
    iterations = 2
    kernel = ThreadedDPBPageRank(random_graph, num_threads=num_threads)
    with recording() as rec:
        kernel.run(iterations)
    stats = rec.as_dict()
    for phase in ("binning", "accumulate", "apply"):
        assert stats[phase]["count"] == iterations
    assert stats["binning_task"]["count"] == num_threads * iterations
    assert stats["accumulate_task"]["count"] == kernel.layout.num_bins * iterations
    # No cross-thread nesting: the worker tasks never attach to the
    # caller's phase paths.
    assert "binning/binning_task" not in stats
    assert "accumulate/accumulate_task" not in stats


# ----------------------------------------------------------------------
# graph identity
# ----------------------------------------------------------------------
def test_graph_fingerprint_matches_stable_digest(random_graph):
    assert graph_fingerprint(random_graph) == stable_digest(random_graph)
