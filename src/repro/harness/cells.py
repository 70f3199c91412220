"""Module-level measurement cell functions shared by every experiment spec.

Every artifact of the paper reduces to a handful of cell shapes — a
(graph, method) experiment, a prior-work kernel measurement, a generated
scaling point, a bin-width sweep point.  They live here, at module
level, because plan cells must pickle by reference into sweep workers
and because *where a cell function lives is part of its identity*:
:func:`repro.utils.fingerprint.stable_digest` hashes callables by module
+ qualname, so two specs share a cell (and a cache entry) only when they
call the same function here with equal arguments.
"""

from __future__ import annotations

from repro.graphs.builder import build_csr
from repro.graphs.generators import uniform_random_graph
from repro.harness.experiment import measure_kernel, run_experiment
from repro.kernels.pagerank import make_kernel
from repro.kernels.priorwork import PRIOR_WORK
from repro.models.performance import pb_phase_times

__all__ = [
    "experiment_cell",
    "priorwork_cell",
    "scaling_cell",
    "bin_width_cell",
    "SCALING_METHODS",
]


def experiment_cell(graph, method, machine, graph_name, engine):
    """One (graph, method) measurement — the suite/table/figure workhorse."""
    return run_experiment(
        graph, method, machine=machine, graph_name=graph_name, engine=engine
    )


def priorwork_cell(graph, kernel_name, machine, graph_name, engine):
    """One prior-work strategy (CSB/Galois/GraphMat/Ligra) measurement."""
    return measure_kernel(
        PRIOR_WORK[kernel_name](graph, machine),
        graph_name=graph_name,
        engine=engine,
    )


SCALING_METHODS = (("Baseline", "baseline"), ("CB", "cb"), ("DPB", "dpb"))


def scaling_cell(n, degree, seed, machine, engine):
    """One x-value of figures 7/8: generate the graph, measure all methods.

    Grouping the three methods into one cell reuses the generated graph and
    keeps per-cell results plain data (picklable floats).
    """
    graph = build_csr(uniform_random_graph(n, degree, seed=seed))
    return {
        label: run_experiment(graph, method, machine=machine, engine=engine)
        .gail()
        .requests_per_edge
        for label, method in SCALING_METHODS
    }


def bin_width_cell(graph, width, machine, method, engine):
    """One (graph, width) point of the figure 9/10/11 sweeps (plain data)."""
    kernel = make_kernel(graph, method, machine, bin_width=width)
    counters = kernel.measure(1, engine=engine)
    phases = pb_phase_times(kernel, counters)
    return {
        "width": width,
        "requests": counters.total_requests,
        "time": sum(phases.values()),
        "phases": phases,
    }
