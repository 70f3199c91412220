"""Graph identity by content: :func:`graph_fingerprint`.

The pool ships graphs to its workers by value (pickled with each cell)
and the distributed fleet ships each graph once per worker
(:mod:`repro.cluster.shipping`), so no graph needs a shared address.
What every layer still needs is a *content* name for a graph — the
serve cache keys answers by it, and a graph update is detected by it
changing.  That name lives here, under the module that once published
graphs into shared memory, because external tooling (the benchmark's
traced run among it) imports it from this path.
"""

from __future__ import annotations

from repro.graphs.csr import CSRGraph
from repro.utils.fingerprint import stable_digest

__all__ = ["graph_fingerprint"]


def graph_fingerprint(graph: CSRGraph) -> str:
    """Content digest of a graph: equal arrays, equal fingerprint."""
    return stable_digest(graph)
