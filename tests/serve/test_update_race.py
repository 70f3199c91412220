"""A query that waits in the batch window while an update lands.

The miss is enqueued on one graph and solved on the next.  Its answer
must name the graph it was solved on: the fingerprint, the scores and
the cache key all describe the updated graph, never a mix of the two.
The batch window is long and only ``stop()`` flushes it, so the order
enqueue → update → solve is fixed by the test, not by host timing.
"""

import asyncio
import tempfile

import numpy as np

from repro.graphs import build_csr, uniform_random_graph
from repro.kernels import personalized_pagerank, restart_teleport
from repro.parallel.shm import graph_fingerprint
from repro.serve import BatchPolicy, EdgeUpdate, PPRServer, ServeCache, ServeConfig
from repro.serve.cache import serve_fingerprint

SEEDS = (0,)


def _serial(graph, config):
    return personalized_pagerank(
        graph,
        restart_teleport(graph.num_vertices, SEEDS),
        method=config.method,
        damping=config.damping,
        tolerance=config.tolerance,
        max_iterations=config.max_iterations,
    ).scores


def test_miss_enqueued_before_update_names_the_new_graph():
    graph = build_csr(uniform_random_graph(48, 3, seed=2, symmetric=False))
    present = set(graph.targets[graph.offsets[0] : graph.offsets[1]].tolist())
    fresh = next(v for v in range(1, graph.num_vertices) if v not in present)
    config = ServeConfig(policy=BatchPolicy(window_seconds=3600.0, max_batch=16))
    params = config.solver_params()

    async def scenario(cache):
        server = PPRServer(graph, config, cache=cache)
        server.start()
        pending = asyncio.ensure_future(server.query(list(SEEDS)))
        while len(server._queue) == 0 and not pending.done():
            await asyncio.sleep(0)
        assert not pending.done()  # enqueued as a miss, not yet solved
        await server.apply_updates([EdgeUpdate(0, fresh)])
        await server.stop()  # closes the queue: the waiting batch runs now
        return await pending, server.graph

    with tempfile.TemporaryDirectory() as directory:
        cache = ServeCache(directory)
        result, new_graph = asyncio.run(scenario(cache))
        old_key = serve_fingerprint(graph_fingerprint(graph), SEEDS, params)
        new_key = serve_fingerprint(graph_fingerprint(new_graph), SEEDS, params)
        assert old_key != new_key
        assert not result.from_cache
        assert result.fingerprint == new_key
        assert np.array_equal(result.scores, _serial(new_graph, config))
        assert not np.array_equal(result.scores, _serial(graph, config))
        assert set(cache.entries()) == {new_key}
        assert np.array_equal(cache.get(new_key), result.scores)
