"""The ``serve`` and ``serve-churn`` workloads.

Personalized PageRank served by :class:`repro.serve.PPRServer` with the
program's defaults (``ServeConfig()``) on suite graph ``kron`` at scale
1/16.  One *cycle* starts a server on a cold :class:`ServeCache` and runs:

1. a closed burst: ``BURST_CLIENTS`` clients, each sending its next query
   when the previous one is answered, through ``BURST_QUERIES`` queries;
2. a warm replay of the same burst ``WARM_REPEATS`` times against the
   cache the burst filled;
3. on the last cycle of a run only, an open loop: ``OPEN_QUERIES`` queries due at a fixed ``OPEN_RATE``,
   each timed from when it was due, so a stall also charges the queries
   it delays.  On ``serve-churn`` an 8-edge update batch is also due
   every ``UPDATE_PERIOD`` seconds and is timed the same way.

The query stream (:func:`query_stream`) asks fixed catalogues of seed
sets, with ``REPEAT_FRACTION`` of the queries repeating an earlier one.  Every
answer is checked bit for bit against a serial
:func:`personalized_pagerank` on the graph version its fingerprint names
(:func:`verify`); a mismatch, an exception or a stale answer counts as a
failed operation, and so does a failed update.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

GRAPH = "kron"
GRAPH_SCALE = 1.0 / 16.0
GRAPH_SEED = 42

#: Share of queries that repeat an earlier one.  At one half the median
#: open-loop query sits exactly between the cache-hit mode (about 3 ms on
#: a 2-CPU host) and the solve mode (25-45 ms), so a few hits more or
#: less swing it tenfold; at 0.3 it sits inside the solve mode.
REPEAT_FRACTION = 0.3
MAX_SEEDS = 3
CATALOGUE_SEED = 42

BURST_QUERIES = 64
BURST_CLIENTS = 16
WARM_REPEATS = 8

#: Offered rate of the open loop (queries/s) and its length.  About 9% of
#: distinct queries run 200 iterations unconverged (~200 ms each on a
#: 2-CPU host); at 24 and 16 queries/s they queued up behind each other
#: and the p95 tail swung 135-960 ms with the order of the stream, at 12
#: it is their own solve time (190-210 ms) and the solver is about a
#: third busy.
OPEN_RATE = 12.0
OPEN_QUERIES = 240

#: serve-churn: seconds between update batches and edges per batch.
UPDATE_PERIOD = 2.0
UPDATE_EDGES = 8
UPDATE_REMOVALS = 2


def load_graph():
    """The served graph (8,192 vertices, 110,802 edges)."""
    from repro.graphs import load_graph as load

    return load(GRAPH, scale=GRAPH_SCALE, seed=GRAPH_SEED)


def _catalogue(num_vertices: int, phase: int, size: int) -> list[tuple[int, ...]]:
    """``size`` distinct seed sets, fixed for every run (not drawn from the run's seed)."""
    from repro.serve import generate_queries

    fresh = generate_queries(
        2 * size, num_vertices, seed=CATALOGUE_SEED + phase, max_seeds=MAX_SEEDS,
        repeat_fraction=0.0,
    )
    return list(dict.fromkeys(fresh))[:size]


def _phase(rng, catalogue, length: int, history: list) -> list[tuple[int, ...]]:
    """``length`` queries: every catalogue entry once, the rest repeats.

    The run's ``rng`` orders the catalogue, places the repeats and picks
    what each repeat re-asks, uniformly from every query asked before it.
    """
    repeats = length - len(catalogue)
    slots = np.array([False] * len(catalogue) + [True] * repeats)
    rng.shuffle(slots)
    if not history and slots[0]:  # the very first query cannot repeat
        first_fresh = int(np.flatnonzero(~slots)[0])
        slots[0], slots[first_fresh] = False, True
    fresh = iter([catalogue[i] for i in rng.permutation(len(catalogue))])
    asked = list(history)
    for repeat in slots:
        asked.append(asked[int(rng.integers(len(asked)))] if repeat else next(fresh))
    return asked[len(history):]


def query_stream(seed: int, num_vertices: int) -> list[tuple[int, ...]]:
    """Burst queries followed by open-loop queries.

    Each phase asks every entry of its own fixed catalogue once, so the
    distinct solves (and the few that hit ``max_iterations`` unconverged)
    are the same in every run; the run's seed decides the order, where
    the repeats fall and what they repeat.  Fixing the distinct work keeps
    run-to-run spread down to timing: with catalogues drawn per seed, the
    number of 200-iteration solves in a 64-query burst swung its wall
    from 1.0 to 2.1 s across seeds on a 2-CPU host.
    """
    rng = np.random.default_rng([seed, 0])
    burst = _phase(
        rng, _catalogue(num_vertices, 0, round(BURST_QUERIES * (1 - REPEAT_FRACTION))),
        BURST_QUERIES, [],
    )
    open_loop = _phase(
        rng, _catalogue(num_vertices, 1, round(OPEN_QUERIES * (1 - REPEAT_FRACTION))),
        OPEN_QUERIES, burst,
    )
    return burst + open_loop


def update_batches(seed: int, graph, count: int) -> list[list]:
    """``count`` seeded batches: ``UPDATE_EDGES`` edges each, some removals.

    Additions pick random endpoints among existing vertices (the graph
    never grows); removals pick edges of the initial graph.
    """
    from repro.serve import EdgeUpdate

    rng = np.random.default_rng([seed, 1])
    sources = graph.edge_sources()
    batches = []
    for _ in range(count):
        batch = []
        for _ in range(UPDATE_EDGES - UPDATE_REMOVALS):
            src, dst = rng.integers(graph.num_vertices, size=2)
            batch.append(EdgeUpdate(int(src), int(dst)))
        for index in rng.integers(graph.num_edges, size=UPDATE_REMOVALS):
            batch.append(
                EdgeUpdate(int(sources[index]), int(graph.targets[index]), remove=True)
            )
        batches.append(batch)
    return batches


def updates_per_run() -> int:
    """Update batches due during the open loop."""
    return int(OPEN_QUERIES / OPEN_RATE / UPDATE_PERIOD)


@dataclass
class Answers:
    """Every answer of a run, reduced to what verification needs."""

    #: fingerprint -> seed set it was asked for
    seeds: dict = field(default_factory=dict)
    #: (fingerprint, sha256 of the score bytes, graph version when sent,
    #: graph version when answered) per answer
    served: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def record(self, result, sent: int, answered: int) -> None:
        digest = hashlib.sha256(np.ascontiguousarray(result.scores).tobytes()).hexdigest()
        self.seeds.setdefault(result.fingerprint, result.seeds)
        self.served.append((result.fingerprint, digest, sent, answered))


@dataclass
class Cycle:
    burst_s: float = 0.0
    warm_s: float = 0.0
    latencies_ms: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    update_ms: list = field(default_factory=list)
    backlog_end: int = 0
    stats: dict = field(default_factory=dict)
    #: (start, end) of the burst and of the warm replay
    windows: list = field(default_factory=list)


class _Versions:
    """Graph versions a server has served, by fingerprint, in order."""

    def __init__(self, fingerprints: list[str]) -> None:
        self.index = {fp: i for i, fp in enumerate(fingerprints)}

    def of(self, server) -> int:
        return self.index.get(server.graph_fp, -1)


async def _ask(server, seeds, answers: Answers, versions: _Versions):
    """One query; returns its answer time, or ``None`` when it failed."""
    answers.attempted += 1
    sent = versions.of(server)
    try:
        result = await server.query(seeds)
    except Exception:  # a failed query is counted, never fatal to the run
        answers.failed += 1
        return None
    done = perf_counter()
    answers.record(result, sent, versions.of(server))
    return done


async def closed_burst(server, queries, clients: int, answers, versions) -> None:
    """Answer ``queries`` with ``clients`` closed-loop clients."""
    pending = iter(queries)

    async def client():
        for seeds in pending:
            await _ask(server, seeds, answers, versions)

    await asyncio.gather(*(client() for _ in range(clients)))


async def open_loop(server, queries, rate, answers, versions, *, updates=(), update_period=0.0):
    """Send ``queries`` on a fixed schedule; time each from when it was due.

    Returns ``(latencies_ms, late_ms, update_ms, backlog_end)``: per-query
    latency from due time, how late each send was, per-update latency
    from due time, and how many queries were unanswered when the last one
    was sent.
    """
    loop = asyncio.get_running_loop()
    start = perf_counter() + 0.01
    latencies = [None] * len(queries)
    late = []
    update_ms = []

    async def one(index, seeds, due):
        done = await _ask(server, seeds, answers, versions)
        if done is not None:
            latencies[index] = (done - due) * 1000.0

    async def updater():
        for number, batch in enumerate(updates, start=1):
            due = start + number * update_period
            await asyncio.sleep(max(0.0, due - perf_counter()))
            answers.attempted += 1
            try:
                await server.apply_updates(batch)
            except Exception:  # counted as a failed operation
                answers.failed += 1
                continue
            update_ms.append((perf_counter() - due) * 1000.0)

    update_task = loop.create_task(updater()) if updates else None
    tasks = []
    for index, seeds in enumerate(queries):
        due = start + index / rate
        await asyncio.sleep(max(0.0, due - perf_counter()))
        late.append((perf_counter() - due) * 1000.0)
        tasks.append(loop.create_task(one(index, seeds, due)))
    backlog = sum(1 for task in tasks if not task.done())
    await asyncio.gather(*tasks)
    if update_task is not None:
        await update_task
    return [v for v in latencies if v is not None], late, update_ms, backlog


async def run_cycle(graph, queries, cache_dir, answers, versions, *, churn, batches, with_open_loop):
    """One cycle (module doc) on a fresh server and a cold cache."""
    from repro.serve import PPRServer, ServeCache, ServeConfig

    cycle = Cycle()
    server = PPRServer(graph, ServeConfig(), cache=ServeCache(cache_dir))
    if churn:
        server.global_scores()
    async with server:
        burst = queries[:BURST_QUERIES]
        for replays in (1, WARM_REPEATS):
            started = perf_counter()
            await closed_burst(server, burst * replays, BURST_CLIENTS, answers, versions)
            cycle.windows.append((started, perf_counter()))
        (b0, b1), (w0, w1) = cycle.windows
        cycle.burst_s, cycle.warm_s = b1 - b0, w1 - w0
        if with_open_loop:
            cycle.latencies_ms, cycle.late_ms, cycle.update_ms, cycle.backlog_end = (
                await open_loop(
                    server,
                    queries[BURST_QUERIES:],
                    OPEN_RATE,
                    answers,
                    versions,
                    updates=batches if churn else (),
                    update_period=UPDATE_PERIOD,
                )
            )
    cycle.stats = server.stats().to_dict()
    return cycle


def graph_versions(graph, batches) -> list:
    """The initial graph and the graph after each update batch, in order."""
    from repro.serve import apply_edge_updates

    versions = [graph]
    for batch in batches:
        versions.append(apply_edge_updates(versions[-1], batch)[0])
    return versions


def verify(answers: Answers, versions: list, fingerprints: list[str], references=None) -> dict:
    """Check every answer; return failure counts by kind.

    An answer's fingerprint names the graph version it is for.  It is
    *mismatched* when its scores differ, as float32 bytes, from a serial
    :func:`personalized_pagerank` on that version with the server's
    default solver settings (or when it names no version), and *stale*
    when that version is older than the graph the query was sent to or
    newer than the graph when it was answered.  Each distinct
    (version, seeds) pair is solved once; ``references`` (a dict) keeps
    those solutions for later calls in the same process.
    """
    from repro.kernels.personalized import personalized_pagerank, restart_teleport
    from repro.serve import ServeConfig, serve_fingerprint

    config = ServeConfig()
    params = config.solver_params()
    expected = {} if references is None else references
    version_of: dict[str, int] = {}
    for fingerprint, seeds in answers.seeds.items():
        version = next(
            (i for i, fp in enumerate(fingerprints)
             if serve_fingerprint(fp, seeds, params) == fingerprint),
            -1,
        )
        version_of[fingerprint] = version
        if fingerprint in expected:
            continue
        if version < 0:
            expected[fingerprint] = None
            continue
        graph = versions[version]
        reference = personalized_pagerank(
            graph,
            restart_teleport(graph.num_vertices, seeds),
            method=config.method,
            damping=config.damping,
            tolerance=config.tolerance,
            max_iterations=config.max_iterations,
        ).scores
        expected[fingerprint] = hashlib.sha256(
            np.ascontiguousarray(reference, dtype=np.float32).tobytes()
        ).hexdigest()
    mismatched = stale = 0
    for fingerprint, digest, sent, answered in answers.served:
        if digest != expected[fingerprint]:
            mismatched += 1
        elif not sent <= version_of[fingerprint] <= answered:
            stale += 1
    return {"exceptions": answers.failed, "mismatched": mismatched, "stale": stale}


def measure(scratch: str, *, seed: int, churn: bool, rounds: int, references=None) -> dict:
    """``rounds`` cycles of the same stream, the last with the open loop; then verify.

    Returns the cycles plus the attempted/failed operation counts.
    ``references`` is passed on to :func:`verify`.
    """
    from repro.parallel.shm import graph_fingerprint

    graph = load_graph()
    queries = query_stream(seed, graph.num_vertices)
    batches = update_batches(seed, graph, updates_per_run()) if churn else []
    versions = graph_versions(graph, batches)
    fingerprints = [graph_fingerprint(g) for g in versions]
    index = _Versions(fingerprints)
    answers = Answers()
    cycles = []
    for cycle_no in range(rounds):
        cache_dir = os.path.join(scratch, f"serve-cache-{cycle_no}")
        cycles.append(
            asyncio.run(
                run_cycle(graph, queries, cache_dir, answers, index, churn=churn,
                          batches=batches, with_open_loop=cycle_no == rounds - 1)
            )
        )
    detail = verify(answers, versions, fingerprints, references)
    return {"cycles": cycles, "attempted": answers.attempted,
            "failed": sum(detail.values()), "detail": detail}
