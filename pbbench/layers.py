"""Per-layer tracing for the traced run (``--trace 1``).

The program is not edited: :class:`LayerTracer` replaces public functions
and methods of ``repro.graphs``, ``kernels``, ``memsim``, ``models``,
``harness``, ``plan``, ``parallel`` and ``serve`` with wrappers that
record a span (key, start, end, parent, thread) and a few counts, and
puts the originals back on :meth:`LayerTracer.uninstall`.  A function
imported by name into other modules is replaced in every ``repro``
module that holds it, so call sites that bound the name at import time
are traced too.

Spans live in memory.  A key's *self time* is the duration of its spans
minus the part covered by their child spans; the *unattributed* time of
a window is the window minus the union of top-level spans.  Processes
forked from a traced parent run the wrappers too, but their spans stay
in the child and are lost, so on pooled runs the numbers are the
parent's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import threading
from collections import defaultdict
from time import perf_counter


class _Span:
    __slots__ = ("key", "start", "end", "parent", "thread")

    def __init__(self, key: str, start: float, parent: "_Span | None", thread: int):
        self.key = key
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread


class LayerTracer:
    """In-memory span and counter store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[_Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: Inclusive seconds per key, kept live so callers can diff them.
        self.inclusive: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        #: True while an edge update's body runs (see install_serve_layers).
        self.updating = False

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, key: str) -> bool:
        """Whether a span with ``key`` is open on this thread."""
        return any(s.key == key for s in self._stack())

    @contextlib.contextmanager
    def span(self, key: str):
        stack = self._stack()
        record = _Span(
            key, perf_counter(), stack[-1] if stack else None, threading.get_ident()
        )
        with self._lock:
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = perf_counter()
            stack.pop()
            self.inclusive[key] += record.end - record.start

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] += amount

    def self_seconds(self) -> dict[str, float]:
        """Self time per key: span durations minus their child spans."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[id(s.parent)] += s.end - s.start
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            totals[s.key] += (s.end - s.start) - child_time.get(id(s), 0.0)
        return dict(totals)

    def covered_seconds(self, start: float, end: float) -> float:
        """Length of the union of top-level spans clipped to ``[start, end]``."""
        intervals = sorted(
            (max(s.start, start), min(s.end, end))
            for s in self.spans
            if s.parent is None and s.end > start and s.start < end
        )
        covered = 0.0
        cursor = start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return covered

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def _replace_function(self, original, wrapper) -> None:
        """Swap ``original`` for ``wrapper`` in every loaded ``repro`` module."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def _replace_method(self, cls, name: str, wrapper) -> None:
        self._patches.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def timed(self, key, after=None):
        """Decorator factory: a span around each call, then ``after(span, args, result)``.

        ``key`` is a string or a callable returning the key at call time.
        """

        def decorate(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(key() if callable(key) else key) as record:
                    result = fn(*args, **kwargs)
                if after is not None:
                    after(record, args, result)
                return result

            return wrapper

        return decorate

    def wrap_function(self, module, name: str, key, after=None) -> None:
        original = getattr(module, name)
        self._replace_function(original, self.timed(key, after)(original))

    def wrap_method(self, cls, name: str, key, after=None) -> None:
        self._replace_method(cls, name, self.timed(key, after)(cls.__dict__[name]))

    def wrap_generator_method(self, cls, name: str, key: str, count_key: str) -> None:
        """Time each ``next()`` of a generator method; count ``num_accesses``."""
        original = cls.__dict__[name]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            outermost = not tracer.inside(key)
            generator = original(*args, **kwargs)
            while True:
                with tracer.span(key):
                    try:
                        chunk = next(generator)
                    except StopIteration:
                        return
                if outermost:
                    tracer.count(count_key, getattr(chunk, "num_accesses", 0))
                yield chunk

        self._replace_method(cls, name, wrapper)

    def uninstall(self) -> None:
        """Put every original function and method back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _module(name: str):
    """``repro.<name>`` as a module (a package may re-export a function
    under a submodule's name, which ``import a.b as c`` would return)."""
    return importlib.import_module(f"repro.{name}")


def _subclasses(cls) -> list[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        for sub in current.__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return [cls] + found


def install_reproduce_layers(tracer: LayerTracer) -> None:
    """Wrap the layers a reproduction passes through."""
    builder, generators, suite, pagerank, memcache, performance, sweep, compiler, executor, experiment = map(
        _module,
        ("graphs.builder", "graphs.generators", "graphs.suite", "kernels.pagerank",
         "memsim.cache", "models.performance", "parallel.sweep", "plan.compiler",
         "plan.executor", "harness.experiment"),
    )
    _module("harness.reproduce")  # binds names the scan must see
    from repro.harness.cache import MeasurementCache
    from repro.kernels.base import PageRankKernel
    from repro.memsim.hierarchy import L1Model

    # Import every kernel module so all trace() overrides are subclasses.
    for name in ("blocking_variants", "cache_block", "priorwork"):
        _module(f"kernels.{name}")

    def count_build(record, args, result):
        tracer.count("graphs.builds")
        tracer.count("graphs.edges_in", len(args[0].src))

    tracer.wrap_function(suite, "load_graph", "graphs.build")
    tracer.wrap_function(suite, "load_suite", "graphs.build")
    tracer.wrap_function(builder, "build_csr", "graphs.build", count_build)
    for name in generators.__all__:
        if inspect.isfunction(getattr(generators, name)):
            tracer.wrap_function(generators, name, "graphs.build")

    tracer.wrap_function(pagerank, "make_kernel", "kernels.make")
    for cls in _subclasses(PageRankKernel):
        if "trace" in cls.__dict__:
            tracer.wrap_generator_method(cls, "trace", "kernels.trace", "kernels.accesses")

    tracer.wrap_function(
        memcache, "simulate", "memsim.engine",
        lambda record, args, result: tracer.count("memsim.simulations"),
    )
    tracer.wrap_method(
        L1Model, "analyze", "models.l1",
        lambda record, args, result: tracer.count("models.l1_analyses"),
    )
    tracer.wrap_function(performance, "kernel_time", "models.time_model")
    tracer.wrap_function(performance, "pb_phase_times", "models.time_model")
    tracer.wrap_function(experiment, "evaluate_drift", "models.time_model")

    def count_get(record, args, result):
        tracer.count("cache.gets")
        if result is not None:
            tracer.count("cache.hits")

    tracer.wrap_method(MeasurementCache, "get", "cache.get", count_get)
    tracer.wrap_method(MeasurementCache, "put", "cache.put")
    tracer.wrap_function(compiler, "compile_plan", "plan.compile")
    tracer.wrap_function(executor, "execute_plan", "plan.execute")
    tracer.wrap_function(sweep, "run_cells", "dispatch.run")


def install_serve_layers(tracer: LayerTracer) -> None:
    """Wrap the layers a served query or an edge update passes through."""
    builder, delta, personalized, shm, updates, serve_cache, server = map(
        _module,
        ("graphs.builder", "kernels.delta", "kernels.personalized", "parallel.shm",
         "serve.updates", "serve.cache", "serve.server"),
    )
    from repro.harness.cache import MeasurementCache
    from repro.serve.batching import BatchQueue
    from repro.serve.cache import ServeCache
    from repro.serve.server import PPRServer

    def count_build(record, args, result):
        tracer.count("graphs.builds")
        tracer.count("graphs.edges_in", len(args[0].src))

    tracer.wrap_function(builder, "build_csr", "graphs.build", count_build)

    def count_solve(record, args, result):
        seconds = record.end - record.start
        tracer.count("ppr.solves")
        tracer.count("ppr.queries_solved", len(result))
        tracer.count("ppr.iterations", sum(r.iterations for r in result))
        tracer.count("ppr.unconverged", sum(1 for r in result if not r.converged))
        if result:
            tracer.samples["ppr.solve_ms"].extend(
                [seconds * 1000.0 / len(result)] * len(result)
            )

    tracer.wrap_function(
        personalized, "multi_personalized_pagerank", "ppr.solve", count_solve
    )

    def cache_key():
        return "serve.invalidate" if tracer.updating else "serve.cache"

    for name in ("get", "put", "drop", "entries"):
        tracer.wrap_method(ServeCache, name, cache_key)
    tracer.wrap_method(MeasurementCache, "get", "cache.get")
    tracer.wrap_method(MeasurementCache, "put", "cache.put")

    original_apply = updates.apply_edge_updates

    @functools.wraps(original_apply)
    def apply_edge_updates(*args, **kwargs):
        # The rest of PPRServer.apply_updates after this call runs without
        # an await, so everything until it returns is the update's body.
        with tracer.span("serve.rebuild"):
            result = original_apply(*args, **kwargs)
        tracer.updating = True
        return result

    tracer._replace_function(original_apply, apply_edge_updates)
    tracer.wrap_function(updates, "dirty_ancestors", "serve.invalidate")
    tracer.wrap_function(updates, "update_residual", "serve.repropagate")
    tracer.wrap_function(delta, "delta_repropagate", "serve.repropagate")
    tracer.wrap_function(shm, "graph_fingerprint", "serve.request")
    tracer.wrap_function(serve_cache, "serve_fingerprint", "serve.request")
    tracer.wrap_function(server, "topk", "serve.request")

    original_updates = PPRServer.__dict__["apply_updates"]

    @functools.wraps(original_updates)
    async def apply_updates(self, batch):
        before = {k: tracer.inclusive[k] for k in _UPDATE_KEYS}
        try:
            return await original_updates(self, batch)
        finally:
            tracer.updating = False
            for key in _UPDATE_KEYS:
                tracer.samples[key + "_ms"].append(
                    (tracer.inclusive[key] - before[key]) * 1000.0
                )

    tracer._replace_method(PPRServer, "apply_updates", apply_updates)

    enqueued: dict[int, float] = {}
    original_put = BatchQueue.__dict__["put"]
    original_next = BatchQueue.__dict__["next_batch"]

    @functools.wraps(original_put)
    def put(self, item):
        enqueued[id(item)] = perf_counter()
        return original_put(self, item)

    @functools.wraps(original_next)
    async def next_batch(self):
        batch = await original_next(self)
        now = perf_counter()
        for item in batch:
            started = enqueued.pop(id(item), None)
            if started is not None:
                tracer.samples["serve.queue_wait_ms"].append((now - started) * 1000.0)
        return batch

    tracer._replace_method(BatchQueue, "put", put)
    tracer._replace_method(BatchQueue, "next_batch", next_batch)


_UPDATE_KEYS = ("serve.rebuild", "serve.invalidate", "serve.repropagate")
