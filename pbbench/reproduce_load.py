"""The ``reproduce`` and ``reproduce-pool`` workloads.

A *pass* is the call sequence of ``python -m repro.harness.reproduce``
(``plan_specs`` -> ``compile_plan`` -> ``execute_plan`` -> render) for
all twelve artifacts, written to a fresh output directory.  A *cold*
pass starts from an empty :class:`~repro.harness.cache.MeasurementCache`
and executes every cell; a *warm* pass repeats the sequence against the
cache the cold pass filled and executes none.  Every artifact is checked
by SHA-256 against digests recorded with the program's own
``python -m repro.harness.reproduce`` (see ``make_reference.py``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter

#: Suite scale of every pass.  The north-star scale is 0.25, but a cold
#: serial pass there takes about 45 s on a 2-CPU host, more than one run
#: of this benchmark may spend; 0.05 keeps the same twelve artifacts, the
#: same cell shapes and the same layer mix at about 5 s per cold pass.
SCALE = 0.05

#: The run's seed selects one of this many program seeds (seed modulo),
#: each with recorded reference digests.
REFERENCE_SEEDS = 32

#: Warm passes run after each cold pass.
WARM_PER_COLD = 3

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_digests.json")


def program_seed(seed: int) -> int:
    """The ``--seed`` handed to the program for benchmark seed ``seed``."""
    return seed % REFERENCE_SEEDS


def load_reference(seed: int) -> dict[str, str]:
    """Recorded ``{artifact file name: sha256}`` for one program seed."""
    with open(REFERENCE_FILE) as handle:
        data = json.load(handle)
    if data.get("scale") != SCALE:
        raise ValueError(f"{REFERENCE_FILE} was recorded at scale {data.get('scale')}, not {SCALE}")
    return data["digests"][str(seed)]


def digest_mismatches(directory: str, reference: dict[str, str]) -> list[str]:
    """Artifact files in ``directory`` whose SHA-256 differs from ``reference``.

    A missing or unreadable file counts as a mismatch.
    """
    bad = []
    for name, expected in sorted(reference.items()):
        try:
            with open(os.path.join(directory, name), "rb") as handle:
                actual = hashlib.sha256(handle.read()).hexdigest()
        except OSError:
            actual = None
        if actual != expected:
            bad.append(name)
    return bad


class TimedCache:
    """A :class:`MeasurementCache` that notes when each result lands.

    ``execute_plan`` takes its cache duck-typed (``get``/``put``), so this
    adapter sees every completed cell the moment the executor stores it.
    """

    def __init__(self, directory: str) -> None:
        from repro.harness.cache import MeasurementCache

        self.inner = MeasurementCache(directory)
        self.completed_at: list[float] = []
        self.cell_seconds: list[float] = []

    def get(self, fingerprint):
        return self.inner.get(fingerprint)

    def put(self, fingerprint, result, seconds=0.0):
        self.inner.put(fingerprint, result, seconds)
        self.completed_at.append(perf_counter())
        self.cell_seconds.append(seconds)


@dataclass
class PassResult:
    window: tuple
    cells: int
    artifacts: int
    failed: int
    cells_requested: int = 0
    cells_executed: int = 0
    cache_hits: int = 0
    retries: int = 0
    pool_restarts: int = 0
    completion_ms: list[float] = field(default_factory=list)
    cell_seconds: list[float] = field(default_factory=list)
    dispatch_cells: int = 0

    @property
    def wall_s(self) -> float:
        return self.window[1] - self.window[0]


def run_pass(
    out_dir: str,
    cache: TimedCache,
    *,
    seed: int,
    workers: int,
    reference: dict[str, str],
    span=None,
) -> PassResult:
    """One reproduction pass into ``out_dir``; artifacts checked afterwards."""
    import repro.plan as plan_pkg
    from repro.harness import reproduce
    from repro.parallel.resilience import CellFailedError, RetryPolicy, SweepOptions, SweepStats

    span = span or (lambda key: contextlib.nullcontext())
    os.makedirs(out_dir)
    first_put = len(cache.completed_at)
    sweep_stats = SweepStats()
    failed_cells = 0
    started = perf_counter()
    with span("plan.specs"):
        specs = reproduce.plan_specs(set(reproduce.ARTIFACTS), scale=SCALE, seed=seed)
    plan = plan_pkg.compile_plan(specs)
    options = SweepOptions(
        workers=workers, policy=RetryPolicy(max_retries=2), stats=sweep_stats
    )
    try:
        results = plan_pkg.execute_plan(plan, workers=workers, options=options, cache=cache)
    except CellFailedError as exc:
        results = None
        failed_cells = 1 + len(exc.also_failed)
    if results is not None:
        for spec in specs:
            with span("harness.render"):
                try:
                    text = results.artifact(spec.name).render()
                except Exception as exc:  # counted: its file stays missing
                    print(f"pbbench: {spec.name} did not render: {exc!r}", file=sys.stderr)
                    continue
                path = os.path.join(out_dir, f"{reproduce.EMIT_NAMES[spec.name]}.txt")
                with open(path, "w") as handle:
                    handle.write(text + "\n")
    finished = perf_counter()
    failed = failed_cells + len(digest_mismatches(out_dir, reference))
    completions = cache.completed_at[first_put:]
    return PassResult(
        window=(started, finished),
        cells=plan.cells_unique,
        artifacts=len(reference),
        failed=failed,
        cells_requested=plan.cells_requested,
        cells_executed=plan.stats.executed,
        cache_hits=plan.stats.cache_hits,
        retries=sweep_stats.retries,
        pool_restarts=sweep_stats.pool_restarts,
        dispatch_cells=sweep_stats.cells,
        completion_ms=[(t - started) * 1000.0 for t in completions],
        cell_seconds=cache.cell_seconds[first_put:],
    )


def measure(scratch: str, *, seed: int, workers: int, rounds: int, span=None) -> dict:
    """``rounds`` times: a cold pass, then ``WARM_PER_COLD`` warm passes.

    Returns every pass, grouped as ``{"cold": [...], "warm": [...]}``,
    and the worker count.
    """
    pseed = program_seed(seed)
    reference = load_reference(pseed)
    passes: dict[str, list[PassResult]] = {"cold": [], "warm": []}
    for round_no in range(rounds):
        cache = TimedCache(os.path.join(scratch, f"cache-{round_no}"))
        passes["cold"].append(
            run_pass(os.path.join(scratch, f"cold-{round_no}"), cache,
                     seed=pseed, workers=workers, reference=reference, span=span)
        )
        for warm_no in range(WARM_PER_COLD):
            passes["warm"].append(
                run_pass(os.path.join(scratch, f"warm-{round_no}-{warm_no}"), cache,
                         seed=pseed, workers=workers, reference=reference, span=span)
            )
    return {**passes, "workers": workers}
