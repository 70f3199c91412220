"""One benchmark run: ``python3 pbbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the repository root.  The program is imported from ``src/``
as it is in the checkout; nothing is installed.  With ``--trace 0`` the
run measures the workload with no tracing and prints every end-to-end
metric; with ``--trace 1`` it measures one round untraced, one with the
layer wrappers of ``layers.py`` installed and one untraced again, and
prints the per-layer metrics (``traced.py``).  Either way every output
is checked, and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Everything the run writes lives under one scratch directory in the
current directory, removed on exit; every process it starts has ended
before it prints.  See ``pbbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("reproduce", "reproduce-pool", "serve", "serve-churn")

#: Set-up probes per run: one discarded warm-up (bytecode compilation and
#: page-cache fill happen once per checkout), then this many before and as
#: many after the measurement, so the median spans the run's whole length.
SETUP_PROBES = 3

#: ``error_rate`` is reported at this floor when nothing failed, because a
#: metric must never read 0; any failure reads at least 1/attempted.
ERROR_FLOOR = 1e-6

#: Worker processes of ``reproduce-pool`` (the host has 2 CPUs).
POOL_WORKERS = 2

#: Nominal seconds of one measurement round (a cold pass and its warm
#: passes; a serve cycle) on a 2-CPU host.  A run measures
#: ``round(seconds / ROUND_SECONDS)`` rounds, at least two: a fixed amount
#: of work, so a slower program takes longer instead of doing less.  The
#: serve open loop runs once per run, after the last cycle, on top.
ROUND_SECONDS = {"reproduce": 5.0, "reproduce-pool": 3.5, "serve": 4.0, "serve-churn": 4.0}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value, unit):
    return {"value": float(value), "unit": unit}


# ----------------------------------------------------------------------
# set-up probes
# ----------------------------------------------------------------------
def setup_probes(workload: str, seed: int, count: int) -> list[float]:
    """Seconds from launching a fresh interpreter to its first timed call, ``count`` times."""
    samples = []
    for _ in range(count):
        launched = time.monotonic()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)],
            capture_output=True, text=True, cwd=ROOT, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]) - launched)
    return samples


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------
def rounds_for(workload: str, seconds: float) -> int:
    return max(2, round(seconds / ROUND_SECONDS[workload]))


def measure(workload: str, seed: int, rounds: int, scratch: str, *, span=None, references=None):
    """Measure ``rounds`` rounds of ``workload``.

    ``span`` (reproduce) is the tracer's span factory for the benchmark's
    own calls; ``references`` (serve) keeps reference solutions between
    measurements of one process.
    """
    if workload.startswith("reproduce"):
        import reproduce_load

        workers = POOL_WORKERS if workload == "reproduce-pool" else 1
        return reproduce_load.measure(
            scratch, seed=seed, workers=workers, rounds=rounds, span=span
        )
    import serve_load

    return serve_load.measure(
        scratch, seed=seed, churn=workload == "serve-churn", rounds=rounds,
        references=references,
    )


def attempted_failed(result) -> tuple[int, int]:
    if "cold" in result:
        passes = result["cold"] + result["warm"]
        return (
            sum(p.cells + p.artifacts for p in passes),
            sum(p.failed for p in passes),
        )
    return result["attempted"], result["failed"]


def end_to_end(workload, result, setup_s, lines) -> dict:
    import stats

    attempted, failed = attempted_failed(result)
    if "cold" in result:
        cold, warm = result["cold"], result["warm"]
        wall = stats.median(p.wall_s for p in cold)
        warm_wall = stats.median(p.wall_s for p in warm)
        qps = stats.median(p.cells / p.wall_s for p in cold)
        latencies = [v for p in cold for v in p.completion_ms]
        lines.append(f"{len(cold)} cold and {len(warm)} warm passes of {cold[0].cells} cells")
        lines.append("cold passes (s): " + " ".join(f"{p.wall_s:.3f}" for p in cold))
        lines.append("warm passes (s): " + " ".join(f"{p.wall_s:.3f}" for p in warm))
    else:
        cycles = result["cycles"]
        import serve_load

        wall = stats.median(c.burst_s for c in cycles)
        warm_wall = stats.median(c.warm_s for c in cycles)
        qps = stats.median(serve_load.BURST_QUERIES / c.burst_s for c in cycles)
        latencies = [v for c in cycles for v in c.latencies_ms]
        lines.append("bursts (s): " + " ".join(f"{c.burst_s:.3f}" for c in cycles))
        lines.append("warm replays (s): " + " ".join(f"{c.warm_s:.3f}" for c in cycles))
        lines.append(
            f"{len(cycles)} cycles; open loop at {serve_load.OPEN_RATE:g} queries/s, "
            f"generator late by at most {max(v for c in cycles for v in c.late_ms):.1f} ms"
        )
    tail = stats.tail(latencies)
    lines.append(
        f"lat_tail_ms is p{tail.percentile:g} of {tail.samples} samples ({tail.beyond} beyond)"
    )
    metrics = {
        "wall_s": metric(wall, "s"),
        "warm_wall_s": metric(warm_wall, "s"),
        "burst_qps": metric(qps, "1/s"),
        "lat_p50_ms": metric(stats.median(latencies), "ms"),
        "lat_tail_ms": metric(tail.value, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "error_rate": metric(error_rate(attempted, failed), "ratio"),
    }
    if workload == "serve-churn":
        updates = [v for c in result["cycles"] for v in c.update_ms]
        metrics["update_p50_ms"] = metric(stats.median(updates), "ms")
    return metrics


def error_rate(attempted: int, failed: int) -> float:
    """Failed over attempted operations, floored at :data:`ERROR_FLOOR`."""
    return max(failed / attempted, ERROR_FLOOR)


def peak_rss_mb() -> float:
    """Peak RSS of the largest process of the run, this one or a child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------------
# hygiene
# ----------------------------------------------------------------------
def child_pids() -> list[int]:
    """Live direct children of this process, read from /proc."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop the resource tracker and reap every child before reporting."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=10)
    resource_tracker._resource_tracker._stop()
    for pid in child_pids():
        try:
            os.kill(pid, 15)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    # Reap exited children nobody waited for.
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


def provenance() -> dict:
    import importlib.util

    import numpy

    from repro.memsim import DEFAULT_ENGINE

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT
        )
        commit = done.stdout.strip() or commit
    compiled = [
        name
        for name, present in (
            ("numba", importlib.util.find_spec("numba") is not None),
            ("cc", shutil.which("cc") is not None),
        )
        if present
    ]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "default_engine": DEFAULT_ENGINE,
        "compiled_backend_present": ",".join(compiled) or "none",
        "commit": commit,
    }


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    scratch = os.path.join(os.getcwd(), ".pbbench-scratch", f"run-{os.getpid()}")
    os.makedirs(os.path.join(scratch, "tmp"))
    # Every temporary file of the program and its children stays in scratch.
    os.environ["TMPDIR"] = os.path.join(scratch, "tmp")
    os.environ["REPRO_COMPILED_CACHE_DIR"] = os.path.join(scratch, "tmp")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    lines: list[str] = []
    try:
        source = os.path.join(ROOT, "src")
        try:
            import repro
        except ImportError as exc:
            print(f"pbbench: cannot import the program from {source}: {exc}", file=sys.stderr)
            return 2
        if not os.path.abspath(repro.__file__).startswith(source + os.sep):
            print(f"pbbench: the program is not in {source}", file=sys.stderr)
            return 2
        if args.trace:
            import traced

            result, metrics = traced.run(args.workload, args.seed, scratch, measure, lines)
        else:
            import stats

            probes = setup_probes(args.workload, args.seed, 1 + SETUP_PROBES)[1:]
            result = measure(
                args.workload, args.seed, rounds_for(args.workload, args.seconds), scratch
            )
            probes += setup_probes(args.workload, args.seed, SETUP_PROBES)
            lines.append("setup probes (s): " + " ".join(f"{p:.3f}" for p in probes))
            metrics = end_to_end(args.workload, result, stats.median(probes), lines)
        attempted, failed = attempted_failed(result)
        if "detail" in result:
            lines.append("serve verification: " + json.dumps(result["detail"]))
        lines.append("provenance: " + json.dumps(provenance()))
    finally:
        stop_children()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
