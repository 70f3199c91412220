"""Set-up probe: one fresh interpreter brought to the first timed call.

Run as ``python3 pbbench/probe.py WORKLOAD SEED`` from the repository
root.  It does the set-up the workload does before its first timed call
and prints ``time.monotonic()`` at that moment as its last line; the
parent subtracts the time it launched the interpreter (both clocks are
the system-wide monotonic clock on Linux).
"""

from __future__ import annotations

import asyncio
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def ready_reproduce(seed: int) -> None:
    import repro.plan as plan_pkg
    from repro.harness import reproduce

    from reproduce_load import SCALE, program_seed

    specs = reproduce.plan_specs(
        set(reproduce.ARTIFACTS), scale=SCALE, seed=program_seed(seed)
    )
    plan_pkg.compile_plan(specs)


def ready_serve(churn: bool) -> None:
    from repro.serve import PPRServer, ServeCache, ServeConfig

    from serve_load import load_graph

    server = PPRServer(load_graph(), ServeConfig(), cache=ServeCache(tempfile.mkdtemp()))
    if churn:
        server.global_scores()

    async def start_stop():
        async with server:
            pass

    asyncio.run(start_stop())


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    if workload.startswith("reproduce"):
        ready_reproduce(seed)
    else:
        ready_serve(workload == "serve-churn")
    print(repr(time.monotonic()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
