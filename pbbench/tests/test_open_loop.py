"""Open-loop latency is timed from each query's due time, and lateness is reported."""

import asyncio
import time
from types import SimpleNamespace

import numpy as np

import serve_load


class StallingServer:
    """Answers instantly, except that the first query blocks the event loop."""

    graph_fp = "g0"

    def __init__(self, stall_s):
        self.stall_s = stall_s
        self.calls = 0

    async def query(self, seeds):
        self.calls += 1
        if self.calls == 1:
            time.sleep(self.stall_s)  # blocks the loop, as a long update does
        return SimpleNamespace(
            scores=np.zeros(4, dtype=np.float32), fingerprint=f"fp{seeds}", seeds=tuple(seeds)
        )


def run_open_loop(server, queries, rate):
    answers = serve_load.Answers()
    versions = serve_load._Versions(["g0"])
    return asyncio.run(serve_load.open_loop(server, queries, rate, answers, versions)), answers


def test_stall_is_charged_to_the_queries_it_delays():
    rate, stall = 100.0, 0.08  # queries due every 10 ms; the first stalls 80 ms
    queries = [(i,) for i in range(6)]
    (latencies, late, update_ms, backlog), answers = run_open_loop(
        StallingServer(stall), queries, rate
    )
    assert answers.attempted == 6 and len(latencies) == 6 and update_ms == []
    # Query 1 was due 10 ms in but could only be sent after the 80 ms stall.
    assert late[1] >= 60.0
    # Lateness decreases along the backlog: each later query was due later.
    assert late[1] > late[2] > late[3]
    # Latency runs from due time, so it includes the time the send was late.
    for lat, lag in zip(latencies, late):
        assert lat >= lag
    assert latencies[1] >= 60.0


def test_no_stall_means_on_time_sends():
    queries = [(i,) for i in range(5)]
    (latencies, late, _, backlog), _ = run_open_loop(StallingServer(0.0), queries, 50.0)
    assert max(late) < 15.0
    assert max(latencies) < 20.0
    assert backlog <= 1
