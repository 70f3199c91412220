"""The verifiers reject one flipped byte in an artifact or in a score vector."""

import hashlib
import os
from types import SimpleNamespace

import numpy as np

import reproduce_load
import serve_load


def test_one_flipped_artifact_byte_is_a_mismatch(tmp_path):
    texts = {"fig3_vertex_traffic.txt": b"fig3\n1 2 3\n", "table1_suite.txt": b"rows\n"}
    for name, data in texts.items():
        (tmp_path / name).write_bytes(data)
    reference = {name: hashlib.sha256(data).hexdigest() for name, data in texts.items()}
    assert reproduce_load.digest_mismatches(str(tmp_path), reference) == []

    corrupted = bytearray(texts["fig3_vertex_traffic.txt"])
    corrupted[5] ^= 0x01
    (tmp_path / "fig3_vertex_traffic.txt").write_bytes(bytes(corrupted))
    assert reproduce_load.digest_mismatches(str(tmp_path), reference) == [
        "fig3_vertex_traffic.txt"
    ]


def test_missing_artifact_is_a_mismatch(tmp_path):
    reference = {"fig4_speedup.txt": hashlib.sha256(b"x").hexdigest()}
    assert reproduce_load.digest_mismatches(str(tmp_path), reference) == ["fig4_speedup.txt"]


def test_recorded_reference_covers_every_artifact_of_every_seed():
    for seed in range(reproduce_load.REFERENCE_SEEDS):
        digests = reproduce_load.load_reference(seed)
        assert len(digests) == 12
    assert reproduce_load.program_seed(reproduce_load.REFERENCE_SEEDS + 3) == 3


def _answer(graph_fp, seeds, scores):
    from repro.serve import ServeConfig, serve_fingerprint

    fingerprint = serve_fingerprint(graph_fp, seeds, ServeConfig().solver_params())
    return SimpleNamespace(scores=scores, fingerprint=fingerprint, seeds=seeds)


def _setup():
    from repro.graphs import load_graph
    from repro.kernels.personalized import personalized_pagerank, restart_teleport
    from repro.parallel.shm import graph_fingerprint

    graph = load_graph("kron", scale=1 / 256)
    seeds = (1, 5)
    scores = personalized_pagerank(graph, restart_teleport(graph.num_vertices, seeds)).scores
    return graph, graph_fingerprint(graph), seeds, scores


def test_exact_answer_passes_and_one_flipped_score_byte_fails():
    graph, fp, seeds, scores = _setup()
    answers = serve_load.Answers()
    answers.record(_answer(fp, seeds, scores), 0, 0)
    assert serve_load.verify(answers, [graph], [fp]) == {
        "exceptions": 0, "mismatched": 0, "stale": 0
    }

    flipped = scores.copy()
    flipped.view(np.uint8)[7] ^= 0x01
    answers.record(_answer(fp, seeds, flipped), 0, 0)
    assert serve_load.verify(answers, [graph], [fp])["mismatched"] == 1


def test_answer_for_an_older_graph_is_stale():
    from repro.serve import EdgeUpdate, apply_edge_updates

    graph, fp, seeds, scores = _setup()
    newer, _ = apply_edge_updates(graph, [EdgeUpdate(2, 3)])
    from repro.parallel.shm import graph_fingerprint

    fingerprints = [fp, graph_fingerprint(newer)]
    answers = serve_load.Answers()
    # Correct scores for version 0, but the query was sent once version 1 was live.
    answers.record(_answer(fp, seeds, scores), 1, 1)
    assert serve_load.verify(answers, [graph, newer], fingerprints) == {
        "exceptions": 0, "mismatched": 0, "stale": 1
    }


def test_answer_naming_no_known_graph_is_a_mismatch():
    graph, fp, seeds, scores = _setup()
    answers = serve_load.Answers()
    answers.record(_answer("not-a-graph", seeds, scores), 0, 0)
    assert serve_load.verify(answers, [graph], [fp])["mismatched"] == 1


def test_one_failure_shows_in_error_rate():
    import run

    assert run.error_rate(1000, 0) == run.ERROR_FLOOR
    assert run.error_rate(40, 1) == 1 / 40
