"""Tests of the benchmark itself: python3 -m pytest benchmarks -q"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import speed
import tracing
import workloads
from coarsefine import Document, RetrievalConfig, build_index, save_index
from coarsefine.embed import QueryRepresentation
from coarsefine.inter import decode_clusters
from coarsefine.pipeline import load_index, query_vector
from inputs import CorpusShape, make_corpus, spans

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture(scope="module")
def quick_round(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("round"))
    workload = workloads.WORKLOADS["decode-heavy"].quick()
    files = workloads.write_inputs(workload, 5, os.path.join(work, "inputs"))
    rnd = workloads.run_round(workload, files, os.path.join(work, "round"), speed.Calibrator())
    assert rnd.failed == 0, rnd.failure
    return workload, files, rnd


@pytest.mark.parametrize("flags", [dict(), dict(expected_clusters=4, k_clusters=3, beam_size=5)])
def test_reference_decoder_agrees_with_decode_clusters(tmp_path, flags):
    rng = np.random.default_rng(3)
    docs = make_corpus(CorpusShape(n_docs=240, n_topics=6, doc_len=15), rng, "d")
    config = RetrievalConfig(dim=64, **flags)
    save_index(build_index([Document(*d) for d in docs], config), str(tmp_path))
    index = load_index(str(tmp_path))
    ref = checks.IndexFiles(str(tmp_path))
    for _, text in spans(docs, 25, 5, rng):
        q = ref.query_vector(text)
        assert q.tobytes() == query_vector(index, text).tobytes()
        program = decode_clusters(QueryRepresentation(pooled=q), index.scorer, index.trie,
                                  config.beam_size, config.length_penalty, config.k_clusters)
        reference = ref.decode(q)
        assert [tuple(h.cid) for h in program] == [cid for cid, _ in reference]
        for h, (_, s_inter) in zip(program, reference):
            assert abs(h.s_inter - s_inter) <= checks.DECODE_TOL


def test_checks_pass_on_an_unchanged_round(quick_round):
    workload, files, rnd = quick_round
    problems, recall = checks.check_round(rnd, files, workload.epochs, 10, workloads.K)
    assert problems == []
    assert 0.0 < recall <= 1.0


def _perturbed_copy(rnd, tmp_path, field, delta, position=0):
    records = checks.read_results(rnd.results_path)
    records[0]["results"][position][field] += delta
    path = str(tmp_path / "results.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


@pytest.mark.parametrize("field,delta", [("s_intra", 1e-9), ("s_inter", 1e-6), ("s_overall", -1e-9)])
def test_checks_fail_when_a_score_is_perturbed(quick_round, tmp_path, field, delta):
    workload, files, rnd = quick_round
    original = rnd.results_path
    rnd.results_path = _perturbed_copy(rnd, tmp_path, field, delta)
    try:
        problems, _ = checks.check_round(rnd, files, workload.epochs, 10, workloads.K)
    finally:
        rnd.results_path = original
    assert any("q0000" in p for p in problems), problems


def test_checks_fail_when_entries_are_out_of_order(quick_round):
    workload, files, rnd = quick_round
    record = checks.read_results(rnd.results_path)[0]
    ref = checks.IndexFiles(rnd.index_dir)
    q = ref.query_vector(record["query_text"])
    entries = record["results"]
    assert checks.check_entries(ref, q, entries, workloads.K, "ok") == []
    swapped = [entries[1], entries[0]] + entries[2:]
    assert checks.check_entries(ref, q, swapped, workloads.K, "swapped")
    assert checks.check_entries(ref, q, entries + entries[:1], workloads.K + 1, "dup")


def test_round_records_measured_and_adjusted_times(quick_round):
    workload, _, rnd = quick_round
    for kind in (rnd.measured, rnd.adjusted):
        assert all(kind[key] > 0 for key in ("build", "add", "train", "retrieve"))
        assert len(kind["latencies"]) == workload.library_queries
    factor = rnd.adjusted["build"] / rnd.measured["build"]
    assert 0.2 < factor < 5.0


def test_losses_must_be_finite():
    assert checks.check_losses("epoch 1: loss 0.5\nepoch 2: loss 0.4\n", 2) == []
    assert checks.check_losses("epoch 1: loss 0.5\nepoch 2: loss nan\n", 2)
    assert checks.check_losses("epoch 1: loss 0.5\n", 2)


def test_inputs_depend_only_on_the_seed(tmp_path):
    workload = workloads.WORKLOADS["ingest"].quick()
    a = workloads.write_inputs(workload, 7, str(tmp_path / "a"))
    b = workloads.write_inputs(workload, 7, str(tmp_path / "b"))
    c = workloads.write_inputs(workload, 8, str(tmp_path / "c"))
    names = sorted(os.listdir(a.directory))
    assert checks.file_digests(a.directory) == checks.file_digests(b.directory)
    assert checks.file_digests(a.directory) != checks.file_digests(c.directory)
    assert len(names) == 3 + workload.add_batches


def test_quick_run_prints_a_correct_result():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "fine-heavy", "--seed", "3",
         "--seconds", "1", "--trace", "1", "--quick"],
        capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(tracing.LAYER_METRICS)
    trace = os.path.join(HERE, "out", "trace-fine-heavy-seed3.jsonl")
    assert os.path.exists(trace)
    os.remove(trace)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "ingest", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
