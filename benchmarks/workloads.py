"""Workload definitions, input files, and one timed round of the index life cycle.

A round is build-index -> add-docs -> train-adapter -> retrieve (CLI), then
library `retrieve` latencies on the loaded index. The CLI commands run
in-process through `coarsefine.cli.main`, so interpreter start and imports
stay out of the samples. Every round repeats exactly the same operations on
the same files, so a round's index bytes and results must match the first
round's.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import inputs
from checks import TREE_FILES, file_digests
from inputs import CorpusShape

K = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base: CorpusShape
    added: CorpusShape
    add_batches: int
    flags: tuple[str, ...]
    queries: int  # in the CLI query file; recall is taken over all of them
    pairs: int
    library_queries: int = 100  # the first ones, timed one library call at a time
    epochs: int = 2
    query_len: int = 6
    pair_len: int = 8

    def quick(self) -> "Workload":
        """The same workload at tiny sizes: seconds per run, for smoke tests."""
        return dataclasses.replace(
            self,
            base=dataclasses.replace(self.base, n_docs=min(self.base.n_docs, 300)),
            added=dataclasses.replace(self.added, n_docs=20 * self.add_batches),
            queries=20,
            library_queries=20,
            pairs=40,
        )


FINE_FLAGS = ("--k-clusters", "5", "--beam-size", "20")

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="decode-heavy",
            why="2.5k short docs, default config: singleton leaves at depth 3, so beam "
                "decoding and k-means recursion dominate and the fine stage idles",
            base=CorpusShape(n_docs=2500, n_topics=50, doc_len=20),
            added=CorpusShape(n_docs=150, n_topics=50, doc_len=20),
            add_batches=1,
            flags=(),
            queries=200,
            pairs=200,
        ),
        Workload(
            name="fine-heavy",
            why="2.5k long docs in 30 leaves of up to 200 at depth 1, so in-cluster ranking "
                "and the hashing embedder dominate and decoding idles",
            base=CorpusShape(n_docs=2500, n_topics=25, doc_len=100, vocab_per_topic=100),
            added=CorpusShape(n_docs=150, n_topics=25, doc_len=100, vocab_per_topic=100),
            add_batches=1,
            flags=("--expected-clusters", "9") + FINE_FLAGS,
            queries=200,
            pairs=200,
        ),
        Workload(
            name="ingest",
            why="1k-doc base grown by 2k docs in four add-docs batches, then a large "
                "adapter training set: writes, save/load and training dominate",
            base=CorpusShape(n_docs=1000, n_topics=20, doc_len=30),
            added=CorpusShape(n_docs=2000, n_topics=20, doc_len=30),
            add_batches=4,
            flags=("--expected-clusters", "8") + FINE_FLAGS,
            queries=200,
            pairs=500,
        ),
    ]
}


@dataclass
class InputFiles:
    """Paths of one workload's generated inputs, plus what the checks need."""

    directory: str
    base: str
    adds: list[str]
    queries: str
    pairs: str
    n_added: int
    query_texts: list[tuple[str, str]]  # (query_id, text)
    sources: dict[str, str]  # query_id -> source doc id


def write_inputs(workload: Workload, seed: int, directory: str) -> InputFiles:
    """Generate the workload's inputs from `seed` and write them as JSONL."""
    rng = np.random.default_rng(seed)
    base = inputs.make_corpus(workload.base, rng, "d")
    added = inputs.make_corpus(workload.added, rng, "a")
    queries = [(f"q{i:04d}", text, source) for i, (source, text)
               in enumerate(inputs.spans(base + added, workload.queries, workload.query_len, rng))]
    pairs = [(f"p{i:05d}", text, positive) for i, (positive, text)
             in enumerate(inputs.spans(base + added, workload.pairs, workload.pair_len, rng))]
    os.makedirs(directory, exist_ok=True)
    files = InputFiles(
        directory=directory,
        base=os.path.join(directory, "base.jsonl"),
        adds=[os.path.join(directory, f"add{b}.jsonl") for b in range(workload.add_batches)],
        queries=os.path.join(directory, "queries.jsonl"),
        pairs=os.path.join(directory, "pairs.jsonl"),
        n_added=len(added),
        query_texts=[(qid, text) for qid, text, _ in queries],
        sources={qid: source for qid, _, source in queries},
    )
    inputs.write_corpus(base, files.base)
    per_batch = -(-len(added) // workload.add_batches)
    for b, path in enumerate(files.adds):
        inputs.write_corpus(added[b * per_batch:(b + 1) * per_batch], path)
    inputs.write_queries(queries, files.queries)
    inputs.write_pairs(pairs, files.pairs)
    return files


class OperationFailed(Exception):
    pass


def run_cli(argv: list[str]) -> str:
    """Run one CLI command in-process; returns its stdout."""
    from coarsefine import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise OperationFailed(f"coarsefine {argv[0]} exited {code}")
    return out.getvalue()


def directory_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, name)) for name in os.listdir(directory))


def _times() -> dict:
    return {"build": 0.0, "add": 0.0, "train": 0.0, "retrieve": 0.0, "latencies": []}


@dataclass
class Round:
    """Timings and outputs of one round.

    `measured` holds seconds as measured; `adjusted` the same operations at
    the machine's reference speed (see speed.py). Keys: build, add (summed
    over batches), train, retrieve, and latencies (one per library query)."""

    measured: dict = field(default_factory=_times)
    adjusted: dict = field(default_factory=_times)
    attempted: int = 0
    failed: int = 0
    index_dir: str = ""
    results_path: str = ""
    build_tree_digests: dict[str, str] = field(default_factory=dict)
    train_stdout: str = ""
    library_results: dict = field(default_factory=dict)
    index: object = None
    failure: str = ""


def operation_count(workload: Workload) -> int:
    """Operations one round attempts: build, adds, train, CLI retrieve, load, queries."""
    return 1 + workload.add_batches + 1 + 1 + 1 + workload.library_queries


QUERY_BLOCK = 10  # library queries between two runs of the calibration kernel


def run_round(workload: Workload, files: InputFiles, work: str, calibrator) -> Round:
    """One round of timed operations, each bracketed by the calibration kernel.

    On a failed operation the rest of the round is counted as attempted and
    failed, so every round attempts the same number of operations."""
    from coarsefine import load_index, retrieve

    rnd = Round(index_dir=os.path.join(work, "index"),
                results_path=os.path.join(work, "results.jsonl"))
    rnd.attempted = operation_count(workload)
    shutil.rmtree(rnd.index_dir, ignore_errors=True)
    kernel = calibrator.kernel_s()

    def timed(key: str, argv: list[str]) -> str:
        nonlocal kernel
        gc.collect()
        t0 = time.perf_counter()
        out = run_cli(argv)
        elapsed = time.perf_counter() - t0
        after = calibrator.kernel_s()
        rnd.measured[key] += elapsed
        rnd.adjusted[key] += elapsed * calibrator.factor(kernel, after)
        kernel = after
        return out

    done = 0
    try:
        timed("build", ["build-index", "--corpus", files.base, "--out", rnd.index_dir,
                        *workload.flags])
        done += 1
        rnd.build_tree_digests = file_digests(rnd.index_dir, *TREE_FILES)
        for path in files.adds:
            timed("add", ["add-docs", "--index", rnd.index_dir, "--corpus", path])
            done += 1
        rnd.train_stdout = timed("train", ["train-adapter", "--index", rnd.index_dir, "--pairs",
                                           files.pairs, "--epochs", str(workload.epochs)])
        done += 1
        timed("retrieve", ["retrieve", "--index", rnd.index_dir, "--queries", files.queries,
                           "--out", rnd.results_path, "--k", str(K)])
        done += 1
        rnd.index = load_index(rnd.index_dir)
        done += 1
        queries = files.query_texts[:workload.library_queries]
        for start in range(0, len(queries), QUERY_BLOCK):
            gc.collect()
            before = calibrator.kernel_s()
            block = []
            for qid, text in queries[start:start + QUERY_BLOCK]:
                t0 = time.perf_counter()
                result = retrieve(rnd.index, text, K)
                block.append(time.perf_counter() - t0)
                rnd.library_results[qid] = result.entries
                done += 1
            factor = calibrator.factor(before, calibrator.kernel_s())
            rnd.measured["latencies"] += block
            rnd.adjusted["latencies"] += [x * factor for x in block]
    except Exception as exc:  # a failed operation is counted, not fatal
        rnd.failed = rnd.attempted - done
        rnd.failure = f"{type(exc).__name__}: {exc}"
    return rnd
