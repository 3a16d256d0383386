"""Seeded synthetic inputs for the benchmark: corpora, queries, training pairs.

Everything here is a pure function of its arguments, so the same seed always
gives the same files. It deliberately does not reuse the test helpers: an
edit to the tests must never change what the benchmark measures.

A corpus is made of topics. Each document belongs to topic i % n_topics and
draws every token either from a shared vocabulary (with probability
common_frac) or from its topic's own vocabulary. A known-item query is a
contiguous span of one document's tokens; its source document is the one
relevant answer. A training pair is a different span of a document paired
with that document's id.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CorpusShape:
    n_docs: int
    n_topics: int
    doc_len: int
    vocab_per_topic: int = 30
    common_vocab: int = 500
    common_frac: float = 0.3


def make_corpus(shape: CorpusShape, rng: np.random.Generator, id_prefix: str) -> list[tuple[str, str]]:
    """(doc_id, text) pairs; ids are id_prefix plus a zero-padded index."""
    n, length = shape.n_docs, shape.doc_len
    common = rng.random((n, length)) < shape.common_frac
    common_words = rng.integers(0, shape.common_vocab, size=(n, length))
    topic_words = rng.integers(0, shape.vocab_per_topic, size=(n, length))
    docs = []
    for i in range(n):
        topic = i % shape.n_topics
        words = [
            f"c{common_words[i, j]}" if common[i, j] else f"t{topic}w{topic_words[i, j]}"
            for j in range(length)
        ]
        docs.append((f"{id_prefix}{i:06d}", " ".join(words)))
    return docs


def spans(docs: list[tuple[str, str]], count: int, span_len: int,
          rng: np.random.Generator) -> list[tuple[str, str]]:
    """(source doc_id, span text) for `count` distinct documents."""
    picks = rng.choice(len(docs), size=count, replace=False)
    out = []
    for i in picks:
        doc_id, text = docs[int(i)]
        tokens = text.split()
        start = int(rng.integers(0, len(tokens) - span_len + 1))
        out.append((doc_id, " ".join(tokens[start:start + span_len])))
    return out


def write_corpus(docs: list[tuple[str, str]], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id, text in docs:
            fh.write(json.dumps({"id": doc_id, "text": text}, sort_keys=True) + "\n")


def write_queries(queries: list[tuple[str, str, str]], path: str) -> None:
    """queries: (query_id, text, source doc_id)."""
    with open(path, "w", encoding="utf-8") as fh:
        for qid, text, source in queries:
            fh.write(json.dumps({"query_id": qid, "query_text": text, "relevant": [source]},
                                sort_keys=True) + "\n")


def write_pairs(pairs: list[tuple[str, str, str]], path: str) -> None:
    """pairs: (query_id, text, positive doc_id)."""
    with open(path, "w", encoding="utf-8") as fh:
        for qid, text, positive in pairs:
            fh.write(json.dumps({"query_id": qid, "query_text": text,
                                 "positive_doc_id": positive}, sort_keys=True) + "\n")
