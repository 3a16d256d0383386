"""retrieve against the per-leaf oracle, ==, where the fine stage scores every
recalled one-member leaf in one pass and each larger leaf with one
rank_within_cluster call.

reference_retrieve ranks every recalled leaf with its own rank_within_cluster
call, so these checks hold only while row_dots gives each row the bits of its
own 1-D product whatever other rows share the call; CI runs this file under
more than one BLAS kernel and numpy dispatch for that reason.
"""

import dataclasses

import numpy as np
import pytest

from coarsefine import (
    Document,
    QueryRepresentation,
    RetrievalConfig,
    add_documents,
    build_index,
    decode_clusters,
    retrieve,
)
from coarsefine import pipeline
from coarsefine.intra import LinearAdapter
from coarsefine.pipeline import query_vector
from helpers import reference_retrieve, topic_corpus


def recalled_sizes(index, text):
    """The member counts of the leaves a query recalls, in recall order."""
    cfg = index.config
    rep = QueryRepresentation(pooled=query_vector(index, text).astype(np.float64))
    hypotheses = decode_clusters(rep, index.scorer, index.trie, cfg.beam_size,
                                 cfg.length_penalty, cfg.k_clusters)
    return [len(index.tree.leaves[hyp.cid].members) for hyp in hypotheses]


def query_texts(docs, seed):
    """Six-token spans of documents and mixes of tokens from across the corpus."""
    rng = np.random.default_rng(seed)
    texts = [" ".join(doc.text.split()[:6]) for doc in docs[::23]]
    vocabulary = sorted({token for doc in docs for token in doc.text.split()})
    texts += [" ".join(rng.choice(vocabulary, size=8)) for _ in range(4)]
    return texts


def assert_retrieve_equals_the_oracle(index, texts, monkeypatch):
    """== and repr-equal entries for k in {1, 10}, three betas, with and
    without an adapter; one rank_within_cluster call per recalled leaf that
    has other than one member."""
    calls = []
    rank = pipeline.rank_within_cluster
    monkeypatch.setattr(pipeline, "rank_within_cluster",
                        lambda *args: calls.append(args[2]) or rank(*args))
    dim = index.config.dim
    weight = np.eye(dim) + 0.05 * np.random.default_rng(dim).standard_normal((dim, dim))
    config = index.config
    for adapter in (None, LinearAdapter(weight.astype(np.float32))):
        index.adapter = adapter
        for beta in (0.0, 1.0, 1e5):
            index.config = dataclasses.replace(config, beta=beta)
            for text in texts:
                multi = sum(size != 1 for size in recalled_sizes(index, text))
                for k in (1, 10):
                    calls.clear()
                    got = retrieve(index, text, k).entries
                    assert len(calls) == multi
                    want = reference_retrieve(index, text, k).entries
                    assert got == want
                    assert repr(got) == repr(want)  # also tells -0.0 from 0.0
    index.adapter, index.config = None, config


@pytest.mark.parametrize("seed", [0, 1])
def test_retrieve_equals_the_per_leaf_oracle_before_and_after_one_member_leaves_grow(
        seed, monkeypatch):
    docs = topic_corpus(6, 50, seed=seed)
    index = build_index(docs, RetrievalConfig(seed=seed))
    leaves = index.tree.leaves
    assert sum(len(leaf.members) == 1 for leaf in leaves.values()) > len(leaves) // 2
    assert len(leaves) > index.config.k_clusters  # recall is a subset of the leaves
    texts = query_texts(docs, seed)
    assert any(set(recalled_sizes(index, text)) == {1} for text in texts)
    assert_retrieve_equals_the_oracle(index, texts, monkeypatch)

    singles = [leaf.members[0] for leaf in leaves.values() if len(leaf.members) == 1]
    add_documents(index, [Document(f"copy_{doc_id}", index.texts[index.embeddings.row[doc_id]])
                          for doc_id in singles[::3]])
    assert any(leaves[index.tree.cid_by_doc[doc_id]].members == [doc_id, f"copy_{doc_id}"]
               for doc_id in singles[::3])  # a copy of a member's text joins its leaf
    recalled = [set(recalled_sizes(index, text)) for text in texts]
    assert any({1, 2} <= sizes for sizes in recalled)
    assert_retrieve_equals_the_oracle(index, texts, monkeypatch)


def test_retrieve_equals_the_per_leaf_oracle_where_no_recalled_leaf_has_one_member(
        monkeypatch):
    docs = topic_corpus(4, 30, seed=4)
    index = build_index(docs, RetrievalConfig(expected_clusters=3, branching=3, beam_size=10,
                                              k_clusters=5, seed=4))
    texts = query_texts(docs, 4)
    assert all(min(recalled_sizes(index, text)) > 1 for text in texts)
    assert_retrieve_equals_the_oracle(index, texts, monkeypatch)
