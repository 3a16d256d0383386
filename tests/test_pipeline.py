import dataclasses
import gc
import json
import math
import weakref

import numpy as np
import pytest

from coarsefine import (
    Document,
    QueryRepresentation,
    RetrievalConfig,
    RetrievalIndex,
    add_documents,
    build_index,
    decode_clusters,
    load_index,
    retrieve,
    save_index,
)
from coarsefine.embed import DocumentMatrix
from coarsefine.errors import DuplicateId, EmptyCorpus, EmptyIndex, EmptyText, ParseError
from coarsefine import cluster_tree, pipeline
from coarsefine.intra import LinearAdapter, intra_score, rank_within_cluster
from coarsefine.pipeline import load_config, query_vector
from helpers import (
    AxisEmbedder,
    UniformScorer,
    binary_depth2_tree,
    reference_retrieve,
    topic_corpus,
)


def small_config(**overrides):
    base = dict(dim=64, expected_clusters=8, branching=4, beam_size=100,
                k_clusters=100, seed=0)
    base.update(overrides)
    return RetrievalConfig(**base)


def small_index(seed=0):
    docs = topic_corpus(5, 40, seed=seed)
    return docs, build_index(docs, small_config(seed=seed))


def sample_queries(docs, n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        doc = docs[int(rng.integers(0, len(docs)))]
        toks = doc.text.split()
        pick = rng.choice(len(toks), size=5, replace=False)
        out.append(" ".join(toks[int(i)] for i in pick))
    return out


def hand_index(beta=1.0):
    """Index over the hand-built two-level tree with axis embeddings."""
    tree = binary_depth2_tree(dim=8)
    doc_ids = ["d11a", "d11b", "d12a", "d21a", "d22a"]
    emb = {}
    for i, d in enumerate(doc_ids):
        vec = np.zeros(8, dtype=np.float32)
        vec[i] = 1.0
        emb[d] = vec
    config = RetrievalConfig(dim=8, beta=beta, gamma=2.0, beam_size=8, k_clusters=8)
    return RetrievalIndex(
        corpus={d: Document(d, str(i)) for i, d in enumerate(doc_ids)},
        embeddings=emb,
        tree=tree,
        scorer=UniformScorer(),
        adapter=None,
        config=config,
        embedder=AxisEmbedder(8),
    )


def test_config_validates_beam_and_cluster_counts():
    with pytest.raises(ValueError):
        RetrievalConfig(beam_size=5, k_clusters=6)
    with pytest.raises(ValueError):
        RetrievalConfig(beam_size=5, k_clusters=0)


@pytest.mark.parametrize("field, value", [
    ("beam_size", "100"), ("beam_size", 100.0), ("k_clusters", True), ("dim", None),
    ("seed", 1.5), ("n_a", False), ("beta", "x"), ("length_penalty", None),
    ("temperature", True), ("gamma", [2.0]),
])
def test_config_rejects_values_of_the_wrong_type(field, value):
    with pytest.raises(TypeError, match=field):
        RetrievalConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("temperature", 0), ("temperature", -0.1), ("gamma", 0.0), ("n_a", -1),
    ("beta", math.nan), ("length_penalty", math.inf), ("temperature", math.inf),
    ("dim", 7),
])
def test_config_rejects_values_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        RetrievalConfig(**{field: value})


def test_config_takes_ints_for_floats():
    config = RetrievalConfig(beta=1, gamma=3, length_penalty=0, temperature=1, n_a=0)
    assert config.beta == 1 and config.n_a == 0


def test_build_index_rejects_empty_and_duplicate_corpora():
    with pytest.raises(EmptyCorpus):
        build_index([], small_config())
    docs = [Document("a", "x y"), Document("a", "z w")]
    with pytest.raises(DuplicateId):
        build_index(docs, small_config())


def test_build_index_validates_external_embeddings():
    docs = [Document("a", "x y"), Document("b", "z w")]
    cfg = small_config(dim=8)
    good = np.zeros(8, dtype=np.float32)
    good[0] = 1.0
    from coarsefine.errors import DimMismatch, UnknownDoc

    with pytest.raises(UnknownDoc):
        build_index(docs, cfg, doc_embeddings={"a": good})
    with pytest.raises(DimMismatch):
        build_index(docs, cfg, doc_embeddings={"a": good, "b": np.zeros(4, dtype=np.float32)})
    with pytest.raises(ValueError):
        build_index(docs, cfg, doc_embeddings={"a": good, "b": 3 * good})


def test_retrieve_validates_arguments():
    docs, idx = small_index()
    with pytest.raises(ValueError):
        retrieve(idx, "anything", 0)
    bare = RetrievalIndex(corpus={}, embeddings={}, tree=idx.tree,
                          scorer=idx.scorer, adapter=None, config=idx.config,
                          embedder=idx.embedder)
    with pytest.raises(EmptyIndex):
        retrieve(bare, "anything", 5)


def test_each_tree_builds_its_trie_once_and_the_index_uses_it(tmp_path, monkeypatch):
    built = []
    build_trie = cluster_tree.build_trie

    def counting_build_trie(cids):
        built.append(1)
        return build_trie(cids)

    monkeypatch.setattr(cluster_tree, "build_trie", counting_build_trie)
    docs, idx = small_index()
    assert len(built) == 1 and idx.trie is idx.tree.trie
    idx.scorer = dataclasses.replace(idx.scorer, temperature=0.2)
    for qtext in sample_queries(docs, 20, seed=3):
        retrieve(idx, qtext, 5)
    assert len(built) == 1
    save_index(idx, str(tmp_path))
    loaded = load_index(str(tmp_path))
    assert len(built) == 2 and loaded.trie is loaded.tree.trie


def test_fusion_identity_holds_bitwise():
    docs, idx = small_index()
    for qtext in sample_queries(docs, 10, seed=1):
        for entry in retrieve(idx, qtext, 20).entries:
            assert entry.s_overall == entry.s_inter + idx.config.beta * entry.s_intra


def test_returned_docs_come_from_decoded_clusters():
    docs, idx = small_index()
    cfg = idx.config
    for qtext in sample_queries(docs, 5, seed=2):
        q = query_vector(idx, qtext)
        hyps = decode_clusters(QueryRepresentation(pooled=q), idx.scorer, idx.trie,
                               cfg.beam_size, cfg.length_penalty, cfg.k_clusters)
        recalled = {h.cid for h in hyps}
        for entry in retrieve(idx, qtext, 10).entries:
            assert idx.tree.cid_by_doc[entry.doc_id] in recalled


def test_k_monotonicity():
    docs, idx = small_index()
    for qtext in sample_queries(docs, 5, seed=3):
        full = retrieve(idx, qtext, 20).entries
        for j in (1, 5, 10):
            assert retrieve(idx, qtext, j).entries == full[:j]


def exhaustive_oracle(idx, qtext, k):
    cfg = idx.config
    q = query_vector(idx, qtext)
    hyps = decode_clusters(QueryRepresentation(pooled=q), idx.scorer, idx.trie,
                           cfg.beam_size, cfg.length_penalty, idx.tree.leaf_count)
    by_cid = {h.cid: h for h in hyps}
    rows = []
    for doc_id, emb in idx.embeddings.items():
        s = intra_score(q, emb, doc_id)
        h = by_cid[idx.tree.cid_by_doc[doc_id]]
        rows.append((doc_id, h.s_inter, s.s_intra, h.s_inter + cfg.beta * s.s_intra))
    rows.sort(key=lambda r: (-r[3], -r[2], r[0]))
    return rows[:k]


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_retrieve_matches_exhaustive_ranking(beta):
    docs = topic_corpus(5, 40, seed=4)
    idx = build_index(docs, small_config(seed=4, beta=beta))
    assert idx.tree.leaf_count <= idx.config.beam_size  # beam covers every cluster
    for qtext in sample_queries(docs, 10, seed=5):
        for k in (1, 5, 20):
            got = [(e.doc_id, e.s_inter, e.s_intra, e.s_overall)
                   for e in retrieve(idx, qtext, k).entries]
            assert got == exhaustive_oracle(idx, qtext, k)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_tuple_fusion_returns_the_entries_of_the_old_fusion(seed, beta):
    # Every third document repeats an earlier text, so ties in s_intra (and,
    # at beta 0, in s_overall) are broken by doc id.
    base = topic_corpus(4, 12, seed=seed)
    docs = base + [Document(f"copy{i}", doc.text) for i, doc in enumerate(base[::3])]
    idx = build_index(docs, small_config(seed=seed, beta=beta, expected_clusters=6,
                                         beam_size=20, k_clusters=4))
    queries = sample_queries(docs, 4, seed=seed) + [docs[-1].text]
    for qtext in queries:
        for k in range(1, len(docs) + 3):
            got, want = retrieve(idx, qtext, k).entries, reference_retrieve(idx, qtext, k).entries
            assert got == want
            assert repr(got) == repr(want)  # also tells -0.0 from 0.0
    # the candidates of the last k ran out before k did
    assert len(retrieve(idx, queries[0], len(docs) + 2).entries) < len(docs) + 2


def test_beta_zero_orders_within_cluster_by_intra_then_id():
    idx = hand_index(beta=0.0)
    entries = retrieve(idx, "0", 5).entries
    # uniform scorer: every cluster shares s_inter, so ordering is the tie-break
    assert all(e.s_inter == entries[0].s_inter for e in entries)
    for a, b in zip(entries, entries[1:]):
        assert (-a.s_intra, a.doc_id) <= (-b.s_intra, b.doc_id)


def test_hand_index_retrieval_scores():
    idx = hand_index(beta=1.0)
    entries = retrieve(idx, "0", 5).entries  # query on d11a's axis
    assert entries[0].doc_id == "d11a"
    assert entries[0].s_inter == pytest.approx(0.25, abs=1e-12)
    assert entries[0].s_intra == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-12)
    assert all(e.s_intra == pytest.approx(0.5, abs=1e-12) for e in entries[1:])


def test_every_public_name_resolves_and_the_removed_ones_are_gone():
    import coarsefine

    assert len(set(coarsefine.__all__)) == len(coarsefine.__all__)
    assert all(getattr(coarsefine, name, None) is not None for name in coarsefine.__all__)
    for name in ("total_loss", "assign_cid"):
        assert name not in coarsefine.__all__
        assert not hasattr(coarsefine, name)
        assert not hasattr(pipeline, name) and not hasattr(cluster_tree, name)


def test_add_documents_appends_without_touching_existing_state():
    docs, idx = small_index(seed=6)
    old_cids = dict(idx.tree.cid_by_doc)
    old_bytes = {d: v.tobytes() for d, v in idx.embeddings.items()}
    qtexts = sample_queries(docs, 5, seed=7)
    before = [retrieve(idx, q, len(docs)).entries for q in qtexts]

    extra = topic_corpus(5, 10, seed=66)
    extra = [Document("new_" + d.doc_id, d.text) for d in extra]
    add_documents(idx, extra)

    for d, cid in old_cids.items():
        assert idx.tree.cid_by_doc[d] == cid
        assert idx.embeddings[d].tobytes() == old_bytes[d]
    for d in extra:
        assert idx.tree.cid_by_doc[d.doc_id] in idx.trie.cids() or idx.trie.contains(
            idx.tree.cid_by_doc[d.doc_id]
        )
    # old documents keep bitwise-identical scores on the same queries
    for qtext, old_entries in zip(qtexts, before):
        now = [e for e in retrieve(idx, qtext, len(docs) + len(extra)).entries
               if not e.doc_id.startswith("new_")]
        assert now == old_entries


def test_add_documents_rejects_duplicates():
    docs, idx = small_index()
    with pytest.raises(DuplicateId):
        add_documents(idx, [Document(docs[0].doc_id, "anything at all")])
    with pytest.raises(DuplicateId):
        add_documents(idx, [Document("fresh", "a b"), Document("fresh", "c d")])


def test_add_zero_documents_is_a_no_op():
    docs, idx = small_index()
    before = dict(idx.tree.cid_by_doc)
    add_documents(idx, [])
    assert idx.tree.cid_by_doc == before


def test_save_load_round_trip_preserves_results(tmp_path):
    docs, idx = small_index(seed=8)
    save_index(idx, str(tmp_path / "idx"))
    loaded = load_index(str(tmp_path / "idx"))
    assert loaded.config == idx.config
    for qtext in sample_queries(docs, 8, seed=9):
        assert retrieve(loaded, qtext, 10) == retrieve(idx, qtext, 10)


def test_save_load_round_trip_after_incremental_add(tmp_path):
    docs, idx = small_index(seed=10)
    extra = [Document("extra_" + str(i), t.text) for i, t in enumerate(topic_corpus(2, 5, seed=11))]
    add_documents(idx, extra)
    save_index(idx, str(tmp_path / "idx"))
    loaded = load_index(str(tmp_path / "idx"))
    assert loaded.tree.cid_by_doc == idx.tree.cid_by_doc
    for qtext in sample_queries(docs, 5, seed=12):
        assert retrieve(loaded, qtext, 10) == retrieve(idx, qtext, 10)


def test_saved_adapter_round_trips(tmp_path):
    docs, idx = small_index(seed=13)
    rng = np.random.default_rng(0)
    w = np.eye(idx.config.dim, dtype=np.float32)
    w[0, 1] = 0.25
    idx.adapter = LinearAdapter(weight=w)
    save_index(idx, str(tmp_path / "idx"))
    loaded = load_index(str(tmp_path / "idx"))
    assert loaded.adapter is not None
    assert loaded.adapter.weight.tobytes() == w.tobytes()
    qtext = sample_queries(docs, 1, seed=14)[0]
    assert retrieve(loaded, qtext, 5) == retrieve(idx, qtext, 5)


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"beta": 1.0, "mystery": 3}')
    with pytest.raises(ParseError):
        load_config(str(path))


def test_embeddings_are_row_views_of_one_matrix_and_adds_leave_no_copy(tmp_path):
    docs, idx = small_index(seed=15)
    save_index(idx, str(tmp_path / "idx"))
    loaded = load_index(str(tmp_path / "idx"))
    for index in (idx, loaded):
        assert isinstance(index.embeddings, DocumentMatrix)
        assert index.embeddings.matrix.dtype == np.float32
        assert index.embeddings.ids == list(index.corpus)
        for doc_id in list(index.corpus)[:5]:
            assert np.shares_memory(index.embeddings[doc_id], index.embeddings.matrix)
    old = weakref.ref(loaded.embeddings.matrix)
    extra = [Document("new_" + d.doc_id, d.text) for d in topic_corpus(2, 5, seed=16)]
    add_documents(loaded, extra)
    gc.collect()
    assert old() is None
    assert loaded.embeddings.matrix.shape == (len(docs) + len(extra), loaded.config.dim)
    for leaf in loaded.tree.leaves.values():
        assert [loaded.embeddings.ids[r] for r in leaf.rows] == leaf.members


def test_rank_within_cluster_on_the_document_matrix_equals_intra_score():
    docs, idx = small_index(seed=17)
    q = query_vector(idx, docs[0].text)
    for cid, leaf in idx.tree.leaves.items():
        ranked = rank_within_cluster(q, idx.tree, cid, len(leaf.members), idx.embeddings)
        oracle = sorted((intra_score(q, idx.embeddings[m], m) for m in leaf.members),
                        key=lambda s: (-s.s_intra, s.doc_id))
        assert ranked == oracle
        top = rank_within_cluster(q, idx.tree, cid, 2, idx.embeddings)
        assert top == oracle[:2]


def test_failed_add_leaves_the_index_unchanged():
    docs, idx = small_index(seed=18)
    cids = dict(idx.tree.cid_by_doc)
    members = {cid: list(leaf.members) for cid, leaf in idx.tree.leaves.items()}
    with pytest.raises(EmptyText):
        add_documents(idx, [Document("ok1", "alpha beta"), Document("bad", "   ")])
    assert "ok1" not in idx.corpus and "ok1" not in idx.embeddings
    assert idx.tree.cid_by_doc == cids
    assert {cid: leaf.members for cid, leaf in idx.tree.leaves.items()} == members


def test_load_index_rejects_tree_members_outside_the_corpus(tmp_path):
    docs, idx = small_index(seed=19)
    path = tmp_path / "idx"
    save_index(idx, str(path))
    manifest = json.loads((path / "tree.json").read_text())
    node = manifest["root"]
    while node["children"]:
        node = node["children"][0]
    node["members"].append("ghost")
    (path / "tree.json").write_text(json.dumps(manifest))
    with pytest.raises(ParseError):
        load_index(str(path))


def test_load_index_rejects_a_config_dim_that_disagrees_with_the_embeddings(tmp_path):
    docs, idx = small_index(seed=20)
    path = tmp_path / "idx"
    save_index(idx, str(path))
    config = json.loads((path / "config.json").read_text())
    config["dim"] = 128
    (path / "config.json").write_text(json.dumps(config))
    with pytest.raises(ParseError, match="manifest.json"):
        load_index(str(path))


def test_load_index_rejects_a_tree_of_another_dim(tmp_path):
    docs = topic_corpus(5, 40, seed=21)
    save_index(build_index(docs, small_config(seed=21)), str(tmp_path / "a"))
    save_index(build_index(docs, small_config(seed=21, dim=32)), str(tmp_path / "b"))
    for name in ("tree.json", "centroids.bin"):
        (tmp_path / "a" / name).write_bytes((tmp_path / "b" / name).read_bytes())
    with pytest.raises(ParseError, match="tree.json"):
        load_index(str(tmp_path / "a"))


def test_load_index_rejects_a_tree_without_leaves_naming_tree_json(tmp_path):
    docs, idx = small_index(seed=23)
    path = tmp_path / "idx"
    save_index(idx, str(path))
    manifest = json.loads((path / "tree.json").read_text())
    manifest["root"]["children"] = []
    (path / "tree.json").write_text(json.dumps(manifest))
    # Keep only the root's centroid, so the blob agrees with the manifest.
    blob = (path / "centroids.bin").read_bytes()
    (path / "centroids.bin").write_bytes(blob[: 4 * idx.config.dim])
    with pytest.raises(ParseError, match="tree.json: .*no leaves"):
        load_index(str(path))


def test_index_whose_config_holds_retired_span_keys_loads_with_the_same_results(tmp_path):
    docs, idx = small_index(seed=22)
    path = tmp_path / "idx"
    save_index(idx, str(path))
    config = json.loads((path / "config.json").read_text())
    config.update(n_spans=5, span_len=40)
    (path / "config.json").write_text(json.dumps(config))
    loaded = load_index(str(path))
    assert loaded.config == idx.config
    for qtext in sample_queries(docs, 5, seed=23):
        assert retrieve(loaded, qtext, 10) == retrieve(idx, qtext, 10)
