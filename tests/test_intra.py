import dataclasses
import math

import numpy as np
import pytest

from coarsefine import RetrievalConfig, add_documents, build_index, intra
from coarsefine.cluster_tree import place_documents, row_dots
from coarsefine.corpus import Document, TrainingPair
from coarsefine.embed import DocumentMatrix, hash_embed
from coarsefine.errors import DimMismatch, DivergedLoss, UnknownCid, UnknownDoc
from coarsefine.intra import (
    IntraScore,
    LinearAdapter,
    intra_loss,
    intra_score,
    rank_within_cluster,
    sample_negatives,
    train_adapter,
)
from helpers import (
    axis_vec,
    binary_depth2_tree,
    blob_embeddings,
    reference_intra_loss,
    reference_sample_negatives,
    reference_train_adapter,
    topic_corpus,
)
from coarsefine.cluster_tree import build_cluster_tree


def test_sigmoid_fixtures_are_exact():
    a = axis_vec(8, 0)
    b = axis_vec(8, 1)
    assert intra_score(a, b).s_intra == pytest.approx(0.5, abs=1e-12)
    scaled = np.zeros(8)
    scaled[0] = math.log(3)
    score = intra_score(a.astype(np.float64), scaled)
    assert score.s_intra == pytest.approx(0.75, abs=1e-12)
    assert score.sim == pytest.approx(math.log(3), abs=1e-12)


def test_intra_score_rejects_dim_mismatch():
    with pytest.raises(DimMismatch):
        intra_score(np.zeros(4), np.zeros(5))


def test_s_intra_strictly_increasing_in_sim():
    sims = np.linspace(-30, 30, 41)
    vals = [intra_score(np.array([s]), np.array([1.0])).s_intra for s in sims]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v < 1.0 for v in vals)


def two_doc_cluster():
    tree = binary_depth2_tree()
    emb = {
        "d11a": axis_vec(8, 0),
        "d11b": axis_vec(8, 1),
        "d12a": axis_vec(8, 2),
        "d21a": axis_vec(8, 3),
        "d22a": axis_vec(8, 4),
    }
    return tree, emb


def test_rank_within_cluster_orders_by_similarity():
    tree, emb = two_doc_cluster()
    q = axis_vec(8, 0)  # aligned with d11a, orthogonal to d11b
    ranked = rank_within_cluster(q, tree, (1, 1, 0), 2, emb)
    assert [r.doc_id for r in ranked] == ["d11a", "d11b"]
    assert ranked[0].s_intra > ranked[1].s_intra


def test_rank_within_cluster_caps_at_cluster_size():
    tree, emb = two_doc_cluster()
    ranked = rank_within_cluster(axis_vec(8, 0), tree, (1, 1, 0), 10, emb)
    assert len(ranked) == 2


def test_rank_within_cluster_matches_exhaustive_sort():
    emb = blob_embeddings((25, 25), dim=12, seed=5)
    tree = build_cluster_tree(emb, k=3, expected_clusters=4, seed=5)
    rng = np.random.default_rng(0)
    q = rng.standard_normal(12).astype(np.float32)
    for cid, node in tree.leaves.items():
        ranked = rank_within_cluster(q, tree, cid, len(node.members), emb)
        oracle = sorted(
            (intra_score(q, emb[m], m) for m in node.members),
            key=lambda s: (-s.s_intra, s.doc_id),
        )
        assert [r.doc_id for r in ranked] == [o.doc_id for o in oracle]
        assert [r.s_intra for r in ranked] == [o.s_intra for o in oracle]


def test_rank_within_cluster_reads_members_by_id_when_the_leaf_rows_do_not_cover_them():
    ids, axes = ["d11a", "d11b", "d12a", "d21a", "d22a", "new"], [0, 1, 2, 3, 4, 7]
    by_id = {doc_id: axis_vec(8, axis) for doc_id, axis in zip(ids, axes)}
    documents = DocumentMatrix(ids, np.stack(list(by_id.values())))
    tree = binary_depth2_tree()  # built by hand, so its leaves have no rows
    q = axis_vec(8, 7)  # orthogonal to every document but "new"
    unplaced = rank_within_cluster(q, tree, (1, 1, 0), 1, documents)
    assert unplaced == rank_within_cluster(q, tree, (1, 1, 0), 1, by_id)
    assert [scored.doc_id for scored in unplaced] == ["d11a"]
    place_documents(tree, documents, ["new"], [(1, 1, 0)])  # one row for three members
    placed = rank_within_cluster(q, tree, (1, 1, 0), 1, documents)
    assert placed == rank_within_cluster(q, tree, (1, 1, 0), 1, by_id)
    assert placed == [IntraScore("new", sim=1.0, s_intra=1 / (1 + math.exp(-1.0)))]


def test_rank_within_cluster_validates_arguments():
    tree, emb = two_doc_cluster()
    with pytest.raises(UnknownCid):
        rank_within_cluster(axis_vec(8, 0), tree, (9, 0), 1, emb)
    with pytest.raises(ValueError):
        rank_within_cluster(axis_vec(8, 0), tree, (1, 1, 0), 0, emb)


def test_sample_negatives_singleton_cluster_has_no_intra():
    tree, emb = two_doc_cluster()
    pair = TrainingPair("q", "text", "d12a")
    out = sample_negatives(pair, tree, [pair], n_a=4, seed=0)
    assert out.intra == []
    assert out.inter == []


def test_sample_negatives_excludes_positive_and_relevant():
    emb = blob_embeddings((12,), dim=8, seed=1)
    tree = build_cluster_tree(emb, k=1, expected_clusters=1, seed=1)
    (cid,) = tree.leaves
    members = tree.leaves[cid].members
    pair = TrainingPair("q", "t", members[0])
    relevant = {members[0], members[1]}
    out = sample_negatives(pair, tree, [pair], n_a=4, seed=3, relevant=relevant)
    assert len(out.intra) == 4
    assert len(set(out.intra)) == 4
    assert not set(out.intra) & relevant


def test_sample_negatives_inter_uses_other_pairs_positives():
    tree, emb = two_doc_cluster()
    p1 = TrainingPair("q1", "t", "d11a")
    p2 = TrainingPair("q2", "t", "d21a")
    p3 = TrainingPair("q3", "t", "d22a")
    out = sample_negatives(p1, tree, [p1, p2, p3], n_a=2, seed=0)
    assert out.inter == ["d21a", "d22a"]
    assert out.intra == ["d11b"]
    # the pair's own relevant docs never appear as inter negatives
    out2 = sample_negatives(p1, tree, [p1, p2, p3], n_a=2, seed=0, relevant={"d21a"})
    assert out2.inter == ["d22a"]


def test_sample_negatives_is_deterministic_under_seed():
    emb = blob_embeddings((30,), dim=8, seed=2)
    tree = build_cluster_tree(emb, k=1, expected_clusters=1, seed=2)
    members = next(iter(tree.leaves.values())).members
    pair = TrainingPair("q", "t", members[0])
    a = sample_negatives(pair, tree, [pair], n_a=5, seed=11)
    b = sample_negatives(pair, tree, [pair], n_a=5, seed=11)
    c = sample_negatives(pair, tree, [pair], n_a=5, seed=12)
    assert a.intra == b.intra
    assert a.intra != c.intra


def test_intra_loss_no_negatives_is_exactly_zero():
    q = np.array([0.3, -0.2, 0.9])
    pos = np.array([0.1, 0.4, -0.5])
    out = intra_loss(q, pos, [], [], gamma=2.0)
    assert out.loss == 0.0
    assert np.all(out.grad_query == 0.0)
    assert np.all(out.grad_positive == 0.0)


def test_intra_loss_ln4_fixture():
    dim = 6
    q = axis_vec(dim, 0)
    pos, na, nr = axis_vec(dim, 1), axis_vec(dim, 2), axis_vec(dim, 3)
    out = intra_loss(q, pos, [na], [nr], gamma=2.0)
    assert out.loss == pytest.approx(math.log(4), abs=1e-12)


def test_intra_loss_gamma_one_equals_plain_nll():
    rng = np.random.default_rng(4)
    q, pos, a, r = (rng.standard_normal(5) for _ in range(4))
    out = intra_loss(q, pos, [a], [r], gamma=1.0)
    sims = [float(q @ pos), float(q @ a), float(q @ r)]
    z = sum(math.exp(s) for s in sims)
    assert out.loss == pytest.approx(-math.log(math.exp(sims[0]) / z), abs=1e-10)


def test_intra_loss_nonnegative_and_monotone_in_gamma():
    rng = np.random.default_rng(6)
    for _ in range(20):
        q, pos = rng.standard_normal(4), rng.standard_normal(4)
        nas = [rng.standard_normal(4) for _ in range(rng.integers(0, 3))]
        nrs = [rng.standard_normal(4) for _ in range(rng.integers(0, 3))]
        losses = [intra_loss(q, pos, nas, nrs, gamma=g).loss for g in (1.0, 2.0, 5.0)]
        assert losses[0] >= 0.0
        assert losses[0] <= losses[1] <= losses[2]
        if nas:
            assert losses[0] < losses[2]


def test_intra_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    h = 1e-5
    for _ in range(10):
        dim = int(rng.integers(2, 8))
        q, pos = rng.standard_normal(dim), rng.standard_normal(dim)
        nas = [rng.standard_normal(dim) for _ in range(rng.integers(0, 3))]
        nrs = [rng.standard_normal(dim) for _ in range(rng.integers(0, 3))]
        out = intra_loss(q, pos, nas, nrs, gamma=2.0)
        for i in range(dim):
            step = np.zeros(dim)
            step[i] = h
            up = intra_loss(q + step, pos, nas, nrs, 2.0).loss
            dn = intra_loss(q - step, pos, nas, nrs, 2.0).loss
            fd = (up - dn) / (2 * h)
            assert out.grad_query[i] == pytest.approx(fd, abs=1e-6, rel=1e-4)


def test_adapter_identity_and_apply():
    ad = LinearAdapter.identity(4)
    assert np.array_equal(ad.weight, np.eye(4, dtype=np.float32))
    vec = np.array([1.0, -2.0, 0.5, 3.0], dtype=np.float32)
    assert np.array_equal(ad.apply(vec), vec)
    w = np.arange(16, dtype=np.float32).reshape(4, 4)
    got = LinearAdapter(w).apply(vec)
    assert np.allclose(got, (w.astype(np.float64) @ vec.astype(np.float64)).astype(np.float32))


def adapter_fixture():
    """Noisy-query blob fixture trained full-batch with the whole negative pool.

    Full batches and n_a larger than any leaf keep the negative sets
    identical across epochs, so the loss trajectory is plain gradient
    descent (no sampling noise).
    """
    emb = blob_embeddings((20, 20), dim=8, seed=7)
    tree = build_cluster_tree(emb, k=2, expected_clusters=2, seed=7)
    rng = np.random.default_rng(3)
    pairs, queries = [], {}
    for i, doc_id in enumerate(sorted(emb)):
        if i % 2:
            continue
        qid = f"q{i}"
        pairs.append(TrainingPair(qid, "t", doc_id))
        noisy = emb[doc_id] + 0.3 * rng.standard_normal(8).astype(np.float32)
        queries[qid] = (noisy / np.linalg.norm(noisy)).astype(np.float32)
    kwargs = dict(n_a=32, batch_size=len(pairs))
    return pairs, tree, emb, queries, kwargs


def test_train_adapter_zero_rate_keeps_identity():
    pairs, tree, emb, queries, kw = adapter_fixture()
    adapter, losses = train_adapter(pairs, tree, emb, queries, epochs=3,
                                    learning_rate=0.0, **kw)
    assert np.array_equal(adapter.weight, np.eye(8, dtype=np.float32))
    assert len(losses) == 3


def test_train_adapter_single_pair_no_negatives_keeps_identity():
    tree = binary_depth2_tree()
    emb = {d: axis_vec(8, i) for i, d in enumerate(["d11a", "d11b", "d12a", "d21a", "d22a"])}
    pair = TrainingPair("q", "t", "d12a")  # singleton leaf, batch of one
    adapter, losses = train_adapter([pair], tree, emb, {"q": axis_vec(8, 5)},
                                    epochs=2, learning_rate=0.5)
    assert np.array_equal(adapter.weight, np.eye(8, dtype=np.float32))
    assert losses == [0.0, 0.0]


def test_train_adapter_zero_epochs_returns_identity():
    tree = binary_depth2_tree()
    emb = {d: axis_vec(8, i) for i, d in enumerate(["d11a", "d11b", "d12a", "d21a", "d22a"])}
    pair = TrainingPair("q", "t", "d11a")
    adapter, losses = train_adapter([pair], tree, emb, {"q": axis_vec(8, 5)}, epochs=0)
    assert np.array_equal(adapter.weight, np.eye(8, dtype=np.float32))
    assert losses == []


def test_train_adapter_reduces_loss_on_blob_fixture():
    pairs, tree, emb, queries, kw = adapter_fixture()
    adapter, losses = train_adapter(pairs, tree, emb, queries, epochs=20,
                                    learning_rate=0.5, **kw)
    assert losses[-1] < losses[0]
    assert not np.array_equal(adapter.weight, np.eye(8, dtype=np.float32))


def test_train_adapter_losses_non_increasing_early():
    pairs, tree, emb, queries, kw = adapter_fixture()
    _, losses = train_adapter(pairs, tree, emb, queries, epochs=3,
                              learning_rate=0.05, **kw)
    assert losses[0] >= losses[1] >= losses[2]


def test_train_adapter_is_deterministic():
    pairs, tree, emb, queries, kw = adapter_fixture()
    a1, l1 = train_adapter(pairs, tree, emb, queries, epochs=4, learning_rate=0.05,
                           seed=9, **kw)
    a2, l2 = train_adapter(pairs, tree, emb, queries, epochs=4, learning_rate=0.05,
                           seed=9, **kw)
    assert a1.weight.tobytes() == a2.weight.tobytes()
    assert l1 == l2


def test_train_adapter_diverges_with_absurd_rate():
    pairs, tree, emb, queries, kw = adapter_fixture()
    with pytest.raises(DivergedLoss):
        train_adapter(pairs, tree, emb, queries, epochs=5, learning_rate=1e40, **kw)


def test_train_adapter_never_draws_a_querys_own_positives_as_negatives(monkeypatch):
    emb = blob_embeddings((12,), dim=8, seed=1)
    tree = build_cluster_tree(emb, k=1, expected_clusters=1, seed=1)
    a, b, c = next(iter(tree.leaves.values())).members[:3]
    pairs = [TrainingPair("q", "t", a), TrainingPair("q", "t", b), TrainingPair("r", "u", c)]
    drawn = []

    def spy(pair, *args, **kwargs):
        negatives = sample_negatives(pair, *args, **kwargs)
        drawn.append((pair.query_id, set(kwargs.get("relevant", ())), negatives))
        return negatives

    monkeypatch.setattr(intra, "sample_negatives", spy)
    train_adapter(pairs, tree, emb, {"q": emb[a], "r": emb[c]}, n_a=32, epochs=2, batch_size=3)
    own = {"q": {a, b}, "r": {c}}
    assert len(drawn) == 6
    for query_id, relevant, negatives in drawn:
        assert relevant == own[query_id]
        assert not own[query_id] & {*negatives.intra, *negatives.inter}
        if query_id == "r":  # another query's positives stay negatives
            assert own["q"] <= {*negatives.intra, *negatives.inter}


def test_adapter_apply_equals_the_uncached_cast_bit_for_bit():
    rng = np.random.default_rng(11)
    w = rng.standard_normal((256, 256)).astype(np.float32)
    adapter = LinearAdapter(w)
    for _ in range(5):
        vec = rng.standard_normal(256).astype(np.float32)
        expected = (w.astype(np.float64) @ vec.astype(np.float64)).astype(np.float32)
        assert adapter.apply(vec).tobytes() == expected.tobytes()


QUERY_KINDS = ["hashed", "dense", "signed-zeros-and-subnormals-f32",
               "signed-zeros-and-subnormals-f64", "one-all-zero"]


def exactness_fixture(query_kind, matrix):
    """Hashed documents at dim 32 in a 3-way tree, 16 pairs over 8 query ids
    (two positives each), plus a repeat of one pair object and an equal copy
    of another."""
    dim = 32
    docs = topic_corpus(3, 12, seed=2)
    emb = {d.doc_id: hash_embed(d.text, dim) for d in docs}
    tree = build_cluster_tree(emb, k=3, expected_clusters=3, seed=2)
    if matrix:
        emb = DocumentMatrix(list(emb), np.stack(list(emb.values())))
    rng = np.random.default_rng(4)
    picks = rng.choice(len(docs), size=16, replace=False)
    pairs = [TrainingPair(f"q{n % 8}", "t", docs[int(i)].doc_id) for n, i in enumerate(picks)]
    pairs += [pairs[0], TrainingPair(*dataclasses.astuple(pairs[1]))]
    text_of = {p.query_id: docs[int(i)].text for p, i in zip(pairs, picks)}
    queries = {}
    for n, (qid, text) in enumerate(sorted(text_of.items())):
        hashed = hash_embed(" ".join(text.split()[:4]), dim)
        if query_kind == "dense":
            queries[qid] = rng.standard_normal(dim)
        elif query_kind.startswith("signed-zeros"):
            vec = hashed.astype(np.float32 if query_kind.endswith("f32") else np.float64)
            zeros = np.flatnonzero(vec == 0.0)
            vec[zeros[::2]] = -0.0
            vec[zeros[1]] = 1e-40 if vec.dtype == np.float32 else 5e-324
            queries[qid] = vec
        elif query_kind == "one-all-zero" and n == 0:
            queries[qid] = np.zeros(dim, dtype=np.float32)
        else:
            queries[qid] = hashed
    return pairs, tree, emb, queries


@pytest.mark.parametrize("matrix", [False, True], ids=["dict", "matrix"])
@pytest.mark.parametrize("batch_size", [1, 3, 16])
@pytest.mark.parametrize("query_kind", QUERY_KINDS)
def test_train_adapter_equals_the_dense_update_bit_for_bit(query_kind, batch_size, matrix):
    pairs, tree, emb, queries = exactness_fixture(query_kind, matrix)
    for learning_rate, epochs in [(0.5, 3), (0.0, 2), (0.5, 0)]:
        kw = dict(n_a=3, epochs=epochs, learning_rate=learning_rate, seed=3,
                  batch_size=batch_size)
        adapter, losses = train_adapter(pairs, tree, emb, queries, **kw)
        expected, expected_losses = reference_train_adapter(pairs, tree, emb, queries, **kw)
        assert adapter.weight.tobytes() == expected.weight.tobytes()
        assert losses == expected_losses
        assert len(losses) == epochs
        assert np.array_equal(adapter.weight, np.eye(32)) == (learning_rate * epochs == 0)


def test_train_adapter_diverges_where_the_dense_update_does():
    pairs, tree, emb, queries, kw = adapter_fixture()
    for batch_size in (kw["batch_size"], 3):
        args = dict(kw, epochs=5, learning_rate=1e40, batch_size=batch_size)
        with pytest.raises(DivergedLoss) as got:
            train_adapter(pairs, tree, emb, queries, **args)
        with pytest.raises(DivergedLoss) as expected:
            reference_train_adapter(pairs, tree, emb, queries, **args)
        assert str(got.value) == str(expected.value)


def test_intra_loss_and_sample_negatives_equal_their_references_bit_for_bit():
    rng = np.random.default_rng(8)
    for n_intra, n_inter in [(0, 0), (1, 0), (0, 2), (4, 15)]:
        q, pos = rng.standard_normal(16), rng.standard_normal(16).astype(np.float32)
        na = list(rng.standard_normal((n_intra, 16)))
        nr = list(rng.standard_normal((n_inter, 16)).astype(np.float32))
        got = intra_loss(q, pos, na, nr, gamma=2.0)
        expected = reference_intra_loss(q, pos, na, nr, gamma=2.0)
        assert got.loss == expected.loss
        for name in ("grad_query", "grad_positive", "grad_intra", "grad_inter"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
            assert getattr(got, name).shape == getattr(expected, name).shape, name
    pairs, tree, _, _ = exactness_fixture("hashed", matrix=False)
    batch = pairs[:5] + pairs[-2:] + [pairs[0]]  # the same object twice, an equal copy
    for pair in batch:
        for relevant in (None, {pairs[3].positive_doc_id}):
            assert sample_negatives(pair, tree, batch, 2, 5, relevant) == \
                reference_sample_negatives(pair, tree, batch, 2, 5, relevant)


def test_train_adapter_rejects_an_unknown_positive_before_training(monkeypatch):
    pairs, tree, emb, queries, kw = adapter_fixture()
    monkeypatch.setattr(intra, "sample_negatives", None)  # training never starts
    pairs[3:3] = [TrainingPair(pairs[0].query_id, "t", d) for d in ("missing-a", "missing-b")]
    with pytest.raises(UnknownDoc, match="'missing-a'"):  # the first in pair order
        train_adapter(pairs, tree, emb, queries, **kw)
    leafless = dict(emb, extra=emb[pairs[0].positive_doc_id])
    with pytest.raises(UnknownDoc, match="'extra'"):
        train_adapter([TrainingPair("q0", "t", "extra")] + pairs, tree, leafless, queries, **kw)
    matrix = DocumentMatrix(list(emb), np.stack(list(emb.values())))
    with pytest.raises(UnknownDoc, match="'missing-a'"):
        train_adapter(pairs, tree, matrix, queries, **kw)


@pytest.mark.parametrize("learning_rate", [math.nan, math.inf, -math.inf, -0.5])
def test_train_adapter_rejects_a_non_finite_or_negative_rate(learning_rate):
    pairs, tree, emb, queries, kw = adapter_fixture()
    with pytest.raises(ValueError, match="learning_rate"):
        train_adapter(pairs, tree, emb, queries, learning_rate=learning_rate, **kw)


def reference_rank(q, tree, cid, m, embeddings):
    """rank_within_cluster without the screen: every member's _sigmoid, one full sort."""
    members = tree.leaves[cid].members
    sims = row_dots(np.array([embeddings[d] for d in members]), q).tolist()
    scored = [IntraScore(d, sim, intra._sigmoid(sim)) for d, sim in zip(members, sims)]
    return sorted(scored, key=lambda s: (-s.s_intra, s.doc_id))[:m]


def grown_indexes():
    """Indexes with leaves of 12-39 members and with one-member leaves, each
    grown by add_documents."""
    for expected_clusters in (3, 12):
        config = RetrievalConfig(dim=32, expected_clusters=expected_clusters, branching=3,
                                 beam_size=10, k_clusters=5, seed=4)
        index = build_index(topic_corpus(4, 30, seed=4), config)
        add_documents(index, [Document(f"late_{i}", doc.text)
                              for i, doc in enumerate(topic_corpus(4, 5, seed=9))])
        yield index


def test_screened_rank_within_cluster_equals_the_unscreened_sort(monkeypatch):
    calls = []
    sigmoid = intra._sigmoid
    monkeypatch.setattr(intra, "_sigmoid", lambda x: calls.append(x) or sigmoid(x))
    rng = np.random.default_rng(3)
    sizes, saturated_ties, screened = set(), 0, 0
    for index in grown_indexes():
        matrix = index.embeddings
        vectors = {doc_id: matrix[doc_id] for doc_id in index.corpus}
        directions = [rng.standard_normal(32), matrix[next(iter(index.corpus))]]
        queries = [scale * np.asarray(v, np.float64) for v in directions for scale in (1, 60, 200)]
        for cid, leaf in index.tree.leaves.items():
            sizes.add(len(leaf.members))
            for q in queries:
                for m in sorted({1, 3, 10, len(leaf.members)}):
                    expected = reference_rank(q, index.tree, cid, m, vectors)
                    for embeddings in (matrix, vectors):
                        calls.clear()
                        assert rank_within_cluster(q, index.tree, cid, m, embeddings) == expected
                        screened += len(calls) < len(leaf.members)
                    saturated_ties += [s.s_intra for s in expected[:2]] == [1.0, 1.0]
    assert 1 in sizes and max(sizes) > 10
    assert saturated_ties > 0 and screened > 0


class SkewedExp:
    """numpy as intra sees it, with np.exp off by a relative 1e-13: well inside
    the screen's margin argument, and more than an ulp of most sigmoids here."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def exp(x):
        return np.exp(x) * (1 + 1e-13)


def test_kept_members_take_the_exact_sigmoid_not_the_screened_value(monkeypatch):
    monkeypatch.setattr(intra, "np", SkewedExp())
    index = next(grown_indexes())
    q = np.random.default_rng(5).standard_normal(32)
    for cid, leaf in index.tree.leaves.items():
        for m in (1, 3, 10):
            expected = reference_rank(q, index.tree, cid, m, index.embeddings)
            assert rank_within_cluster(q, index.tree, cid, m, index.embeddings) == expected


def test_sample_negatives_picks_equal_the_list_based_draw_around_excluded_members():
    emb = blob_embeddings((30, 6), dim=8, seed=4)
    tree = build_cluster_tree(emb, k=2, expected_clusters=1, seed=4)
    members = max(tree.leaves.values(), key=lambda leaf: len(leaf.members)).members
    assert len(members) >= 20
    other_leaf = next(d for d in emb if tree.cid_by_doc[d] != tree.cid_by_doc[members[0]])
    middle = len(members) // 2
    for positive, relevant in [
        (members[0], None),
        (members[-1], {members[0]}),
        (members[middle], {members[0], members[1], members[middle + 1], members[-1]}),
        (members[1], {members[-2], members[-1], other_leaf, "not-indexed"}),
    ]:
        pair = TrainingPair("q", "t", positive)
        n_eligible = len(set(members) - {positive} - (relevant or set()))
        for n_a in (0, 1, 4, n_eligible - 1, n_eligible, n_eligible + 3):
            for seed in range(5):
                got = sample_negatives(pair, tree, [pair], n_a, seed, relevant)
                assert got == reference_sample_negatives(pair, tree, [pair], n_a, seed, relevant)
                assert len(got.intra) == min(n_a, n_eligible)
