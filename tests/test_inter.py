import math

import numpy as np
import pytest

from coarsefine import inter
from coarsefine.embed import QueryRepresentation
from coarsefine.errors import BeamTooSmall, InvalidPrefix, UnknownCid
from coarsefine.inter import CentroidScorer, decode_clusters, inter_loss
from coarsefine.trie import build_trie
from helpers import (
    SeededScorer,
    UniformScorer,
    axis_vec,
    binary_depth2_tree,
    blob_embeddings,
    brute_force_hypotheses,
    internal_nodes,
    random_cids,
    rank_by_penalized,
    reference_step_probs,
)
from coarsefine.cluster_tree import ClusterNode, ClusterTree, build_cluster_tree

QUERY = QueryRepresentation(pooled=np.zeros(8, dtype=np.float32))


def balanced_cids(branches, depth):
    cids = [()]
    for _ in range(depth):
        cids = [c + (j,) for c in cids for j in range(1, branches + 1)]
    return [c + (0,) for c in cids]


def test_single_cid_is_forced_with_probability_one():
    trie = build_trie([(3, 1, 0)])
    hyps = decode_clusters(QUERY, SeededScorer(0), trie, beam_size=4, length_penalty=0.8, k=1)
    assert len(hyps) == 1
    assert hyps[0].cid == (3, 1, 0)
    assert hyps[0].s_inter == pytest.approx(1.0, abs=1e-12)


def test_uniform_scorer_on_balanced_trie_gives_equal_products():
    trie = build_trie(balanced_cids(3, 2))
    hyps = decode_clusters(QUERY, UniformScorer(), trie, beam_size=16, length_penalty=0.8, k=9)
    assert sorted(h.cid for h in hyps) == sorted(balanced_cids(3, 2))
    for h in hyps:
        assert h.s_inter == pytest.approx(1 / 9, abs=1e-12)


def test_beam_one_returns_the_greedy_path():
    for seed in range(10):
        trie = build_trie(random_cids(seed))
        scorer = SeededScorer(seed + 100)
        hyps = decode_clusters(QUERY, scorer, trie, beam_size=1, length_penalty=0.8, k=1)
        prefix = ()
        while not trie.is_terminal(prefix):
            probs = scorer.score_next(QUERY, prefix, trie.valid_next(prefix))
            best = max(sorted(probs), key=lambda d: probs[d])
            prefix = prefix + (best,)
        assert hyps[0].cid == prefix


@pytest.mark.parametrize("seed", range(6))
def test_full_beam_matches_brute_force_products(seed):
    trie = build_trie(random_cids(seed, max_leaves=40))
    scorer = SeededScorer(seed)
    hyps = decode_clusters(QUERY, scorer, trie, beam_size=64, length_penalty=0.8, k=len(trie))
    truth = dict(brute_force_hypotheses(scorer, trie, QUERY))
    assert len(hyps) == len(truth)
    for h in hyps:
        assert h.s_inter == pytest.approx(math.exp(truth[h.cid]), abs=1e-9)
        assert h.log_prob == pytest.approx(truth[h.cid], abs=1e-9)
        assert math.log(h.s_inter) == pytest.approx(h.log_prob, abs=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_ranking_uses_length_penalty_with_lexicographic_ties(seed):
    trie = build_trie(random_cids(seed, max_leaves=40))
    scorer = SeededScorer(seed)
    k = min(10, len(trie))
    hyps = decode_clusters(QUERY, scorer, trie, beam_size=64, length_penalty=0.8, k=k)
    truth = brute_force_hypotheses(scorer, trie, QUERY)
    expected = [cid for cid, _ in rank_by_penalized(truth, 0.8, k)]
    assert [h.cid for h in hyps] == expected


@pytest.mark.parametrize("seed", [0, 7, 21])
def test_monotone_beams_never_worsen_the_top_hypothesis(seed):
    trie = build_trie(random_cids(seed, max_leaves=32))
    scorer = SeededScorer(seed + 1)
    alpha = 0.8
    best = -math.inf
    for beam in range(1, len(trie) + 1):
        hyps = decode_clusters(QUERY, scorer, trie, beam_size=beam, length_penalty=alpha, k=1)
        penalized = hyps[0].log_prob / len(hyps[0].cid) ** alpha
        assert penalized >= best - 1e-12
        best = max(best, penalized)


def test_all_decoded_cids_are_stored_cids():
    for seed in range(5):
        trie = build_trie(random_cids(seed))
        hyps = decode_clusters(QUERY, SeededScorer(seed), trie, beam_size=8,
                               length_penalty=0.8, k=8)
        for h in hyps:
            assert trie.contains(h.cid)
            assert 0.0 < h.s_inter <= 1.0


def test_beam_smaller_than_k_is_rejected():
    trie = build_trie([(1, 0), (2, 0)])
    with pytest.raises(BeamTooSmall):
        decode_clusters(QUERY, UniformScorer(), trie, beam_size=1, length_penalty=0.8, k=2)
    with pytest.raises(ValueError):
        decode_clusters(QUERY, UniformScorer(), trie, beam_size=1, length_penalty=0.8, k=0)


def test_inter_loss_fixtures():
    trie = build_trie(balanced_cids(2, 2))
    # forced path scorer: all mass on the gold digit
    class Forced:
        def score_next(self, query, prefix, valid):
            gold = (1, 2, 0)
            want = gold[len(prefix)]
            return {d: (1.0 if d == want else 0.0) for d in valid}

    assert inter_loss(QUERY, (1, 2, 0), Forced(), trie) == pytest.approx(0.0, abs=1e-12)
    assert inter_loss(QUERY, (1, 2, 0), UniformScorer(), trie) == pytest.approx(
        2 * math.log(2), abs=1e-12
    )
    with pytest.raises(UnknownCid):
        inter_loss(QUERY, (9, 9, 0), UniformScorer(), trie)


def centroid_setup():
    emb = blob_embeddings((30, 30, 30), dim=16, seed=2)
    tree = build_cluster_tree(emb, k=4, expected_clusters=9, seed=2)
    trie = build_trie(tree.leaves.keys())
    return emb, tree, trie


def test_centroid_scorer_normalizes_over_exactly_the_valid_set():
    emb, tree, trie = centroid_setup()
    scorer = CentroidScorer(tree, temperature=0.1)
    q = QueryRepresentation(pooled=next(iter(emb.values())))
    for cid in trie.cids():
        for i in range(len(cid)):
            prefix = cid[:i]
            valid = trie.valid_next(prefix)
            probs = scorer.score_next(q, prefix, valid)
            assert set(probs) == set(valid)
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(p > 0 for p in probs.values())


def test_centroid_scorer_terminal_only_prefix_gets_probability_one():
    tree = binary_depth2_tree()
    scorer = CentroidScorer(tree, temperature=0.1)
    q = QueryRepresentation(pooled=np.zeros(8, dtype=np.float32))
    probs = scorer.score_next(q, (1, 1), frozenset({0}))
    assert probs == {0: 1.0}


def test_centroid_scorer_rejects_unknown_prefix():
    tree = binary_depth2_tree()
    scorer = CentroidScorer(tree, temperature=0.1)
    q = QueryRepresentation(pooled=np.zeros(8, dtype=np.float32))
    with pytest.raises(InvalidPrefix):
        scorer.score_next(q, (7,), frozenset({1}))


def test_lower_temperature_sharpens_the_step_distribution():
    emb, tree, trie = centroid_setup()
    q = QueryRepresentation(pooled=next(iter(emb.values())))
    valid = trie.valid_next(())
    cold = CentroidScorer(tree, temperature=0.05).score_next(q, (), valid)
    warm = CentroidScorer(tree, temperature=5.0).score_next(q, (), valid)
    assert max(cold.values()) > max(warm.values())


def test_centroid_scorer_equals_the_per_child_reference_exactly():
    emb = blob_embeddings((40, 40, 40, 40), dim=32, seed=4)
    tree = build_cluster_tree(emb, k=3, expected_clusters=40, seed=4)
    internal = dict(internal_nodes(tree.root))
    assert max(len(p) for p in internal) >= 2
    scorer = CentroidScorer(tree, temperature=0.1)
    rng = np.random.default_rng(4)
    queries = [rng.standard_normal(32).astype(np.float32) for _ in range(5)]
    queries.append(next(iter(emb.values())))
    checked_subsets = 0
    for pooled in queries:
        q = QueryRepresentation(pooled=pooled)
        for prefix in internal:
            labels = [child.label for child in internal[prefix].children]
            subsets = [labels] + [labels[i::2] for i in range(2) if len(labels) > 2]
            subsets += [[d] for d in labels if len(labels) > 1]
            for digits in subsets:
                valid = frozenset(digits)
                got = scorer.score_next(q, prefix, valid)
                assert got == reference_step_probs(tree, pooled, prefix, valid, 0.1)
                checked_subsets += len(digits) < len(labels)
    assert checked_subsets > 0


def test_centroid_scorer_rejects_digits_that_are_not_children():
    tree = binary_depth2_tree()
    scorer = CentroidScorer(tree, temperature=0.1)
    q = QueryRepresentation(pooled=np.ones(8, dtype=np.float32))
    with pytest.raises(InvalidPrefix):
        scorer.score_next(q, (1,), frozenset({1, 3}))
    with pytest.raises(InvalidPrefix):
        scorer.score_next(q, (1, 1), frozenset({1}))


@pytest.mark.parametrize("prefix", [(0,), (3,), (1, 3), (1, 1, 1), (2, 1, 0), (-1,)])
def test_centroid_scorer_rejects_a_prefix_that_names_no_node(prefix):
    scorer = CentroidScorer(binary_depth2_tree(), temperature=0.1)
    q = QueryRepresentation(pooled=np.ones(8, dtype=np.float32))
    with pytest.raises(InvalidPrefix, match="does not name a tree node"):
        scorer.score_next(q, prefix, frozenset({1}))


def test_centroid_scorer_takes_a_prefix_of_numpy_ints_like_one_of_python_ints():
    emb = blob_embeddings((40, 40, 40, 40), dim=32, seed=4)
    tree = build_cluster_tree(emb, k=3, expected_clusters=40, seed=4)
    scorer = CentroidScorer(tree, temperature=0.1)
    q = QueryRepresentation(pooled=next(iter(emb.values())))
    for prefix, node in internal_nodes(tree.root):
        valid = frozenset(range(1, len(node.children) + 1))
        numpy_prefix = tuple(np.array(prefix, dtype=np.int64))
        assert scorer.score_next(q, numpy_prefix, valid) == scorer.score_next(q, prefix, valid)


class Forwarding:
    """A plain step scorer that forwards to a CentroidScorer, so decoding takes the generic path."""

    def __init__(self, scorer):
        self.scorer = scorer

    def score_next(self, query, prefix, valid):
        return self.scorer.score_next(query, prefix, valid)


def counted(scorer):
    """Count the CentroidScorer's score_next calls on this instance."""
    calls = []
    original = scorer.score_next

    def score_next(*args):
        calls.append(args[1])
        return original(*args)

    scorer.score_next = score_next
    return calls


def tie_heavy_tree(seed):
    """A seeded tree over blobs with duplicated points and leaves at mixed depths."""
    emb = blob_embeddings((24, 18, 30, 6), dim=8, seed=seed)
    ids = list(emb)
    for i in range(0, len(ids) - 1, 4):
        emb[ids[i + 1]] = emb[ids[i]]
    tree = build_cluster_tree(emb, k=3 + seed % 3, expected_clusters=12 + 5 * seed, seed=seed)
    return emb, tree


@pytest.mark.parametrize("seed", range(4))
def test_frontier_decoder_equals_the_generic_path_exactly(seed):
    emb, tree = tie_heavy_tree(seed)
    assert len({len(cid) for cid in tree.leaves}) > 1
    trie = tree.trie
    covering = build_trie(tree.leaves.keys())  # the same CIDs, but not the tree's own trie
    rng = np.random.default_rng(seed)
    pooled = [np.zeros(8), emb[next(iter(emb))].astype(np.float64), rng.standard_normal(8)]
    underflowed = 0
    for temperature in (0.1, 1e-3):
        scorer = CentroidScorer(tree, temperature=temperature)
        for vec in pooled:
            q = QueryRepresentation(pooled=vec)
            for alpha in (0, 0.8, 1.5):
                for beam, k in ((1, 1), (4, 3), (len(trie), len(trie))):
                    calls = counted(scorer)
                    got = decode_clusters(q, scorer, trie, beam, alpha, k)
                    assert calls == [()]  # only the root step goes through score_next
                    assert got == decode_clusters(q, scorer, covering, beam, alpha, k)
                    assert len(calls) > 2  # the covering trie took the generic path
                    del scorer.score_next
                    assert got == decode_clusters(q, Forwarding(scorer), trie, beam, alpha, k)
                    underflowed += beam == len(trie) and len(got) < len(trie)
    assert underflowed > 0  # temperature 1e-3 drove some probabilities to 0


def test_centroid_scorer_on_a_strict_subset_trie_takes_the_generic_path():
    emb, tree = tie_heavy_tree(1)
    subset = sorted(tree.leaves)[::2]
    trie = build_trie(subset)
    scorer = CentroidScorer(tree, temperature=0.1)
    q = QueryRepresentation(pooled=emb[next(iter(emb))])
    calls = counted(scorer)
    got = decode_clusters(q, scorer, trie, len(trie), 0.8, len(trie))
    assert len(calls) > 1
    del scorer.score_next
    assert {h.cid for h in got} <= set(subset)
    assert got == decode_clusters(q, Forwarding(scorer), trie, len(trie), 0.8, len(trie))


def test_ties_across_depths_break_toward_the_lexicographically_smaller_cid():
    # Root children: 1 is internal with a single leaf child, 2 is a leaf. Under a
    # zero query both top-level digits get probability 1/2 and the only child of
    # (1,) gets 1, so (1, 1, 0) and (2, 0) tie at length penalty 0. Breadth-first order would
    # put (2, 0) first; lexicographic (preorder) order puts (1, 1, 0) first.
    deep = ClusterNode(label=1, centroid=axis_vec(4, 0), members=["a"])
    inner = ClusterNode(label=1, centroid=axis_vec(4, 0), children=[deep])
    shallow = ClusterNode(label=2, centroid=axis_vec(4, 1), members=["b"])
    root = ClusterNode(label=None, centroid=axis_vec(4, 2), children=[inner, shallow])
    leaves = {(1, 1, 0): deep, (2, 0): shallow}
    tree = ClusterTree(root=root, k=2, c=2, seed=0, dim=4)
    assert tree.cid_by_doc == {"a": (1, 1, 0), "b": (2, 0)} and tree.leaves == leaves
    trie = tree.trie
    scorer = CentroidScorer(tree, temperature=0.1)
    q = QueryRepresentation(pooled=np.zeros(4))
    for k in (1, 2):
        got = decode_clusters(q, scorer, trie, 2, 0.0, k)
        assert [h.cid for h in got] == [(1, 1, 0), (2, 0)][:k]
        assert got == decode_clusters(q, Forwarding(scorer), trie, 2, 0.0, k)


class CountingMath:
    """The math module as inter sees it, counting calls to log."""

    def __init__(self):
        self.logs = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def log(self, x):
        self.logs += 1
        return math.log(x)


def screened_tree(seed):
    """A seeded tree at least three levels deep whose beam steps offer more
    children than narrow beams keep."""
    emb = blob_embeddings((60, 45, 30, 20, 5), dim=8, seed=seed)
    tree = build_cluster_tree(emb, k=3 + seed % 2, expected_clusters=40, seed=seed)
    assert max(len(cid) for cid in tree.leaves) >= 4
    return emb, tree


def screened_queries(emb, seed):
    rng = np.random.default_rng(seed)
    for vec in (emb[next(iter(emb))].astype(np.float64), rng.standard_normal(8)):
        for scale in (1.0, 60.0):
            yield QueryRepresentation(pooled=scale * vec)


@pytest.mark.parametrize("seed", range(3))
def test_screened_beam_steps_equal_the_generic_path_exactly(seed, monkeypatch):
    emb, tree = screened_tree(seed)
    covering = build_trie(tree.leaves.keys())  # the same CIDs, but not the tree's own trie
    counting = CountingMath()
    monkeypatch.setattr(inter, "math", counting)
    cases = screened = 0
    for temperature in (0.1, 0.002):
        scorer = CentroidScorer(tree, temperature=temperature)
        for q in screened_queries(emb, seed):
            for alpha in (0.0, 0.8):
                for beam, k in ((1, 1), (3, 2), (6, 4), (10, 10)):
                    counting.logs = 0
                    got = decode_clusters(q, scorer, tree.trie, beam, alpha, k)
                    logs = counting.logs
                    with monkeypatch.context() as unscreened:
                        unscreened.setattr(inter, "LOG_SCREEN_MARGIN", math.inf)
                        counting.logs = 0
                        assert decode_clusters(q, scorer, tree.trie, beam, alpha, k) == got
                        screened += logs < counting.logs
                    expected = decode_clusters(q, scorer, covering, beam, alpha, k)
                    assert [(h.cid, h.log_prob) for h in got] == \
                        [(h.cid, h.log_prob) for h in expected]
                    assert got == expected
                    cases += 1
    assert screened > cases // 2  # most cases dropped children before taking their logs


class SkewedLog:
    """numpy as inter sees it, with np.log off by 1e-11: well inside the screen's
    margin argument, and far more than an ulp of any log-probability here."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def log(x):
        return np.log(x) - 1e-11


def test_kept_children_take_math_log_not_the_screened_value(monkeypatch):
    # Every kept child's screened value now differs from its exact one, so a
    # decoder that kept the screened values would not match the generic path.
    emb, tree = screened_tree(0)
    covering = build_trie(tree.leaves.keys())
    monkeypatch.setattr(inter, "np", SkewedLog())
    for temperature in (0.1, 0.002):
        scorer = CentroidScorer(tree, temperature=temperature)
        for q in screened_queries(emb, 0):
            for beam, k in ((1, 1), (3, 2), (6, 4)):
                got = decode_clusters(q, scorer, tree.trie, beam, 0.8, k)
                assert got == decode_clusters(q, scorer, covering, beam, 0.8, k)
