import sys

import numpy as np
import pytest

from coarsefine.kmeans import _distinct_rows, derive_seed, kmeans
from helpers import blob_embeddings, reference_distinct_rows, reference_nearest


def test_derive_seed_is_deterministic_and_order_sensitive():
    assert derive_seed(0, "a", 1) == derive_seed(0, "a", 1)
    assert derive_seed(0, "a", 1) != derive_seed(0, 1, "a")
    assert derive_seed(0, "a") != derive_seed(1, "a")
    assert 0 <= derive_seed(3, "x") < 2**64


def test_single_cluster_returns_mean():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])
    labels, centers = kmeans(pts, k=1, seed=0)
    assert labels.tolist() == [0, 0, 0]
    assert np.allclose(centers[0], pts.mean(axis=0), atol=1e-6)


def test_separated_blobs_are_recovered():
    rng = np.random.default_rng(0)
    a = rng.normal(0.0, 0.05, (30, 3)) + np.array([1.0, 0.0, 0.0])
    b = rng.normal(0.0, 0.05, (25, 3)) + np.array([0.0, 1.0, 0.0])
    pts = np.vstack([a, b])
    labels, centers = kmeans(pts, k=2, seed=4)
    assert len(centers) == 2
    assert len(set(labels[:30])) == 1
    assert len(set(labels[30:])) == 1
    assert labels[0] != labels[-1]


def test_fewer_distinct_rows_than_k_gives_one_cluster_per_row():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    labels, centers = kmeans(pts, k=8, seed=0)
    # distinct rows become clusters in first-appearance order
    assert labels.tolist() == [0, 1, 0, 2]
    assert np.array_equal(centers[0], np.array([1.0, 0.0], dtype=np.float32))
    assert np.array_equal(centers[1], np.array([0.0, 1.0], dtype=np.float32))


def test_labels_are_consecutive_and_all_used():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((60, 4))
    labels, centers = kmeans(pts, k=5, seed=9)
    assert sorted(set(labels.tolist())) == list(range(len(centers)))


def test_kmeans_is_deterministic_under_seed():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((80, 6))
    l1, c1 = kmeans(pts, k=4, seed=11)
    l2, c2 = kmeans(pts, k=4, seed=11)
    assert np.array_equal(l1, l2)
    assert c1.tobytes() == c2.tobytes()


def test_result_is_a_lloyd_fixed_point():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((50, 3))
    labels, centers = kmeans(pts, k=3, seed=7)
    # one more assignment step against the returned centers changes nothing
    d2 = ((pts[:, None, :] - centers[None].astype(np.float64)) ** 2).sum(axis=2)
    assert np.array_equal(d2.argmin(axis=1), labels)


def test_kmeans_rejects_bad_k():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        kmeans(pts, k=0, seed=0)


@pytest.mark.parametrize("seed", range(8))
def test_squared_norms_summed_once_give_the_same_clustering_as_per_iteration(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    inputs = [
        (rng.standard_normal((200, 16)).astype(np.float32), 7),
        (np.stack(list(blob_embeddings((40, 30, 20, 5), 32, seed=seed).values())), 4),
        (np.repeat(rng.standard_normal((12, 8)), 5, axis=0), 9),  # duplicated rows
    ]
    for points, k in inputs:
        kseed = derive_seed(seed, k)
        got = kmeans(points, k, kseed)
        with monkeypatch.context() as patch:
            # coarsefine.kmeans is the function once the package is imported
            patch.setattr(sys.modules["coarsefine.kmeans"], "_nearest",
                          lambda pts, sq_norms, centers: reference_nearest(pts, centers))
            want = kmeans(points, k, kseed)
        assert np.array_equal(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()


def _rows_with_repeats():
    rng = np.random.default_rng(5)
    rows = np.repeat(rng.standard_normal((9, 6)), [1, 3, 2, 5, 1, 1, 4, 2, 3], axis=0)
    return rows[rng.permutation(len(rows))]


@pytest.mark.parametrize("points", [
    pytest.param(_rows_with_repeats(), id="repeats"),
    pytest.param(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0.0, -0.0], [-0.0, 1.0],
                           [0.0, 0.0]]), id="signed-zeros"),
    pytest.param(np.array([[0.5, -2.0, 3.0]]), id="one-row"),
    pytest.param(np.full((7, 4), 0.25), id="all-equal"),
    pytest.param(np.random.default_rng(6).standard_normal((50, 8)), id="all-distinct"),
])
def test_distinct_rows_group_like_a_dict_keyed_by_row_bytes(points):
    uniques, groups = _distinct_rows(points)
    want_uniques, want_groups = reference_distinct_rows(points)
    assert uniques.dtype == want_uniques.dtype and uniques.tobytes() == want_uniques.tobytes()
    assert groups.dtype == want_groups.dtype and groups.tolist() == want_groups.tolist()
