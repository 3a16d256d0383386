"""Seeded Lloyd's k-means with k-means++ initialization.

The clustering used to build identifier trees must be reproducible, so this
module avoids library implementations whose tie-breaking and empty-cluster
handling differ across versions. Behaviour pinned down here:

- assignment ties break toward the lowest centroid index,
- clusters that lose all points are dropped (labels stay consecutive),
- at most 50 Lloyd iterations, stopping early once assignments are stable,
- inputs with at most k distinct rows skip iteration entirely: each distinct
  value becomes its own cluster, ordered by first appearance.
"""

from __future__ import annotations

import hashlib

import numpy as np

MAX_ITER = 50


def derive_seed(seed: int, *parts: object) -> int:
    """Stable 64-bit sub-seed from a master seed and a label path."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(seed).encode("utf-8"))
    for part in parts:
        h.update(b"/")
        h.update(str(part).encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


def _distinct_rows(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of C-contiguous `points` in first-appearance order plus each
    row's group index, rows compared by their bytes (0.0 and -0.0 stay apart)."""
    keys = points.view(np.dtype((np.void, points.itemsize * points.shape[1]))).ravel()
    perm = np.argsort(keys, kind="stable")  # equal rows keep their row order
    sorted_keys = keys[perm]
    starts = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    first = perm[starts]  # each group's first row, the groups in key order
    order = np.argsort(first)
    groups = np.empty(len(points), dtype=np.int64)
    groups[perm] = np.argsort(order)[np.cumsum(starts) - 1]
    return points[first[order]], groups


def _nearest(points: np.ndarray, sq_norms: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of each point's nearest center; `sq_norms` is (points * points).sum(axis=1)."""
    d2 = (
        sq_norms[:, None]
        - 2.0 * points @ centers.T
        + (centers * centers).sum(axis=1)[None, :]
    )
    return d2.argmin(axis=1)


def _means(points: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster means; empty clusters dropped and labels renumbered."""
    present = np.unique(labels)
    centers = np.stack([points[labels == g].mean(axis=0) for g in present])
    remap = np.full(int(labels.max()) + 1, -1, dtype=np.int64)
    remap[present] = np.arange(len(present))
    return centers, remap


def _kmeanspp(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[int(rng.integers(len(points)))]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        # More than k distinct rows exist, so some distance is positive.
        probs = d2 / d2.sum()
        centers[j] = points[int(rng.choice(len(points), p=probs))]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def kmeans(points: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Cluster rows of `points` into at most k groups.

    Returns (labels, centroids): labels[i] is the cluster index of row i, and
    centroids holds one float32 row per non-empty cluster, indexed 0..len-1.
    Deterministic for a given (points, k, seed).
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError("kmeans needs a non-empty 2-D array of points")
    if k < 1:
        raise ValueError("k must be >= 1")

    uniques, groups = _distinct_rows(pts)
    if len(uniques) <= k:
        return groups, uniques.astype(np.float32)

    rng = np.random.default_rng(seed)
    centers = _kmeanspp(pts, k, rng)
    sq_norms = (pts * pts).sum(axis=1)  # fixed across Lloyd iterations
    labels = _nearest(pts, sq_norms, centers)
    for _ in range(MAX_ITER):
        centers, remap = _means(pts, labels)
        relabeled = remap[labels]
        new_labels = _nearest(pts, sq_norms, centers)
        if np.array_equal(new_labels, relabeled):
            labels = relabeled
            break
        labels = new_labels
    else:
        centers, remap = _means(pts, labels)
        labels = remap[labels]
    return labels, centers.astype(np.float32)
