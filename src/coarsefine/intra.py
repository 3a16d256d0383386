"""Fine matching: dense scoring inside a cluster, plus adapter training.

The within-cluster relevance of a document is sigmoid(<q, d>). Training uses
a contrastive loss whose denominator weights same-cluster ("hard") negatives
by a factor gamma:

    loss = -log( e^{s+} / (e^{s+} + gamma * sum_a e^{s_a} + sum_r e^{s_r}) )

where s+ is the positive similarity, s_a are similarities to same-cluster
negatives, and s_r to in-batch negatives from other clusters. Including the
positive term in the denominator keeps the loss non-negative, and it is zero
exactly when both negative sets are empty. Gradients are returned for the
query and for every document vector involved.

A LinearAdapter is a square matrix applied to the query side only; document
embeddings stay frozen. Training is plain mini-batch gradient descent and is
deterministic under its seed.

The gradient of one pair with respect to W is the outer product of the query
gradient and the raw query vector q0. A hashed query has at most 2n - 1
nonzero buckets, so training adds each product only where q0 is nonzero. The
result is bit for bit the dense sum: the batch gradient starts at +0.0, a
round-to-nearest sum that starts at +0.0 never becomes -0.0, and adding
+-0.0 to any other value leaves it unchanged. A skipped product could be
non-finite only for a non-finite query gradient. That gradient sums document
vectors with weights of total magnitude at most 2, so for documents in
float32 range it is finite whenever the loss is, and a non-finite loss
raises DivergedLoss before the update. W q0 itself stays one dense product,
because dropping its zero terms would reorder its sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cluster_tree import ClusterTree, row_dots
from .corpus import TrainingPair
from .errors import DimMismatch, DivergedLoss, UnknownCid, UnknownDoc
from .kmeans import derive_seed


# How far below the m-th largest screened sigmoid a member may screen and still
# get an exact _sigmoid. The screen 1 / (1 + np.exp(-sim)) lies in [0, 1];
# np.exp came within 1 ulp of math.exp on 600k inputs, with and without numpy's
# AVX-512 dispatch, and the add and divide round once each, so the screen is
# within a few ulps of 1, under 1e-15, of _sigmoid(sim). That is more than
# 1,000 times below the margin. See rank_within_cluster for why a member that
# screens below the bar minus the margin cannot be in the top m.
SIGMOID_SCREEN_MARGIN = 1e-12


def _sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


@dataclass(frozen=True)
class IntraScore:
    doc_id: str
    sim: float
    s_intra: float


def intra_score(q: np.ndarray, d: np.ndarray, doc_id: str = "") -> IntraScore:
    """Inner product and its sigmoid for one query/document pair."""
    q = np.asarray(q)
    d = np.asarray(d)
    if q.shape != d.shape:
        raise DimMismatch(f"query dim {q.shape} != document dim {d.shape}")
    sim = float(q.astype(np.float64) @ d.astype(np.float64))
    return IntraScore(doc_id=doc_id, sim=sim, s_intra=_sigmoid(sim))


def rank_within_cluster(
    q: np.ndarray,
    tree: ClusterTree,
    cid: Sequence[int],
    m: int,
) -> list[IntraScore]:
    """Top-min(m, cluster size) members of a leaf by s_intra, ties by doc id.

    The leaf's vectors are gathered from the tree's document matrix by its
    slice of `tree.member_rows` in one indexing step, and all similarities
    come from one stacked matmul (row_dots), equal bit for bit to intra_score
    on each member; a one-member leaf takes the same path with a one-row
    gather. The query is checked against the matrix's dimension first.

    s_intra is the per-element _sigmoid, but only for the members that can be
    in the top m. When the leaf holds more than m members, they are screened
    with one vectorised 1 / (1 + np.exp(-sims)), and a member that screens
    below bar - SIGMOID_SCREEN_MARGIN, where bar is the m-th largest screened
    value, is dropped. At least m members screen at or above bar, so whenever
    the screen's error is below half the margin, a dropped member's exact
    s_intra is strictly below those of m kept members: it can neither make
    the top m nor tie with a member that does.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    position = tree.leaf_position.get(tuple(cid))
    if position is None:
        raise UnknownCid(f"{tuple(cid)} is not a leaf CID of the tree")
    rows = tree.leaf_rows(position)
    if not len(rows):
        return []
    tree.require_dim(q, "query")
    sims = row_dots(tree.documents.matrix.take(rows, axis=0), q)
    if len(rows) > m:
        with np.errstate(over="ignore"):  # exp(-sim) overflows to inf, screening 0
            screen = 1.0 / (1.0 + np.exp(-sims))
        bar = np.partition(screen, len(screen) - m)[len(screen) - m]
        candidates = np.flatnonzero(screen >= bar - SIGMOID_SCREEN_MARGIN)
        rows, sims = rows[candidates], sims[candidates]
    # doc ids are unique, so the sim never decides, and negating is exact both ways
    ids = tree.documents.ids
    top = sorted((-_sigmoid(sim), ids[row], sim) for row, sim in zip(rows.tolist(), sims.tolist()))
    return [IntraScore(doc_id, sim, -neg_intra) for neg_intra, doc_id, sim in top[:m]]


def score_one_member_leaves(q: np.ndarray, tree: ClusterTree,
                            positions: np.ndarray) -> list[float]:
    """s_intra of the one member of each one-member leaf at `positions`, in order.

    A one-member leaf needs no ranking: its member is its top 1 for any m >= 1,
    with the s_intra that rank_within_cluster gives it. All the members' rows
    are gathered with one take and scored by one row_dots call, which gives
    each row the bits of its own 1-D float64 product whatever other rows share
    the call, so every member gets the sim and exact _sigmoid that
    rank_within_cluster would. The query is checked against the matrix's
    dimension first.
    """
    tree.require_dim(q, "query")
    rows = tree.member_rows[tree.leaf_start[positions]]
    sims = row_dots(tree.documents.matrix.take(rows, axis=0), q)
    return [_sigmoid(sim) for sim in sims.tolist()]


@dataclass(frozen=True)
class NegativeSet:
    intra: list[str]
    inter: list[str]


def sample_negatives(
    pair: TrainingPair,
    tree: ClusterTree,
    batch: Sequence[TrainingPair],
    n_a: int,
    seed: int,
    relevant: Iterable[str] | None = None,
) -> NegativeSet:
    """Draw negatives for one training pair.

    Same-cluster negatives: up to n_a members of the positive document's
    leaf, sampled uniformly without replacement (seeded), never including a
    document relevant to the query. The excluded members are masked out of
    the leaf's rows, which keeps the rest in member order; when more than n_a
    are left, one rng.choice over their count picks n_a of them, and the
    picked rows are mapped to ids through tree.documents.ids. Cross-cluster
    negatives: the positives of the other pairs in the batch, deduplicated,
    under the same exclusion.
    """
    if n_a < 0:
        raise ValueError("n_a must be >= 0")
    position = tree.leaf_of(pair.positive_doc_id)
    if position < 0:
        raise UnknownDoc(f"positive document {pair.positive_doc_id!r} has no CID")
    exclusion = {pair.positive_doc_id}
    if relevant is not None:
        exclusion.update(relevant)
    rows = tree.leaf_rows(position)
    for doc_id in exclusion:
        if tree.leaf_of(doc_id) == position:
            rows = rows[rows != tree.documents.row[doc_id]]
    if len(rows) > n_a:
        rows = rows[np.random.default_rng(seed).choice(len(rows), size=n_a, replace=False)]
    intra = [tree.documents.ids[row] for row in rows.tolist()]
    positives = (other.positive_doc_id for other in batch)  # pair's own is in exclusion
    inter = list(dict.fromkeys(doc_id for doc_id in positives if doc_id not in exclusion))
    return NegativeSet(intra=intra, inter=inter)


@dataclass(frozen=True)
class IntraLossResult:
    loss: float
    grad_query: np.ndarray
    grad_positive: np.ndarray
    grad_intra: np.ndarray
    grad_inter: np.ndarray


def _as_matrix(vectors, dim: int) -> np.ndarray:
    mat = np.asarray(vectors, dtype=np.float64)
    if mat.size == 0:
        return np.zeros((0, dim), dtype=np.float64)
    if mat.ndim == 1:
        mat = mat[None, :]
    if mat.shape[1] != dim:
        raise DimMismatch(f"negative dim {mat.shape[1]} != query dim {dim}")
    return mat


def _contrastive(query, positive, intra_negatives, inter_negatives, gamma: float):
    """The loss, its query gradient, the query as float64 and the softmax
    weights (w_pos, w_a, w_r) that intra_loss turns into document gradients."""
    if gamma <= 0.0:
        raise ValueError("gamma must be > 0")
    q = np.asarray(query, dtype=np.float64)
    pos = np.asarray(positive, dtype=np.float64)
    if q.shape != pos.shape or q.ndim != 1:
        raise DimMismatch(f"query shape {q.shape} != positive shape {pos.shape}")
    dim = q.shape[0]
    na = _as_matrix(intra_negatives, dim)
    nr = _as_matrix(inter_negatives, dim)

    s_pos = float(q @ pos)
    s_a = na @ q
    s_r = nr @ q
    shift = max(s_pos, float(s_a.max()) if len(s_a) else -np.inf,
                float(s_r.max()) if len(s_r) else -np.inf)
    e_pos = math.exp(s_pos - shift)
    e_a = np.exp(s_a - shift)
    e_r = np.exp(s_r - shift)
    z = e_pos + gamma * float(e_a.sum()) + float(e_r.sum())
    loss = (shift + math.log(z)) - s_pos

    w_pos = e_pos / z
    w_a = gamma * e_a / z
    w_r = e_r / z
    grad_query = (w_pos - 1.0) * pos
    if len(na):
        grad_query = grad_query + w_a @ na
    if len(nr):
        grad_query = grad_query + w_r @ nr
    return float(loss), grad_query, q, w_pos, w_a, w_r


def intra_loss(
    query: np.ndarray,
    positive: np.ndarray,
    intra_negatives,
    inter_negatives,
    gamma: float,
) -> IntraLossResult:
    """Cluster-adaptive contrastive loss and its analytic gradients.

    Computed with a max-shifted log-sum-exp, so similarities far from zero do
    not overflow. grad_intra and grad_inter have one row per negative.
    """
    loss, grad_query, q, w_pos, w_a, w_r = _contrastive(
        query, positive, intra_negatives, inter_negatives, gamma)
    return IntraLossResult(
        loss=loss,
        grad_query=grad_query,
        grad_positive=(w_pos - 1.0) * q,
        grad_intra=w_a[:, None] * q[None, :],
        grad_inter=w_r[:, None] * q[None, :],
    )


@dataclass(frozen=True)
class LinearAdapter:
    """Square query-side transform; documents are never touched.

    The float64 copy of `weight` that every query multiplies by is cast once,
    at construction.
    """

    weight: np.ndarray
    weight64: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "weight64", self.weight.astype(np.float64))

    def apply(self, embedding: np.ndarray) -> np.ndarray:
        emb = np.asarray(embedding, dtype=np.float64)
        if emb.shape != (self.weight.shape[0],):
            raise DimMismatch(f"adapter dim {self.weight.shape[0]} != vector {emb.shape}")
        return (self.weight64 @ emb).astype(np.float32)

    @classmethod
    def identity(cls, dim: int) -> "LinearAdapter":
        return cls(weight=np.eye(dim, dtype=np.float32))


def train_adapter(
    pairs: Sequence[TrainingPair],
    tree: ClusterTree,
    query_embeddings: Mapping[str, np.ndarray],
    gamma: float = 2.0,
    n_a: int = 4,
    epochs: int = 5,
    learning_rate: float = 0.05,
    seed: int = 0,
    batch_size: int = 16,
) -> tuple[LinearAdapter, list[float]]:
    """Fit a query-side linear adapter by mini-batch gradient descent.

    Each query vector q is replaced by W q inside intra_loss; W starts as the
    identity and follows the mean batch gradient. Document vectors are the
    rows of the tree's document matrix. Returns the adapter and the mean loss
    per epoch. Raises DivergedLoss if any loss is non-finite, and, before any
    training, UnknownDoc for the first positive in pair order that has no
    leaf and DimMismatch for a query embedding that is not `tree.dim` wide.
    learning_rate == 0 or epochs == 0 leaves W at the identity.
    """
    if not pairs:
        raise ValueError("pairs must be non-empty")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if not (math.isfinite(learning_rate) and learning_rate >= 0.0):
        raise ValueError(f"learning_rate must be finite and >= 0, got {learning_rate}")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    positives: dict[str, set[str]] = {}
    for pair in pairs:
        doc_id = pair.positive_doc_id
        if tree.leaf_of(doc_id) < 0:
            raise UnknownDoc(f"positive document {doc_id!r} is not indexed")
        positives.setdefault(pair.query_id, set()).add(doc_id)
    for query_id, vec in query_embeddings.items():
        tree.require_dim(vec, f"the embedding of query {query_id!r}")
    documents = tree.documents
    weight = np.eye(tree.dim, dtype=np.float64)
    rng = np.random.default_rng(derive_seed(seed, "adapter"))
    epoch_losses: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(len(pairs))
        epoch_loss = 0.0
        for start in range(0, len(pairs), batch_size):
            batch_idx = order[start : start + batch_size]
            batch = [pairs[int(i)] for i in batch_idx]
            grad_wt = np.zeros_like(weight)  # the batch gradient, transposed
            for i, pair in zip(batch_idx, batch):
                q0 = np.asarray(query_embeddings[pair.query_id], dtype=np.float64)
                negatives = sample_negatives(
                    pair, tree, batch, n_a, seed=derive_seed(seed, "neg", epoch, int(i)),
                    relevant=positives[pair.query_id],
                )
                loss, grad_query, *_ = _contrastive(
                    weight @ q0,
                    documents[pair.positive_doc_id],
                    [documents[d] for d in negatives.intra],
                    [documents[d] for d in negatives.inter],
                    gamma,
                )
                if not math.isfinite(loss):
                    raise DivergedLoss(f"loss became {loss} in epoch {epoch}")
                epoch_loss += loss
                nz = np.flatnonzero(q0)
                grad_wt[nz] += np.outer(q0[nz], grad_query)
            weight -= learning_rate * (grad_wt.T / len(batch))
            if not np.isfinite(weight).all():
                raise DivergedLoss(f"adapter weights became non-finite in epoch {epoch}")
        epoch_losses.append(epoch_loss / len(pairs))
    with np.errstate(over="ignore"):
        final = weight.astype(np.float32)
    if not np.isfinite(final).all():
        raise DivergedLoss("adapter weights overflow float32")
    return LinearAdapter(weight=final), epoch_losses
