"""Coarse matching: trie-constrained beam decoding of cluster identifiers.

A step scorer turns (query, prefix) into a probability distribution over the
digits the trie allows next. Beam decoding multiplies those step
probabilities along root-to-leaf paths; a completed hypothesis keeps the raw
product as its cluster score while ranking applies a length penalty,
log_prob / len**length_penalty, with len counting the terminal digit.

One routine, _step_probs, turns child centroid rows into step
probabilities, for the centroid scorer and the frontier decoder alike. It
takes the rows of consecutive sibling groups from the tree's float32
centroid matrix, scores them by one row_dots call (cast to float64) and
divides by the temperature. It then normalises each run of groups of one
size u, m groups long, as one (m, u) array: max, exp, sum and divide along
axis 1. The callers pick the rows, each in its cheapest way: the scorer
passes a view of its node's block of rows (a take of the same 30 rows made
the call about 4 us slower with cold caches, numpy 2.4 on a 2-vCPU Xeon with
a cache-clearing kernel run before each call), and the decoder one take of
all the children of a step. A row sum of a 2-D array adds in the same order
as the sum of that row on its own, whereas np.add.reduceat over one flat
array of uneven segments does not (with numpy 2.4, 801 of 2,000 random
segments of 1-30 values differed in the last bit), so groups of different
sizes are not mixed, and every group gets the bits it would get alone.
row_dots is a stacked (n, 1, d) @ (d, 1) matmul rather than the gemv `C @ q`:
the stacked form runs each row through the same BLAS dot product as scoring
one centroid at a time, so logits are bit-identical to the per-child loop
whatever other rows share the call, whereas the gemv uses another kernel and
rounds differently in the last ulp for some rows (measured with numpy 2.4
and OpenBLAS 0.3.31 on a 2-vCPU Xeon: 118 of 224,061 logits on the
decode-heavy benchmark corpus, 72 of 6,000 on fine-heavy), which can reorder
results. Per call on that machine, at dim 256, the stacked matmul took 11 us
for 30 rows and 76 us for 430, against 91 us and 1,143 us for a per-row loop.

The centroid scorer follows a prefix down the tree's rows from the root, row
0, and passes the allowed children of the node it reaches as one group (rows
are selected out of the block only when `valid` is a strict subset). When
the scorer is a CentroidScorer and the trie is its tree's own (`tree.trie`,
which stores exactly the tree's leaves), decode_clusters scores a whole beam
step with one _step_probs call over all internal frontier nodes, grouped by
child count, instead of one score_next call per node; its float64 copy is
at most beam_size x branching rows. Any other trie, even one built
separately from the same leaves, takes the generic path. The root step still
goes through score_next: it is one call per query, and the benchmark's
tracer (benchmarks/tracing.py) measures the step scorer by timing that call.
Log-probabilities are per-element math.log, because np.log differs from it
in the last bit on some inputs, but only for the children that can survive
the next beam cut. When a step yields more than beam_size children, they are
screened with one vectorised parent + np.log(p); a child whose screened value
is below bar - LOG_SCREEN_MARGIN, where bar is the beam_size-th largest
screened value, is dropped, and math.log is taken for the rest. The beam is
cut by np.lexsort on (-penalised score, preorder rank) over those exact
values, which orders ties like the lexicographic CID order of the generic
path. Outputs are therefore identical to the generic path's.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol

import numpy as np

from .cluster_tree import Cid, ClusterTree, TERMINAL, row_dots
from .embed import QueryRepresentation
from .errors import BeamTooSmall, InvalidPrefix, UnknownCid
from .trie import PrefixTrie

# How far below the beam_size-th largest screened log-probability a child may
# screen and still get an exact math.log. A log-probability is a sum of one log
# per depth, each of a probability at least the smallest subnormal, so it lies
# in [-745 * depth, 0]. np.log came within 1 ulp of math.log on 600k inputs, with
# and without numpy's AVX-512 dispatch, and the screen adds the same parent
# value, so the screen and the exact value differ by at most one ulp of the log
# plus one ulp of the sum: under 1e-12 for trees up to 10 levels deep and under
# 4e-12 up to 40. A dropped child screens below bar - margin, while at least
# beam_size children screen at or above bar. Whenever the screen's error is
# below margin / 2, the dropped child's exact value is therefore strictly below
# those of beam_size kept children, and so is its penalised score (every child
# of one step is divided by the same positive length**length_penalty, and the
# gap is far above an ulp), so the cut never keeps it and it cannot tie.
LOG_SCREEN_MARGIN = 1e-9


class StepScorer(Protocol):
    """Contract: a positive probability for every digit in `valid`, summing to 1."""

    def score_next(
        self, query: QueryRepresentation, prefix: Cid, valid: frozenset[int]
    ) -> Mapping[int, float]: ...


def _step_probs(centroids: np.ndarray, groups: Iterable[tuple[int, int]], pooled: np.ndarray,
                temperature: float) -> np.ndarray:
    """Softmax of <pooled, centroid> / temperature within each sibling group.

    The rows of `centroids` are child centroids in consecutive sibling
    groups, and `groups` lists them in order as (u, m) runs: m groups of u
    children each. All rows are scored by one row_dots call, and each run is
    normalised as one (m, u) array by max, exp, sum and divide along axis 1,
    so every group gets the bits it would get on its own (see the module
    docstring).
    """
    probs = row_dots(centroids, pooled) / temperature  # the logits, normalised run by run
    start = 0
    for u, m in groups:
        end = start + m * u
        group = probs[start:end].reshape(m, u)
        exps = np.exp(group - group.max(axis=1, keepdims=True))
        probs[start:end] = (exps / exps.sum(axis=1, keepdims=True)).ravel()
        start = end
    return probs


@dataclass
class CentroidScorer:
    """Softmax over inner products between the query and child centroids.

    Logits are <pooled, centroid>/temperature for each child the trie allows,
    all of one step scored by _step_probs with the allowed children as one
    group. At a leaf-complete prefix the terminal digit gets
    probability 1. It holds no state beyond an immutable tree, so instances
    are safe to share across threads.
    """

    tree: ClusterTree
    temperature: float = 0.1

    def score_next(
        self, query: QueryRepresentation, prefix: Cid, valid: frozenset[int]
    ) -> dict[int, float]:
        valid = frozenset(valid)
        if not valid:
            return {}
        if valid == {TERMINAL}:
            return {TERMINAL: 1.0}
        if TERMINAL in valid:
            raise InvalidPrefix(f"{tuple(prefix)}: terminal digit mixed with branch digits")
        tree, row = self.tree, 0
        for digit in prefix:
            if not 1 <= digit <= tree.child_count[row]:
                raise InvalidPrefix(f"{tuple(prefix)} does not name a tree node")
            row = tree.first_child[row] + digit - 1
        digits = sorted(valid)
        start, n_children = tree.first_child[row], tree.child_count[row]
        if digits[0] < 1 or digits[-1] > n_children:
            raise InvalidPrefix(f"digits {digits} are not all children of {tuple(prefix)}")
        centroids = tree.centroid_rows[start : start + n_children]  # a view, not a gather
        if len(digits) < n_children:
            centroids = centroids[[digit - 1 for digit in digits]]
        probs = _step_probs(centroids, [(len(digits), 1)], query.pooled, self.temperature)
        return dict(zip(digits, probs.tolist()))


@dataclass(frozen=True)
class ClusterHypothesis:
    cid: Cid
    log_prob: float
    s_inter: float


def _penalized(log_prob: float | np.ndarray, length: int, length_penalty: float):
    return log_prob / length**length_penalty


def decode_clusters(
    query: QueryRepresentation,
    scorer: StepScorer,
    trie: PrefixTrie,
    beam_size: int,
    length_penalty: float,
    k: int,
) -> list[ClusterHypothesis]:
    """Beam-search the trie for the k highest-scoring complete identifiers.

    Only digits from valid_next() are expanded, so every returned CID exists
    in the trie. Pruning and final ranking both order hypotheses by
    log_prob / len**length_penalty, breaking ties toward the lexicographically
    smaller digit sequence. Returned hypotheses carry the unpenalized
    probability product as s_inter. A CentroidScorer over its own tree's
    trie is decoded frontier-wide (see the module docstring), with the same
    output.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if beam_size < k:
        raise BeamTooSmall(f"beam_size {beam_size} < k {k}")
    if isinstance(scorer, CentroidScorer) and trie is scorer.tree.trie:
        return _decode_tree(query, scorer, beam_size, length_penalty, k)

    def rank(item: tuple[Cid, float]) -> tuple[float, Cid]:
        return -_penalized(item[1], len(item[0]), length_penalty), item[0]

    frontier: list[tuple[Cid, float]] = [((), 0.0)]
    completed: list[tuple[Cid, float]] = []
    while frontier:
        candidates: list[tuple[Cid, float]] = []
        for prefix, log_prob in frontier:
            valid = trie.valid_next(prefix)
            probs = scorer.score_next(query, prefix, valid)
            for digit in sorted(valid):
                p = probs[digit]
                if p <= 0.0:
                    continue
                extended = prefix + (digit,)
                new_lp = log_prob + math.log(p)
                if trie.is_terminal(extended):
                    completed.append((extended, new_lp))
                else:
                    candidates.append((extended, new_lp))
        candidates.sort(key=rank)
        frontier = candidates[:beam_size]

    completed.sort(key=rank)
    return [
        ClusterHypothesis(cid=cid, log_prob=lp, s_inter=math.exp(lp))
        for cid, lp in completed[:k]
    ]


def _decode_tree(
    query: QueryRepresentation,
    scorer: CentroidScorer,
    beam_size: int,
    length_penalty: float,
    k: int,
) -> list[ClusterHypothesis]:
    """decode_clusters over the scorer's tree's own trie, one array step per depth.

    Hypotheses are rows of tree.centroid_rows; every candidate of one step has
    the same length, so the length penalty is one float per step.
    """
    tree = scorer.tree
    root_probs = scorer.score_next(query, (), tree.trie.valid_next(()))  # in digit order
    digits = [d for d, p in root_probs.items() if p > 0.0]
    rows = tree.first_child[0] + np.array(digits, dtype=np.intp) - 1
    lps = np.array([0.0 + math.log(root_probs[d]) for d in digits])
    done_rows, done_lps, done_scores = [], [], []
    length = 1
    while True:
        if len(rows) > beam_size:
            keep = np.lexsort((tree.preorder[rows], -_penalized(lps, length, length_penalty)))
            rows, lps = rows[keep[:beam_size]], lps[keep[:beam_size]]
        length += 1
        counts = tree.child_count[rows]
        leaf = counts == 0
        done_rows.append(rows[leaf])
        done_lps.append(lps[leaf] + 0.0)
        done_scores.append(_penalized(done_lps[-1], length, length_penalty))
        if leaf.all():  # an empty frontier too
            break
        rows, lps, counts = rows[~leaf], lps[~leaf], counts[~leaf]
        by_count = np.argsort(counts, kind="stable")
        rows, lps, counts = rows[by_count], lps[by_count], counts[by_count]
        offsets = np.cumsum(counts) - counts
        children = np.repeat(tree.first_child[rows] - offsets, counts) + np.arange(counts.sum())
        probs = _step_probs(tree.centroid_rows.take(children, axis=0),
                            Counter(counts.tolist()).items(), query.pooled, scorer.temperature)
        kept = probs > 0.0
        rows, probs, lps = children[kept], probs[kept], np.repeat(lps, counts)[kept]
        if len(rows) > beam_size:
            screen = lps + np.log(probs)
            bar = np.partition(screen, len(rows) - beam_size)[len(rows) - beam_size]
            near = screen >= bar - LOG_SCREEN_MARGIN
            rows, probs, lps = rows[near], probs[near], lps[near]
        lps = lps + list(map(math.log, probs.tolist()))

    rows, lps = np.concatenate(done_rows), np.concatenate(done_lps)
    top = np.lexsort((tree.preorder[rows], -np.concatenate(done_scores)))[:k]
    return [
        ClusterHypothesis(cid=tree.leaf_cid[row], log_prob=lp, s_inter=math.exp(lp))
        for row, lp in zip(rows[top].tolist(), lps[top].tolist())
    ]


def inter_loss(
    query: QueryRepresentation, gold: Cid, scorer: StepScorer, trie: PrefixTrie
) -> float:
    """Negative log-likelihood of the gold CID under the step scorer.

    Sums -log p(digit | prefix) over every digit including the terminal 0.
    Raises UnknownCid when the gold identifier is not in the trie.
    """
    gold = tuple(gold)
    if not trie.contains(gold):
        raise UnknownCid(f"gold CID {gold} is not in the trie")
    total = 0.0
    for i, digit in enumerate(gold):
        prefix = gold[:i]
        probs = scorer.score_next(query, prefix, trie.valid_next(prefix))
        total -= math.log(probs[digit])
    return total
