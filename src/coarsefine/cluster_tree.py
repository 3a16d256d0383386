"""Hierarchical cluster-identifier trees.

Documents are partitioned by recursive seeded k-means. Every leaf is labelled
by the 1-based child digits along its root path plus a terminal 0, and all
documents in a leaf share that digit sequence as their cluster identifier
(CID). A child is subdivided further only while it holds at least c members,
where c adapts to the corpus size: c = ceil(corpus_size / expected_clusters),
floored at 2. A child that k-means failed to shrink (all points in one
cluster, e.g. k == 1 or duplicate points) becomes a leaf regardless, so the
recursion always terminates.

In memory, the centroids of every node are the rows of one float32 matrix,
laid out by one depth-first walk with children in label order (labels are
1..n): the root is row 0, and when the walk reaches a node it gives that
node's children the next free rows. So each node's children are a contiguous
block of rows, and each node's `centroid` is a row view of that matrix. Next
to the matrix, per row, the tree keeps the row of the node's first child, its
child count, its preorder rank (the order of the walk, which sorts nodes like
their digit paths, across depths too) and, for a leaf, its CID. The row is
the only node index: a digit path is followed down from row 0, digit d of the
node at row r leading to row first_child[r] + d - 1, so scoring and placement
read no node objects. The same walk derives the leaf index in preorder,
for built and loaded trees alike: `leaves`, `cid_by_doc`, and
`build_members` (the construction-time membership that tree.json records);
a document in two leaves, or a tree without leaves, is rejected. Each tree,
built or loaded, then builds the prefix trie of its leaves once (`trie`);
documents placed later only join existing leaves, so the trie never changes.
Each leaf keeps, next to its `members`, an int array of the members' rows in
the document matrix the tree was built from (or, for a loaded index,
attached to).

save_tree writes tree.json with one json.dumps call (the C encoder, the same
bytes as the streaming json.dump) and centroids.bin as the centroid matrix
gathered into preorder in one step, the root first, not one bytes copy per
node. Neither records documents placed after the build: save_placements
writes their leaves to placements.bin in the document matrix's row order,
and load_placements gives a loaded tree's leaves their rows and places those
documents again, in that order, from that file or, without it, by descent.

Once built, a tree is immutable as far as this module is concerned and safe
for concurrent readers, except that place_documents (the single writer)
appends documents placed after the build to leaf member lists.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import read_array, read_json_object, require_finite
from .embed import DocumentMatrix
from .errors import EmptyCorpus, MissingCid, ParseError
from .kmeans import derive_seed, kmeans
from .trie import TERMINAL, Cid, PrefixTrie, build_trie

# The rows of a node that holds no documents (yet): one shared read-only array
# instead of an allocation per node. Rows only ever grow by concatenation.
_NO_ROWS = np.empty(0, dtype=np.intp)
_NO_ROWS.flags.writeable = False


@dataclass
class ClusterNode:
    """One node of the identifier tree. The root carries label None."""

    label: int | None
    centroid: np.ndarray
    children: list["ClusterNode"] = field(default_factory=list)
    members: list[str] = field(default_factory=list)
    rows: np.ndarray = field(default_factory=lambda: _NO_ROWS)


@dataclass
class ClusterTree:
    root: ClusterNode
    k: int
    c: int
    seed: int
    dim: int
    leaves: dict[Cid, ClusterNode] = field(init=False, repr=False)
    cid_by_doc: dict[str, Cid] = field(init=False, repr=False)
    build_members: dict[Cid, tuple[str, ...]] = field(init=False, repr=False)
    centroid_rows: np.ndarray = field(init=False, repr=False)
    first_child: np.ndarray = field(init=False, repr=False)
    child_count: np.ndarray = field(init=False, repr=False)
    preorder: np.ndarray = field(init=False, repr=False)
    leaf_cid: list[Cid | None] = field(init=False, repr=False)
    trie: PrefixTrie = field(init=False, repr=False)

    def __post_init__(self):
        """Lay the nodes out in one depth-first walk, derive the leaf index and
        build the trie of the leaves; ValueError for bad labels, a repeated
        document or a tree without leaves."""
        if not self.root.children:
            raise ValueError("the root has no children, so the tree has no leaves")
        rows, paths = [self.root], [()]  # by row: the root is row 0
        visited, first = [], []  # rows in preorder, and the row of each one's first child
        self.leaves, self.cid_by_doc = {}, {}
        stack = [0]
        while stack:
            row = stack.pop()
            node, path = rows[row], paths[row]
            visited.append(row)
            first.append(len(rows))  # its children take the next free rows
            if node.children:
                labels = [child.label for child in node.children]
                if labels != list(range(1, len(labels) + 1)):
                    raise ValueError(f"children of {path} must be labelled 1..n, got {labels}")
                stack.extend(range(len(rows) + len(labels) - 1, len(rows) - 1, -1))
                rows += node.children
                paths += [path + (label,) for label in labels]
                continue
            cid = path + (TERMINAL,)
            self.leaves[cid] = node
            for doc_id in node.members:
                if doc_id in self.cid_by_doc:
                    raise ValueError(
                        f"document {doc_id!r} is in leaves {self.cid_by_doc[doc_id]} and {cid}")
                self.cid_by_doc[doc_id] = cid
        self.centroid_rows = np.array([node.centroid for node in rows], dtype=np.float32)
        self.first_child = np.empty(len(rows), dtype=np.intp)
        self.first_child[visited] = first
        self.child_count = np.array([len(node.children) for node in rows], dtype=np.intp)
        self.preorder = np.empty(len(rows), dtype=np.intp)
        self.preorder[visited] = np.arange(len(rows))
        for row, node in enumerate(rows):
            node.centroid = self.centroid_rows[row]
        self.leaf_cid = [None if node.children else path + (TERMINAL,)
                         for node, path in zip(rows, paths)]
        self.build_members = {cid: tuple(leaf.members) for cid, leaf in self.leaves.items()}
        self.trie = build_trie(self.leaves.keys())

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)


def row_dots(matrix: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """float64 inner product of every row of `matrix` with `vec`.

    Bit-identical to float(vec64 @ row64) taken one row at a time: the stacked
    (n, 1, d) @ (d, 1) matmul sends each row through the same BLAS dot as a
    1-D product, whereas a gemv `matrix @ vec` may round differently in the
    last ulp and so would change scores, rankings and saved outputs.
    """
    rows = np.ascontiguousarray(matrix, dtype=np.float64)
    col = np.ascontiguousarray(vec, dtype=np.float64)[:, None]
    return np.matmul(rows[:, None, :], col)[:, 0, 0]


def compute_c(corpus_size: int, expected_clusters: int) -> int:
    """Recursion threshold adapted to corpus size, never below 2."""
    if corpus_size < 1:
        raise ValueError("corpus_size must be >= 1")
    if expected_clusters < 1:
        raise ValueError("expected_clusters must be >= 1")
    return max(2, -(-corpus_size // expected_clusters))


def _split(
    node: ClusterNode,
    X: np.ndarray,
    indices: np.ndarray,
    ids: list[str],
    path: Cid,
    k: int,
    c: int,
    seed: int,
) -> None:
    labels, centroids = kmeans(X[indices], k, derive_seed(seed, *path))
    for j in range(len(centroids)):
        label = j + 1
        member_idx = indices[labels == j]
        child = ClusterNode(label=label, centroid=centroids[j])
        node.children.append(child)
        child_path = path + (label,)
        if len(member_idx) >= c and len(member_idx) < len(indices):
            _split(child, X, member_idx, ids, child_path, k, c, seed)
        else:
            child.members = [ids[i] for i in member_idx]
            child.rows = member_idx


def build_cluster_tree(
    embeddings: Mapping[str, np.ndarray], k: int, expected_clusters: int, seed: int
) -> ClusterTree:
    """Recursively cluster document embeddings into an identifier tree.

    The mapping's iteration order fixes the document order (and the leaves'
    `rows`), and all k-means sub-seeds are derived from (seed, digit path), so
    the same inputs always produce the same tree. Raises EmptyCorpus when the
    mapping is empty.
    """
    ids = list(embeddings)
    if not ids:
        raise EmptyCorpus("cannot build a cluster tree from zero documents")
    if k < 1:
        raise ValueError("k must be >= 1")
    X = np.stack([np.asarray(embeddings[i], dtype=np.float32) for i in ids])
    if X.ndim != 2:
        raise ValueError("embeddings must be 1-D vectors of a common dimension")
    c = compute_c(len(ids), expected_clusters)
    root = ClusterNode(label=None, centroid=X.astype(np.float64).mean(axis=0).astype(np.float32))
    _split(root, X, np.arange(len(ids)), ids, (), k, c, seed)
    return ClusterTree(root=root, k=k, c=c, seed=seed, dim=int(X.shape[1]))


def assign_new_document(tree: ClusterTree, embedding: np.ndarray) -> Cid:
    """CID for a new document: descend by highest inner product per level.

    Ties prefer the smaller child label (argmax returns the first maximum).
    Read-only: the tree is not modified.
    """
    row = 0
    while count := tree.child_count[row]:
        start = tree.first_child[row]
        row = start + int(np.argmax(row_dots(tree.centroid_rows[start : start + count],
                                             embedding)))
    return tree.leaf_cid[row]


def place_documents(tree: ClusterTree, documents: DocumentMatrix, ids: Sequence[str],
                    cids: Sequence[Cid] | None = None) -> None:
    """Append each document `ids[i]`, with its row in `documents`, to leaf
    `cids[i]`, or without `cids` to the leaf that greedy descent picks for it.

    The one step that places documents after the build: new ones, and loaded
    ones with or without their saved placements (load_placements).
    """
    rows = [documents.row[doc_id] for doc_id in ids]
    if cids is None:
        cids = [assign_new_document(tree, documents.matrix[row]) for row in rows]
    added: dict[Cid, list[int]] = {}
    for doc_id, cid, row in zip(ids, cids, rows):
        tree.leaves[cid].members.append(doc_id)
        tree.cid_by_doc[doc_id] = cid
        added.setdefault(cid, []).append(row)
    for cid, new_rows in added.items():
        leaf = tree.leaves[cid]
        leaf.rows = np.concatenate([leaf.rows, np.asarray(new_rows, dtype=np.intp)])


def prefix_overlap_pair(s1: Cid, s2: Cid) -> float:
    """Length of the longest common prefix divided by len(s1)."""
    if not s1:
        raise ValueError("s1 must be non-empty")
    n = 0
    for a, b in zip(s1, s2):
        if a != b:
            break
        n += 1
    return n / len(s1)


def mean_prefix_overlap(
    qrels: Mapping[str, Iterable[str]], cids: Mapping[str, Cid]
) -> float:
    """Mean over queries of the mean pairwise prefix overlap of relevant CIDs.

    For each query, every ordered pair of its relevant documents (self-pairs
    included) contributes prefix_overlap_pair; the per-query mean divides by
    the squared count. Raises MissingCid when a relevant document has no CID.
    """
    if not qrels:
        raise ValueError("qrels must contain at least one query")
    total = 0.0
    for qid, doc_ids in qrels.items():
        seqs: list[Cid] = []
        for doc_id in doc_ids:
            if doc_id not in cids:
                raise MissingCid(f"document {doc_id!r} (query {qid!r}) has no CID")
            seqs.append(cids[doc_id])
        if not seqs:
            raise ValueError(f"query {qid!r} has no relevant documents")
        pair_sum = 0.0
        for s1 in seqs:
            for s2 in seqs:
                pair_sum += prefix_overlap_pair(s1, s2)
        total += pair_sum / (len(seqs) ** 2)
    return total / len(qrels)


def _node_manifest(tree: ClusterTree, node: ClusterNode, path: Cid) -> dict:
    if not node.children:  # a leaf, never the root; json writes the member tuple as an array
        return {"label": node.label, "members": tree.build_members[path + (TERMINAL,)],
                "children": []}
    return {
        "label": node.label,
        "members": [],
        "children": [_node_manifest(tree, child, path + (child.label,))
                     for child in node.children],
    }


def save_tree(tree: ClusterTree, json_path: str, bin_path: str) -> None:
    """Write the tree manifest (JSON) and centroid blob (f32, preorder).

    Leaf member lists are recorded as they were at construction time, so
    documents ingested after the build do not alter these files. The blob is
    the centroid matrix's rows in order of their preorder rank, the root first.
    """
    manifest = {
        "k": tree.k,
        "c": tree.c,
        "seed": tree.seed,
        "dim": tree.dim,
        "root": _node_manifest(tree, tree.root, ()),
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, separators=(",", ":")))
        fh.write("\n")
    with open(bin_path, "wb") as fh:
        fh.write(np.ascontiguousarray(tree.centroid_rows[np.argsort(tree.preorder)], dtype="<f4"))


def _node_error(parent: Cid | None, json_path: str, problem: str) -> ParseError:
    where = "the root" if parent is None else f"a child of node {parent}"
    return ParseError(f"{json_path}: {where} {problem}")


def _check_node(obj, parent: Cid | None, json_path: str) -> None:
    """Raise ParseError unless `obj` is a well-formed tree.json node (parent None: the root).

    `type(x) is int` rather than isinstance keeps JSON booleans out.
    """
    if type(obj) is not dict:
        raise _node_error(parent, json_path, "is not an object")
    for key in ("label", "children", "members"):
        if key not in obj:
            raise _node_error(parent, json_path, f"is missing {key!r}")
    label = obj["label"]
    if parent is None and label is not None:
        raise _node_error(parent, json_path, f"has label {label!r}, expected null")
    if parent is not None and not (type(label) is int and label >= 1):
        raise _node_error(parent, json_path, f"has label {label!r}, expected a positive integer")
    if type(obj["children"]) is not list:
        raise _node_error(parent, json_path, "has children that are not a list")
    members = obj["members"]
    if type(members) is not list or (members and not all(type(m) is str for m in members)):
        raise _node_error(parent, json_path, "has members that are not a list of strings")
    if members and (parent is None or obj["children"]):  # the root is never a leaf
        raise _node_error(parent, json_path, "lists members, but only a leaf may")


def _rebuild(obj: dict, path: Cid, rows: Iterator[np.ndarray], json_path: str,
             bin_path: str) -> ClusterNode:
    """The node of checked tree.json object `obj` at `path` and its subtree, taking
    their centroids from `rows` in preorder.

    A module-level function, not a closure over the blob: a closure that calls
    itself is a reference cycle, which keeps the blob alive after load_tree
    returns, until the garbage collector finds the cycle.
    """
    centroid = next(rows, None)
    if centroid is None:
        raise ParseError(f"{bin_path}: blob has fewer centroids than the manifest")
    children = []
    for child_obj in obj["children"]:
        _check_node(child_obj, path, json_path)
        children.append(_rebuild(child_obj, path + (child_obj["label"],), rows, json_path,
                                 bin_path))
    return ClusterNode(obj["label"], centroid, children, obj["members"])


def load_tree(json_path: str, bin_path: str) -> ClusterTree:
    manifest = read_json_object(json_path)
    for key in ("k", "c", "dim"):
        value = manifest.get(key)
        if type(value) is not int or value < 1:
            raise ParseError(f"{json_path}: {key} must be a positive integer, got {value!r}")
    if type(manifest.get("seed")) is not int:
        raise ParseError(f"{json_path}: seed must be an integer, got {manifest.get('seed')!r}")
    dim = manifest["dim"]
    centroids = require_finite(bin_path, read_array(bin_path, "<f4", (-1, dim)))
    rows = iter(centroids)  # in preorder, the order _rebuild takes them in
    _check_node(manifest.get("root"), None, json_path)
    root = _rebuild(manifest["root"], (), rows, json_path, bin_path)
    if next(rows, None) is not None:
        raise ParseError(f"{bin_path}: blob has more centroids than the manifest")
    try:
        return ClusterTree(root=root, k=manifest["k"], c=manifest["c"], seed=manifest["seed"],
                           dim=dim)
    except ValueError as exc:
        raise ParseError(f"{json_path}: {exc}")


def save_placements(tree: ClusterTree, path: str) -> None:
    """Write the leaf of every document placed after the build, in the order
    it was placed (its row order in the document matrix), as the little-endian
    int32 position of that leaf in `tree.leaves` (preorder); nothing when none
    was placed.

    cid_by_doc lists the build members first and then the placed documents.
    """
    position = {cid: i for i, cid in enumerate(tree.leaves)}
    built = sum(map(len, tree.build_members.values()))
    placed = itertools.islice(tree.cid_by_doc.values(), built, None)
    with open(path, "wb") as fh:
        fh.write(np.array([position[cid] for cid in placed], dtype="<i4"))


def load_placements(tree: ClusterTree, documents: DocumentMatrix, path: str) -> None:
    """Give a loaded tree's documents their rows in `documents` and their leaves.

    Build members keep the leaves tree.json gives them. The other documents,
    in row order, go to the leaves that save_placements wrote to `path`, or,
    when there is no such file (an index saved before it existed), to the
    leaves that descent picks. Every build member must be in `documents`. A
    file of the wrong size or naming a leaf outside the tree is a ParseError
    naming it.
    """
    leaves = list(tree.leaves.values())
    rows = np.array([documents.row[doc_id] for leaf in leaves for doc_id in leaf.members],
                    dtype=np.intp)
    end = 0
    for leaf in leaves:
        start, end = end, end + len(leaf.members)
        leaf.rows = rows[start:end]
    added = [doc_id for doc_id in documents.ids if doc_id not in tree.cid_by_doc]
    cids = None
    if os.path.exists(path):
        positions = read_array(path, "<i4", (len(added),))
        if added and not (positions.min() >= 0 and positions.max() < tree.leaf_count):
            raise ParseError(f"{path}: a placement lies outside the {tree.leaf_count} leaves")
        leaf_cids = list(tree.leaves)
        cids = [leaf_cids[p] for p in positions.tolist()]
    place_documents(tree, documents, added, cids)
