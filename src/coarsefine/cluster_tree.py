"""Hierarchical cluster-identifier trees.

Documents are partitioned by recursive seeded k-means. Every leaf is labelled
by the 1-based child digits along its root path plus a terminal 0, and all
documents in a leaf share that digit sequence as their cluster identifier
(CID). A child is subdivided further only while it holds at least c members,
where c adapts to the corpus size: c = ceil(corpus_size / expected_clusters),
floored at 2. A child that k-means failed to shrink (all points in one
cluster, e.g. k == 1 or duplicate points) becomes a leaf regardless, so the
recursion always terminates.

Every tree, built, loaded or hand-built, is given in tree.json's node form
(nested {"label", "members", "children"} objects) with one float32 matrix of
the node centroids in preorder, centroids.bin's layout. One depth-first walk,
children in label order (labels are 1..n), checks each node by tree.json's
rules and lays the nodes out as rows: the root is row 0, and when the walk
reaches a node it gives that node's children the next free rows, a contiguous
block. Per row, the tree keeps the node's centroid, the row of its first
child, its child count, its preorder rank (the walk's order, which sorts nodes
like their digit paths, across depths too) and, for a leaf, its CID. The row
is the only node index: digit d of the node at row r leads to row
first_child[r] + d - 1, so scoring and placement read no node objects.

The tree owns the document matrix its leaves index (`documents`), whose width
is the tree's `dim`, and keeps its leaves as arrays, not objects. Leaves are numbered by their position in
preorder (`leaf_cids` lists their CIDs in that order, `leaf_position` maps a
CID back to it), and their members are one CSR layout of document rows: `member_rows` holds each
leaf's build rows, then the rows placed in it later in placement order, and
leaf p owns member_rows[leaf_start[p]:leaf_start[p + 1]], of which the first
build_count[p] are the construction-time membership that tree.json records.
`leaf_of_row` gives each document row's leaf position, -1 for a row in no
leaf, and `added_rows` the rows placed after the build, in placement order.
The walk rejects a document in two leaves, a leaf member without a row and a
tree without leaves.

`cids_of` looks the CIDs of given documents up in those arrays, which is
how every command reports leaves. `leaves`, `cid_by_doc`, `build_members` and
`root` are views of the arrays as node objects and dicts, which only tests and
the benchmark read, each built on first access and cached until a placement
drops them: a view is a snapshot, so one held across an add does not show the
added members. Changing a view changes nothing in the tree. The prefix trie of
the leaves (`trie`) is built the first time something reads it, which only
decoding does, and kept: later documents only join existing leaves, so it
never changes.

save_tree writes tree.json with one json.dumps call (the C encoder, the same
bytes as the streaming json.dump) and centroids.bin as the centroid matrix
gathered into preorder in one step, the root first, not one bytes copy per
node. Neither records documents placed after the build: save_placements
writes their leaves to placements.bin in the document matrix's row order,
and load_placements places those documents again, in that order, from that
file or, without it, by descent.

Once built, a tree is immutable in this module and safe for concurrent
readers, except that place_documents (the single writer) inserts documents
placed after the build into the leaf arrays and drops the cached views, and
that the trie and the views are built on first access.
"""

from __future__ import annotations

import json
import os
from dataclasses import InitVar, dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .corpus import read_array, read_json_object, require_finite
from .embed import DocumentMatrix
from .errors import (DimMismatch, DuplicateId, EmptyCorpus, MissingCid, ParseError, UnknownCid,
                     UnknownDoc)
from .kmeans import derive_seed, kmeans
from .trie import TERMINAL, Cid, PrefixTrie, build_trie


@dataclass
class ClusterNode:
    """One node of the identifier tree, as the tree's views build it. The root
    carries label None."""

    label: int | None
    centroid: np.ndarray
    children: list["ClusterNode"] = field(default_factory=list)
    members: list[str] = field(default_factory=list)
    rows: np.ndarray | None = None  # a leaf's members' rows in the tree's document matrix


@dataclass
class ClusterTree:
    manifest: InitVar[dict]
    centroids: InitVar[np.ndarray]
    k: int
    c: int
    seed: int
    documents: DocumentMatrix
    centroid_rows: np.ndarray = field(init=False, repr=False)
    first_child: np.ndarray = field(init=False, repr=False)
    child_count: np.ndarray = field(init=False, repr=False)
    preorder: np.ndarray = field(init=False, repr=False)
    leaf_cid: list[Cid | None] = field(init=False, repr=False)
    leaf_cids: list[Cid] = field(init=False, repr=False)  # by leaf position
    leaf_position: dict[Cid, int] = field(init=False, repr=False)
    member_rows: np.ndarray = field(init=False, repr=False)
    leaf_start: np.ndarray = field(init=False, repr=False)
    build_count: np.ndarray = field(init=False, repr=False)
    leaf_of_row: np.ndarray = field(init=False, repr=False)
    added_rows: np.ndarray = field(init=False, repr=False)
    _trie: PrefixTrie | None = field(init=False, default=None, repr=False)
    _views: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self, manifest: dict, centroids: np.ndarray):
        """Lay out the root `manifest` and `centroids` (preorder), keeping neither.
        ValueError, in the text load_tree prefixes with its file, for a node that
        breaks tree.json's rules, a repeated document, a member without a row or
        a tree without leaves; DimMismatch unless `centroids` has a row per node
        and is as wide as the document matrix."""
        _check_node(manifest, None)
        if not manifest["children"]:
            raise ValueError("the root has no children, so the tree has no leaves")
        nodes, paths = [manifest], [()]  # by row: the root is row 0
        visited, first = [], []  # rows in preorder, and the row of each one's first child
        row_of = self.documents.row
        leaf_of_row = [-1] * len(row_of)  # by document row
        member_rows, starts = [], [0]
        self.leaf_cids, self.leaf_position, self.leaf_cid = [], {}, [None]
        stack = [0]
        while stack:
            row = stack.pop()
            node, path = nodes[row], paths[row]
            visited.append(row)
            first.append(len(nodes))  # its children take the next free rows
            children = node["children"]
            if children:
                for child in children:
                    _check_node(child, path)
                labels = [child["label"] for child in children]
                if labels != list(range(1, len(labels) + 1)):
                    raise ValueError(f"children of {path} must be labelled 1..n, got {labels}")
                stack.extend(range(len(nodes) + len(labels) - 1, len(nodes) - 1, -1))
                nodes += children
                paths += [path + (label,) for label in labels]
                self.leaf_cid += [None] * len(labels)
                continue
            cid = self.leaf_cid[row] = path + (TERMINAL,)
            position = self.leaf_position[cid] = len(self.leaf_cids)
            self.leaf_cids.append(cid)
            for doc_id in node["members"]:
                doc_row = row_of.get(doc_id)
                if doc_row is None:
                    raise ValueError(f"leaf {cid} lists {doc_id!r}, which has no document row")
                if leaf_of_row[doc_row] >= 0:
                    other = self.leaf_cids[leaf_of_row[doc_row]]
                    raise ValueError(f"document {doc_id!r} is in leaves {other} and {cid}")
                leaf_of_row[doc_row] = position
                member_rows.append(doc_row)
            starts.append(len(member_rows))
        if len(centroids) != len(nodes):
            side = "fewer" if len(centroids) < len(nodes) else "more"
            raise DimMismatch(f"{side} centroids than the manifest")
        if np.shape(centroids)[1:] != (self.dim,):
            raise DimMismatch(f"centroids of shape {np.shape(centroids)}, not dim {self.dim} wide")
        self.preorder = np.argsort(visited)  # the inverse of the visiting order
        self.first_child = np.array(first, dtype=np.intp)[self.preorder]
        self.child_count = np.array([len(node["children"]) for node in nodes], dtype=np.intp)
        self.centroid_rows = np.asarray(centroids, dtype=np.float32)[self.preorder]
        self.member_rows = np.array(member_rows, dtype=np.intp)
        self.leaf_start = np.array(starts, dtype=np.intp)
        self.build_count = np.diff(self.leaf_start)
        self.leaf_of_row = np.array(leaf_of_row, dtype=np.intp)
        self.added_rows = np.zeros(0, dtype=np.intp)

    @property
    def dim(self) -> int:
        """The width of the document matrix, and so of every centroid and query."""
        return self.documents.matrix.shape[1]

    def require_dim(self, vector, name: str) -> None:
        """DimMismatch, naming `name`, unless `vector` is one vector `dim` wide."""
        if np.shape(vector) != (self.dim,):
            raise DimMismatch(f"{name} of shape {np.shape(vector)}, not dim {self.dim} wide")

    @property
    def leaf_count(self) -> int:
        return len(self.leaf_cids)

    @property
    def trie(self) -> PrefixTrie:
        """The prefix trie of the leaf CIDs, built on first access."""
        if self._trie is None:
            self._trie = build_trie(self.leaf_cids)
        return self._trie

    def leaf_rows(self, position: int) -> np.ndarray:
        """The member rows of the leaf at `position`: its build rows, then the later ones."""
        return self.member_rows[self.leaf_start[position] : self.leaf_start[position + 1]]

    def leaf_of(self, doc_id: str) -> int:
        """The leaf position of a document; -1 when it has no row or is in no leaf."""
        row = self.documents.row.get(doc_id)
        if row is None or row >= len(self.leaf_of_row):  # a row appended but not yet placed
            return -1
        return int(self.leaf_of_row[row])

    def cids_of(self, doc_ids: Iterable[str]) -> dict[str, Cid]:
        """The CID of each of `doc_ids` that is in a leaf, by id; the others are left out."""
        return {doc_id: self.leaf_cids[position] for doc_id in doc_ids
                if (position := self.leaf_of(doc_id)) >= 0}

    def _view(self, name: str, build: Callable[[], object]):
        if name not in self._views:
            self._views[name] = build()
        return self._views[name]

    @property
    def leaves(self) -> dict[Cid, ClusterNode]:
        """Every leaf as a node object, in preorder: its CID's second-last digit
        as label, a row view of its centroid, and its members' ids and rows,
        build members first. A view: changing it changes nothing in the tree."""
        return self._view("leaves", self._leaf_nodes)

    @property
    def cid_by_doc(self) -> dict[str, Cid]:
        """The CID of every document in a leaf: build members leaf by leaf in
        preorder, then the documents placed later, in placement order. A view."""
        return self._view("cid_by_doc", self._cids_by_doc)

    @property
    def build_members(self) -> dict[Cid, tuple[str, ...]]:
        """Each leaf's construction-time members, which tree.json records. A view."""
        return self._view("build_members", lambda: dict(zip(self.leaf_cids,
                                                            map(tuple, _build_member_ids(self)))))

    @property
    def root(self) -> ClusterNode:
        """The tree as node objects: internal nodes hold row views of
        `centroid_rows`, and the leaves are `leaves`' own. A view."""
        return self._view("root", lambda: self._node(0, None))

    def _leaf_nodes(self) -> dict[Cid, ClusterNode]:
        ids, rows = self.documents.ids, self.member_rows.tolist()
        starts = self.leaf_start.tolist()
        nodes = np.flatnonzero(self.child_count == 0)
        nodes = nodes[np.argsort(self.preorder[nodes])].tolist()  # by leaf position
        return {cid: ClusterNode(cid[-2], self.centroid_rows[node],
                                 members=[ids[r] for r in rows[start:end]],
                                 rows=self.member_rows[start:end])
                for cid, node, start, end in zip(self.leaf_cids, nodes, starts, starts[1:])}

    def _cids_by_doc(self) -> dict[str, Cid]:
        cids = self.leaf_cids
        view = {doc_id: cid for cid, members in zip(cids, _build_member_ids(self))
                for doc_id in members}
        ids, added = self.documents.ids, self.added_rows
        view.update((ids[row], cids[position]) for row, position
                    in zip(added.tolist(), self.leaf_of_row[added].tolist()))
        return view

    def _node(self, row: int, label: int | None) -> ClusterNode:
        if not self.child_count[row]:
            return self.leaves[self.leaf_cid[row]]
        children = [self._node(self.first_child[row] + i, i + 1)
                    for i in range(self.child_count[row])]
        return ClusterNode(label, self.centroid_rows[row], children)


def _build_member_ids(tree: ClusterTree) -> list[list[str]]:
    """The ids of each leaf's build members, in leaf order."""
    ids, rows = tree.documents.ids, tree.member_rows.tolist()
    starts = tree.leaf_start[:-1]
    return [[ids[r] for r in rows[start:end]]
            for start, end in zip(starts.tolist(), (starts + tree.build_count).tolist())]


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
    X: np.ndarray,
    indices: np.ndarray,
    ids: list[str],
    path: Cid,
    k: int,
    c: int,
    seed: int,
    centroids: list[np.ndarray],
) -> list[dict]:
    """The tree.json nodes of the children k-means splits the documents at
    `indices` into, appending their subtrees' centroids to `centroids` in preorder."""
    labels, child_centroids = kmeans(X[indices], k, derive_seed(seed, *path))
    children = []
    for label, centroid in enumerate(child_centroids, start=1):
        member_idx = indices[labels == label - 1]
        centroids.append(centroid)
        child = {"label": label, "members": [], "children": []}
        if len(member_idx) >= c and len(member_idx) < len(indices):
            child["children"] = _split(X, member_idx, ids, path + (label,), k, c, seed, centroids)
        else:
            child["members"] = [ids[i] for i in member_idx]
        children.append(child)
    return children


def build_cluster_tree(
    embeddings: Mapping[str, np.ndarray], k: int, expected_clusters: int, seed: int
) -> ClusterTree:
    """Recursively cluster document embeddings into an identifier tree.

    A DocumentMatrix becomes the tree's `documents` as it is; any other
    mapping is stacked once into a new float32 one, in its iteration order.
    That order fixes the document order, and all k-means sub-seeds are
    derived from (seed, digit path), so the same inputs always produce the
    same tree. Raises EmptyCorpus when the mapping is empty.
    """
    if not embeddings:
        raise EmptyCorpus("cannot build a cluster tree from zero documents")
    if k < 1:
        raise ValueError("k must be >= 1")
    documents = embeddings
    if not isinstance(documents, DocumentMatrix):
        ids = list(embeddings)
        X = np.stack([np.asarray(embeddings[i], dtype=np.float32) for i in ids])
        if X.ndim != 2:
            raise ValueError("embeddings must be 1-D vectors of a common dimension")
        documents = DocumentMatrix(ids, X)
    X = documents.matrix
    c = compute_c(len(X), expected_clusters)
    centroids = [X.astype(np.float64).mean(axis=0).astype(np.float32)]
    root = {"label": None, "members": [],
            "children": _split(X, np.arange(len(X)), documents.ids, (), k, c, seed, centroids)}
    centroids = np.stack(centroids)  # frees k-means' outputs before the layout gathers a copy
    return ClusterTree(root, centroids, k=k, c=c, seed=seed, documents=documents)


def assign_new_document(tree: ClusterTree, embedding: np.ndarray) -> Cid:
    """CID for a new document: descend by highest inner product per level.

    Ties prefer the smaller child label (argmax returns the first maximum).
    Read-only: the tree is not modified. DimMismatch unless it is `tree.dim` wide.
    """
    tree.require_dim(embedding, "embedding")
    row = 0
    while count := tree.child_count[row]:
        start = tree.first_child[row]
        row = start + int(np.argmax(row_dots(tree.centroid_rows[start : start + count],
                                             embedding)))
    return tree.leaf_cid[row]


def place_documents(tree: ClusterTree, ids: Sequence[str],
                    cids: Sequence[Cid] | None = None) -> None:
    """Append each document `ids[i]`, with its row in `tree.documents`, to leaf
    `cids[i]`, or without `cids` to the leaf that greedy descent picks for it.

    The one step that places documents after the build: new ones, and loaded
    ones with or without their saved placements (load_placements). Every
    (document, leaf) pair is checked before the tree changes, so a call that
    raises leaves the leaf arrays as they were: UnknownDoc for an id without
    a row, DuplicateId for an id already in a leaf or repeated in `ids`,
    ValueError unless `cids` has one CID per id, and UnknownCid for a CID,
    any sequence of digits, that is not a leaf.
    """
    row_of = tree.documents.row
    rows = [row_of.get(doc_id, -1) for doc_id in ids]
    leaf_of_row = _row_leaves(tree)
    if -1 in rows or len(set(rows)) < len(rows) or (leaf_of_row[rows] >= 0).any():
        seen = set()  # the first offending id, in call order
        for doc_id, row in zip(ids, rows):
            if row < 0:
                raise UnknownDoc(f"document {doc_id!r} has no row in the document matrix")
            if row in seen or leaf_of_row[row] >= 0:
                raise DuplicateId(f"document {doc_id!r} is in a leaf already or twice in the call")
            seen.add(row)
    if cids is None:
        cids = [assign_new_document(tree, tree.documents.matrix[row]) for row in rows]
    elif len(cids) != len(ids):
        raise ValueError(f"{len(cids)} CIDs for {len(ids)} documents")
    positions = [tree.leaf_position.get(tuple(cid), -1) for cid in cids]
    if -1 in positions:
        raise UnknownCid(f"{cids[positions.index(-1)]} is not a leaf CID of the tree")
    if rows:
        _place(tree, leaf_of_row, np.array(rows, dtype=np.intp),
               np.array(positions, dtype=np.intp))


def _row_leaves(tree: ClusterTree) -> np.ndarray:
    """`tree.leaf_of_row`, with -1 for the rows appended to the matrix since it was last set."""
    missing = len(tree.documents) - len(tree.leaf_of_row)
    if not missing:
        return tree.leaf_of_row
    return np.pad(tree.leaf_of_row, (0, missing), constant_values=-1)


def _place(tree: ClusterTree, leaf_of_row: np.ndarray, rows: np.ndarray,
           positions: np.ndarray) -> None:
    """Insert `rows` after the members of leaves `positions`, in this order
    within each leaf, and drop the cached views. `leaf_of_row` is the tree's,
    padded to the matrix; the rows must be in no leaf."""
    grown = np.bincount(positions, minlength=tree.leaf_count)
    # np.insert puts values bound for one index in call order, and an empty
    # leaf ends where the leaf before it does: insert the rows in leaf order
    order = np.argsort(positions, kind="stable")
    tree.member_rows = np.insert(tree.member_rows, tree.leaf_start[1:][positions[order]],
                                 rows[order])
    tree.leaf_start = tree.leaf_start + np.concatenate([[0], np.cumsum(grown)])
    tree.leaf_of_row = leaf_of_row
    leaf_of_row[rows] = positions
    tree.added_rows = np.concatenate([tree.added_rows, rows])
    tree._views.clear()


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


def _node_manifest(tree: ClusterTree, members: list[list[str]], row: int,
                   label: int | None) -> dict:
    """tree.json's node at `row`; `members` are the leaves' build members, in leaf order."""
    if not tree.child_count[row]:
        return {"label": label, "members": members[tree.leaf_position[tree.leaf_cid[row]]],
                "children": []}
    return {
        "label": label,
        "members": [],
        "children": [_node_manifest(tree, members, tree.first_child[row] + i, i + 1)
                     for i in range(tree.child_count[row])],
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
        "root": _node_manifest(tree, _build_member_ids(tree), 0, None),
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, separators=(",", ":")))
        fh.write("\n")
    with open(bin_path, "wb") as fh:
        fh.write(np.ascontiguousarray(tree.centroid_rows[np.argsort(tree.preorder)], dtype="<f4"))


def _check_node(obj, parent: Cid | None) -> None:
    """Raise ValueError unless `obj` is a well-formed tree.json node (parent None: the root).

    `type(x) is int` rather than isinstance keeps JSON booleans out.
    """
    problem = None
    if type(obj) is not dict:
        problem = "is not an object"
    elif missing := [key for key in ("label", "children", "members") if key not in obj]:
        problem = f"is missing {missing[0]!r}"
    elif parent is None and obj["label"] is not None:
        problem = f"has label {obj['label']!r}, expected null"
    elif parent is not None and not (type(obj["label"]) is int and obj["label"] >= 1):
        problem = f"has label {obj['label']!r}, expected a positive integer"
    elif type(obj["children"]) is not list:
        problem = "has children that are not a list"
    elif type(obj["members"]) is not list or not all(type(m) is str for m in obj["members"]):
        problem = "has members that are not a list of strings"
    elif obj["members"] and (parent is None or obj["children"]):  # the root is never a leaf
        problem = "lists members, but only a leaf may"
    if problem is not None:
        where = "the root" if parent is None else f"a child of node {parent}"
        raise ValueError(f"{where} {problem}")


def load_tree(json_path: str, bin_path: str, documents: DocumentMatrix) -> ClusterTree:
    """The tree save_tree wrote, over `documents`; a ParseError naming the
    file at fault when either file is malformed, they disagree on the nodes,
    or tree.json's dim is not the width of `documents`."""
    manifest = read_json_object(json_path)
    for key in ("k", "c", "dim"):
        value = manifest.get(key)
        if type(value) is not int or value < 1:
            raise ParseError(f"{json_path}: {key} must be a positive integer, got {value!r}")
    if type(manifest.get("seed")) is not int:
        raise ParseError(f"{json_path}: seed must be an integer, got {manifest.get('seed')!r}")
    if manifest["dim"] != documents.matrix.shape[1]:
        raise ParseError(f"{json_path}: dim {manifest['dim']} disagrees with the "
                         f"{documents.matrix.shape[1]}-wide document matrix")
    centroids = require_finite(bin_path, read_array(bin_path, "<f4", (-1, manifest["dim"])))
    try:
        return ClusterTree(manifest.get("root"), centroids, k=manifest["k"], c=manifest["c"],
                           seed=manifest["seed"], documents=documents)
    except ValueError as exc:
        raise ParseError(f"{json_path}: {exc}")
    except DimMismatch as exc:
        raise ParseError(f"{bin_path}: blob has {exc}")


def save_placements(tree: ClusterTree, path: str) -> None:
    """Write the leaf of every document that tree.json does not list, in the
    document matrix's row order, as the little-endian int32 position of that
    leaf among the leaves in preorder; nothing when there is none. Raises
    MissingCid, before it opens `path`, for a row that no leaf lists, which
    load_placements could not place back.
    """
    leaf_of_row = _row_leaves(tree)
    if len(unplaced := np.flatnonzero(leaf_of_row < 0)):
        doc_id = tree.documents.ids[unplaced[0]]
        raise MissingCid(f"document {doc_id!r} has a row but is in no leaf")
    with open(path, "wb") as fh:
        fh.write(leaf_of_row[np.sort(tree.added_rows)].astype("<i4"))


def load_placements(tree: ClusterTree, path: str, tree_path: str) -> None:
    """Place the documents of a loaded tree's matrix that no leaf lists.

    Build members keep the leaves tree.json (at `tree_path`) gives them. The
    other documents, in row order, go to the leaves that save_placements wrote
    to `path`, or, when there is no such file (an index saved before it
    existed), to the leaves that descent picks. A file that is not a whole
    number of entries or names a leaf outside the tree is a ParseError naming
    it; one of whole entries, but not one per such document, a ParseError
    naming both files.
    """
    leaf_of_row = _row_leaves(tree)
    added = np.flatnonzero(leaf_of_row < 0)
    if not os.path.exists(path):
        place_documents(tree, [tree.documents.ids[row] for row in added.tolist()])
        return
    entries, partial = divmod(os.path.getsize(path), 4)
    if not partial and entries != len(added):
        raise ParseError(f"{tree_path} leaves {len(added)} documents out of its leaves; "
                         f"{path} places {entries}")
    positions = read_array(path, "<i4", (len(added),)).astype(np.intp)
    if len(added):
        if not (positions.min() >= 0 and positions.max() < tree.leaf_count):
            raise ParseError(f"{path}: a placement lies outside the {tree.leaf_count} leaves")
        _place(tree, leaf_of_row, added, positions)
