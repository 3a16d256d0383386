"""End-to-end retrieval: build, query, extend, and persist an index.

Querying runs in two stages. Beam decoding over the identifier trie recalls
k_clusters leaf clusters, each with a cluster score s_inter; the members of
each recalled cluster are then ranked densely, keeping the top
min(cluster size, k) with per-document scores s_intra. The two are fused as

    s_overall = s_inter + beta * s_intra

and the global top-k documents are returned, ordering ties by s_intra and
then ascending doc id. Fusion sorts plain (-s_overall, -s_intra, doc_id,
s_inter) tuples, which gives that order because doc ids are unique, and
builds a ResultEntry only for the k it returns. Documents can be appended
to an existing index without rebuilding: each new document descends the
frozen tree to its nearest leaf, so existing identifiers, centroids, and
scores never change.

In memory an index holds its document vectors as one float32 [N, dim]
DocumentMatrix in the row order of embeddings.bin (corpus order, as
save_index writes it), so loading reads the file into that matrix without
copying rows. The tree owns that matrix (`index.embeddings` is
`index.tree.documents`) and keeps its leaves as one CSR array of their
members' rows in it (see cluster_tree). The matrix is the index's only
registry of document ids and its one duplicate gate (DuplicateId); beside it
the index keeps only the texts, by row (`index.texts`), which only saving
reads, and no Document objects: load_index reads corpus.jsonl into an id list
and a text list. Building, loading, adding and training make no node object
and no trie. The fine stage scores the members of all recalled
one-member leaves, most leaves at the default configuration, with one gather
and one stacked matmul (intra.score_one_member_leaves): a one-member leaf's
member is its top 1 whatever k and beta are. Each larger leaf takes one
rank_within_cluster call, one gather and one stacked matmul, taking the exact
sigmoid only for the members that a vectorised screen leaves in reach of the
top k.
The tree keeps all centroids as one float32 matrix, the root as row 0 and
every node's children a contiguous block of rows. A beam step gathers the
children of all frontier nodes with one take, scores them with one stacked
matmul, and normalises each group of nodes with the same child count as one
2-D array (see inter.py for why a stacked 1 x d . d x 1 matmul and not a
gemv, and why groups rather than np.add.reduceat); math.log is taken only
for the children that a vectorised np.log screen leaves in reach of the
beam. `index.trie` is the tree's own trie, built by the first decode of each
built or loaded index and kept, so decoding takes that path.

On disk an index is a directory: corpus.jsonl, embeddings.bin +
manifest.json (sidecar format), placements.bin, tree.json + centroids.bin,
config.json, and optionally adapter.bin + adapter.json. tree.json records
construction-time leaf membership only; placements.bin holds the leaf of
every document added later, in the document matrix's row order. Both
formats, and how a loaded tree gets its documents back, belong to
cluster_tree (save_tree/load_tree and save_placements/load_placements);
load_index adds only the checks across files, adapter.json's dim against
config.json's among them. save_index is three writers, one per group of
files that change together: save_documents (corpus, embeddings, placements),
save_tree (build-time only) and save_settings (config and adapter).
add-docs calls only the first, train-adapter only the last; every file
either writes is byte-identical to what a full save_index of the same index
writes. Readers may share a loaded index; mutation (add_documents, attaching
an adapter) requires exclusive access.

Every compact JSON file (tree.json, manifest.json, adapter.json) is one
json.dumps call, which runs the C encoder; json.dump always runs the
pure-Python encoder, which writes the same bytes several times slower.
corpus.jsonl lines are joined from the C string escaper that json.dumps
calls for the id and the text (see corpus.py). config.json is written with
indent=2, which only the Python encoder handles; it is a few hundred bytes.
Binary files are written straight from their arrays.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
from dataclasses import dataclass
from itertools import compress
from typing import Mapping, Sequence

import numpy as np

from .cluster_tree import (
    ClusterTree,
    build_cluster_tree,
    load_placements,
    load_tree,
    place_documents,
    save_placements,
    save_tree,
)
from .corpus import (
    Document,
    _write_corpus,
    read_array,
    read_corpus,
    read_json_object,
    require_finite,
)
from .embed import (
    MIN_DIM,
    DocumentMatrix,
    HashingEmbedder,
    QueryRepresentation,
    load_embedding_sidecar,
    save_embedding_sidecar,
)
from .errors import (
    BadEmbedding,
    DimMismatch,
    EmptyCorpus,
    EmptyIndex,
    EmptyText,
    ParseError,
    UnknownDoc,
)
from .inter import CentroidScorer, StepScorer, decode_clusters
from .intra import LinearAdapter, rank_within_cluster, score_one_member_leaves
from .kmeans import derive_seed
from .trie import PrefixTrie


@dataclass(frozen=True)
class RetrievalConfig:
    """Engine parameters; defaults match the reference configuration."""

    beta: float = 1.0
    gamma: float = 2.0
    beam_size: int = 100
    length_penalty: float = 0.8
    k_clusters: int = 100
    expected_clusters: int = 5000
    branching: int = 30
    temperature: float = 0.1
    dim: int = 256
    seed: int = 0
    n_a: int = 4

    def __post_init__(self):
        # Annotations are strings here (from __future__ import annotations).
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            kinds = int if field.type == "int" else (int, float)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise TypeError(f"{field.name} must be {field.type}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        if not (self.temperature > 0 and self.gamma > 0):
            raise ValueError(
                f"temperature and gamma must be > 0, got {self.temperature} and {self.gamma}"
            )
        if self.n_a < 0:
            raise ValueError(f"n_a must be >= 0, got {self.n_a}")
        if not (self.beam_size >= self.k_clusters >= 1):
            raise ValueError(
                f"need beam_size >= k_clusters >= 1, got {self.beam_size} and {self.k_clusters}"
            )
        if self.branching < 1 or self.expected_clusters < 1:
            raise ValueError("branching and expected_clusters must be >= 1")
        if self.dim < MIN_DIM:
            raise ValueError(f"dim must be >= {MIN_DIM}, got {self.dim}")


@dataclass(frozen=True)
class ResultEntry:
    doc_id: str
    s_inter: float
    s_intra: float
    s_overall: float


@dataclass(frozen=True)
class RetrievalResult:
    entries: list[ResultEntry]


@dataclass
class RetrievalIndex:
    """A built or loaded index. Its documents are the rows of the tree's
    DocumentMatrix (`embeddings`), the only registry of their ids; `texts[i]`
    is the text of `embeddings.ids[i]`, kept only to be saved."""

    texts: list[str]
    tree: ClusterTree
    scorer: StepScorer
    adapter: LinearAdapter | None
    config: RetrievalConfig
    embedder: HashingEmbedder

    @property
    def trie(self) -> PrefixTrie:
        """The trie of the tree's leaves, which decoding is constrained to."""
        return self.tree.trie

    @property
    def embeddings(self) -> DocumentMatrix:
        """The document matrix, owned by the tree because its leaves index it."""
        return self.tree.documents


def build_index(
    docs: Sequence[Document],
    config: RetrievalConfig,
    doc_embeddings: Mapping[str, np.ndarray] | None = None,
) -> RetrievalIndex:
    """Embed documents, build the identifier tree, and assemble an index.

    When doc_embeddings is given (an external embedder's output), those
    vectors are used instead of hashing; they must be unit-length float
    vectors of the configured dimension. Queries are always embedded by the
    built-in hashing embedder. A repeated doc id raises DuplicateId from the
    DocumentMatrix, after every document is embedded.
    """
    if not docs:
        raise EmptyCorpus("cannot build an index from zero documents")
    embedder = HashingEmbedder(dim=config.dim, seed=derive_seed(config.seed, "embed"))
    vectors: list[np.ndarray] = []
    for doc in docs:
        if doc_embeddings is None:
            vectors.append(embedder.embed(doc.text))
        else:
            if doc.doc_id not in doc_embeddings:
                raise UnknownDoc(f"no externally supplied embedding for {doc.doc_id!r}")
            vec = np.asarray(doc_embeddings[doc.doc_id], dtype=np.float32)
            if vec.shape != (config.dim,):
                raise DimMismatch(
                    f"embedding for {doc.doc_id!r} has dim {vec.shape}, expected {config.dim}"
                )
            if not np.isfinite(vec).all() or abs(float(np.linalg.norm(vec)) - 1.0) > 1e-3:
                raise BadEmbedding(
                    f"embedding for {doc.doc_id!r} must be finite and unit length")
            vectors.append(vec)
    embeddings = DocumentMatrix([doc.doc_id for doc in docs], np.stack(vectors))
    del vectors  # the matrix is now the only copy of the document vectors
    tree = build_cluster_tree(
        embeddings, config.branching, config.expected_clusters, derive_seed(config.seed, "tree")
    )
    return _assemble([doc.text for doc in docs], tree, None, config)


def _assemble(texts: list[str], tree: ClusterTree, adapter: LinearAdapter | None,
              config: RetrievalConfig) -> RetrievalIndex:
    """The index over these parts, with the scorer and embedder they determine."""
    return RetrievalIndex(
        texts=texts,
        tree=tree,
        scorer=CentroidScorer(tree, temperature=config.temperature),
        adapter=adapter,
        config=config,
        embedder=HashingEmbedder(dim=config.dim, seed=derive_seed(config.seed, "embed")),
    )


def query_vector(index: RetrievalIndex, query_text: str) -> np.ndarray:
    """Embed a query and apply the adapter when one is attached."""
    vec = index.embedder.embed(query_text)
    if index.adapter is not None:
        vec = index.adapter.apply(vec)
    return vec


def retrieve(index: RetrievalIndex, query_text: str, k: int) -> RetrievalResult:
    """Top-k documents for a query text.

    The members of the recalled one-member leaves are scored together by
    score_one_member_leaves and every larger leaf by its own
    rank_within_cluster call; both give each document the bits that ranking
    its leaf alone gives it. May return fewer than k entries when the
    decoded clusters hold fewer documents. Raises EmptyIndex on an index with
    no documents.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not index.embeddings:
        raise EmptyIndex("index contains no documents")
    cfg = index.config
    # Every score is computed in float64; cast once instead of on every step.
    q = query_vector(index, query_text).astype(np.float64)
    rep = QueryRepresentation(pooled=q)
    hypotheses = decode_clusters(
        rep, index.scorer, index.trie, cfg.beam_size, cfg.length_penalty, cfg.k_clusters
    )
    # Plain tuples in the order of the result: doc ids are unique, so s_inter
    # never decides, and negating a float is exact both ways.
    tree, beta = index.tree, cfg.beta
    positions = np.array([tree.leaf_position[hyp.cid] for hyp in hypotheses], dtype=np.intp)
    starts = tree.leaf_start[positions]
    one = tree.leaf_start[positions + 1] - starts == 1  # the recalled one-member leaves
    fused: list[tuple[float, float, str, float]] = []
    for hyp in compress(hypotheses, (~one).tolist()):
        fused.extend(
            (-(hyp.s_inter + beta * scored.s_intra), -scored.s_intra, scored.doc_id, hyp.s_inter)
            for scored in rank_within_cluster(q, tree, hyp.cid, k)
        )
    if one.any():
        ids = tree.documents.ids
        s_intras = score_one_member_leaves(q, tree, positions[one])
        fused.extend(
            (-(hyp.s_inter + beta * s_intra), -s_intra, ids[row], hyp.s_inter)
            for hyp, row, s_intra in zip(compress(hypotheses, one.tolist()),
                                         tree.member_rows[starts[one]].tolist(), s_intras)
        )
    fused.sort()
    return RetrievalResult(entries=[
        ResultEntry(doc_id, s_inter, -neg_intra, -neg_overall)
        for neg_overall, neg_intra, doc_id, s_inter in fused[:k]
    ])


def add_documents(index: RetrievalIndex, docs: Sequence[Document]) -> RetrievalIndex:
    """Append documents to the index without re-clustering.

    Each document is embedded and assigned to the leaf reached by greedy
    centroid descent. The tree structure, centroids, trie, and all existing
    assignments are left untouched. Every document is embedded before the
    index changes, so a text that fails to embed leaves it as it was; then
    the document matrix raises DuplicateId, still before any change, for an
    id already present or repeated within this call.
    """
    vectors = [index.embedder.embed(doc.text) for doc in docs]
    ids = [doc.doc_id for doc in docs]
    index.tree.documents.append(ids, vectors)
    index.texts.extend(doc.text for doc in docs)
    place_documents(index.tree, ids)
    return index


CORPUS_FILE = "corpus.jsonl"
EMBEDDINGS_FILE = "embeddings.bin"
MANIFEST_FILE = "manifest.json"
TREE_FILE = "tree.json"
CENTROIDS_FILE = "centroids.bin"
PLACEMENTS_FILE = "placements.bin"
CONFIG_FILE = "config.json"
ADAPTER_FILE = "adapter.bin"
ADAPTER_META_FILE = "adapter.json"


def save_index(index: RetrievalIndex, directory: str) -> None:
    """Write every file of the index into `directory`, creating it if needed."""
    os.makedirs(directory, exist_ok=True)
    save_documents(index, directory)
    save_tree(
        index.tree,
        os.path.join(directory, TREE_FILE),
        os.path.join(directory, CENTROIDS_FILE),
    )
    save_settings(index, directory)


def save_documents(index: RetrievalIndex, directory: str) -> None:
    """Rewrite the files that adding documents changes: placements.bin,
    corpus.jsonl (ids and texts in row order) and embeddings.bin +
    manifest.json. Before any file is written, a document row that no leaf
    lists raises MissingCid (save_placements, which goes first), and one that
    a leaf lists but that has no text raises EmptyText."""
    ids = index.embeddings.ids
    # texts trail the rows they lack; leaf members are distinct rows, so equal
    # counts mean every row is in a leaf and save_placements will not raise first
    if len(index.texts) < len(ids) == len(index.tree.member_rows):
        raise EmptyText(f"document {ids[len(index.texts)]!r} has no text")
    save_placements(index.tree, os.path.join(directory, PLACEMENTS_FILE))
    _write_corpus(ids, index.texts, os.path.join(directory, CORPUS_FILE))
    save_embedding_sidecar(
        ids,
        index.embeddings.matrix,
        os.path.join(directory, EMBEDDINGS_FILE),
        os.path.join(directory, MANIFEST_FILE),
    )


def save_settings(index: RetrievalIndex, directory: str) -> None:
    """Rewrite config.json and adapter.bin + adapter.json; without an adapter,
    remove any adapter files left by an earlier index in the directory."""
    with open(os.path.join(directory, CONFIG_FILE), "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(index.config), fh, sort_keys=True, indent=2)
        fh.write("\n")
    adapter_paths = [os.path.join(directory, name) for name in (ADAPTER_FILE, ADAPTER_META_FILE)]
    if index.adapter is None:
        for path in adapter_paths:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        return
    with open(adapter_paths[0], "wb") as fh:
        fh.write(np.ascontiguousarray(index.adapter.weight, dtype="<f4"))
    with open(adapter_paths[1], "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"dim": int(index.adapter.weight.shape[0])}, sort_keys=True))
        fh.write("\n")


def read_config_file(path: str) -> dict:
    """The settings of a flat JSON config file; rejects keys RetrievalConfig lacks."""
    raw = read_json_object(path)
    # Settings of a removed query augmentation: older config files still hold them.
    for retired in ("n_spans", "span_len"):
        raw.pop(retired, None)
    known = {f.name for f in dataclasses.fields(RetrievalConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ParseError(f"{path}: unknown config keys {sorted(unknown)}")
    return raw


def load_config(path: str) -> RetrievalConfig:
    try:
        return RetrievalConfig(**read_config_file(path))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}")


def load_index(directory: str) -> RetrievalIndex:
    """Load an index directory saved by save_index.

    Documents present in the corpus but absent from the construction-time
    tree membership are documents that were added later; load_placements
    puts them in the leaves placements.bin names or, without that file, in
    the leaves the same deterministic descent used at add time picks. The
    texts of corpus.jsonl, in any line order, are paired with the rows of
    embeddings.bin by id, so a save writes them back in row order; when the
    two orders agree, as in every index save_index writes, the texts are kept
    as read.
    """
    config_path = os.path.join(directory, CONFIG_FILE)
    config = load_config(config_path)
    doc_ids, texts = read_corpus(os.path.join(directory, CORPUS_FILE))
    manifest_path = os.path.join(directory, MANIFEST_FILE)
    embeddings_path = os.path.join(directory, EMBEDDINGS_FILE)
    ids, matrix = load_embedding_sidecar(embeddings_path, manifest_path)
    require_finite(embeddings_path, matrix)
    if matrix.shape[1] != config.dim:
        raise ParseError(
            f"{manifest_path}: dim {matrix.shape[1]} disagrees with {config_path} dim {config.dim}"
        )
    if doc_ids != ids:
        text_of = dict(zip(doc_ids, texts))
        if set(ids) != text_of.keys():  # the sidecar reader rejects a repeated id
            raise ParseError(f"{manifest_path}: ids do not match {CORPUS_FILE}")
        texts = [text_of[doc_id] for doc_id in ids]
    # load_tree checks tree.json's dim against the matrix, so against config.json's too
    tree = load_tree(os.path.join(directory, TREE_FILE), os.path.join(directory, CENTROIDS_FILE),
                     DocumentMatrix(ids, matrix))
    load_placements(tree, os.path.join(directory, PLACEMENTS_FILE))
    adapter = None
    adapter_path = os.path.join(directory, ADAPTER_FILE)
    if os.path.exists(adapter_path):
        meta_path = os.path.join(directory, ADAPTER_META_FILE)
        if not os.path.exists(meta_path):
            raise ParseError(f"{meta_path}: missing, though {ADAPTER_FILE} exists")
        dim = read_json_object(meta_path).get("dim")
        if dim != config.dim:
            raise ParseError(
                f"{meta_path}: dim {dim!r} disagrees with {config_path} dim {config.dim}"
            )
        weight = read_array(adapter_path, "<f4", (config.dim, config.dim))
        adapter = LinearAdapter(weight=require_finite(adapter_path, weight))
    return _assemble(texts, tree, adapter, config)
