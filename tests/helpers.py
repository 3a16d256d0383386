"""Shared test utilities: synthetic corpora, pluggable scorers, brute-force oracles."""

import dataclasses
import hashlib
import json
import math

import numpy as np

from coarsefine import Document
from coarsefine.cluster_tree import TERMINAL, Cid, ClusterNode, ClusterTree, row_dots
from coarsefine.corpus import tokenize
from coarsefine.embed import DocumentMatrix, QueryRepresentation
from coarsefine.errors import DimMismatch, DivergedLoss, EmptySet, ParseError, UnknownDoc
from coarsefine.inter import decode_clusters
from coarsefine.intra import (
    IntraLossResult,
    LinearAdapter,
    NegativeSet,
    _as_matrix,
    rank_within_cluster,
)
from coarsefine.kmeans import derive_seed
from coarsefine.pipeline import ResultEntry, RetrievalResult, query_vector
from coarsefine.trie import PrefixTrie


class UniformScorer:
    """Spreads probability evenly over whatever digits are valid."""

    def score_next(self, query, prefix, valid):
        p = 1.0 / len(valid)
        return {d: p for d in valid}


class SeededScorer:
    """Deterministic random softmax per prefix; stands in for a trained decoder."""

    def __init__(self, seed: int, sigma: float = 2.0):
        self.seed = seed
        self.sigma = sigma

    def score_next(self, query, prefix, valid):
        digits = sorted(valid)
        rng = np.random.default_rng(derive_seed(self.seed, "scorer", *prefix))
        logits = self.sigma * rng.standard_normal(len(digits))
        z = np.exp(logits - logits.max())
        z /= z.sum()
        return {d: float(p) for d, p in zip(digits, z)}


class AxisEmbedder:
    """Maps a text to the standard basis vector named by its first token.

    Lets tests pin exact (usually orthogonal) embeddings for queries while
    still looking like an embedder to the pipeline.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.seed = 0

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=np.float32)
        vec[int(text.split()[0]) % self.dim] = 1.0
        return vec


def axis_vec(dim: int, axis: int) -> np.ndarray:
    vec = np.zeros(dim, dtype=np.float32)
    vec[axis % dim] = 1.0
    return vec


def blob_embeddings(counts, dim, seed, spread=0.05):
    """Gaussian blobs around orthogonal axes; returns {doc_id: unit f32 row}.

    counts[b] points are drawn around basis axis b as 'b{b}_{i}'.
    """
    rng = np.random.default_rng(seed)
    out = {}
    for b, n in enumerate(counts):
        for i in range(n):
            row = spread * rng.standard_normal(dim)
            row[b % dim] += 1.0
            row /= np.linalg.norm(row)
            out[f"b{b}_{i:03d}"] = row.astype(np.float32)
    return out


def topic_corpus(n_topics, docs_per_topic, seed, vocab_per_topic=30, doc_len=20,
                 common_vocab=0, common_frac=0.0):
    """Documents whose tokens come from per-topic vocabularies.

    Optionally mixes in a shared vocabulary so topics are lexically noisy.
    """
    rng = np.random.default_rng(seed)
    docs = []
    for t in range(n_topics):
        for i in range(docs_per_topic):
            words = []
            for _ in range(doc_len):
                if common_vocab and rng.random() < common_frac:
                    words.append(f"c{int(rng.integers(0, common_vocab))}")
                else:
                    words.append(f"t{t}w{int(rng.integers(0, vocab_per_topic))}")
            docs.append(Document(f"d{t:02d}_{i:04d}", " ".join(words)))
    return docs


def subtopic_corpus(seed, n_topics=10, subs_per_topic=4, docs_per_sub=25, sub_vocab=25,
                    common_vocab=40, doc_len=30, common_frac=0.4, n_queries=50,
                    n_rel=5, q_words=4, mix_frac=0.3):
    """1000-doc corpus with 10 topics split into 4 subtopics of 25 docs each.

    Tokens mix a shared vocabulary (cross-topic noise) with a subtopic
    vocabulary. Each query samples words from two of its relevant docs; a
    mix_frac fraction of queries spreads its relevant set over two subtopics
    of the same topic so no single leaf cluster can satisfy it.
    Returns (docs, [(query_id, query_text, frozenset(relevant))]).
    """
    rng = np.random.default_rng(seed)
    docs, by_sub = [], {}
    for t in range(n_topics):
        for s in range(subs_per_topic):
            by_sub[(t, s)] = []
            for i in range(docs_per_sub):
                words = []
                for _ in range(doc_len):
                    if rng.random() < common_frac:
                        words.append(f"c{int(rng.integers(0, common_vocab))}")
                    else:
                        words.append(f"t{t}s{s}w{int(rng.integers(0, sub_vocab))}")
                did = f"d{t:02d}_{s}_{i:03d}"
                docs.append(Document(did, " ".join(words)))
                by_sub[(t, s)].append(did)
    doc_map = {d.doc_id: d for d in docs}
    queries = []
    for qi in range(n_queries):
        t = int(rng.integers(0, n_topics))
        if rng.random() < mix_frac:
            s1, s2 = rng.choice(subs_per_topic, size=2, replace=False)
            rel = [by_sub[(t, int(s1))][int(i)]
                   for i in rng.choice(docs_per_sub, size=3, replace=False)]
            rel += [by_sub[(t, int(s2))][int(i)]
                    for i in rng.choice(docs_per_sub, size=2, replace=False)]
            sources = [rel[0], rel[3]]
        else:
            s = int(rng.integers(0, subs_per_topic))
            rel = [by_sub[(t, s)][int(i)]
                   for i in rng.choice(docs_per_sub, size=n_rel, replace=False)]
            sources = rel[:2]
        terms = []
        for r in sources:
            toks = doc_map[r].text.split()
            terms += [toks[int(j)] for j in rng.choice(len(toks), size=q_words, replace=False)]
        queries.append((f"q{qi}", " ".join(terms), frozenset(rel)))
    return docs, queries


def random_cids(seed, max_leaves=64, branching=4, max_depth=3):
    """A random consistent CID set (proper tree shape, ≤ max_leaves leaves)."""
    rng = np.random.default_rng(seed)
    cids = []

    def grow(prefix, depth):
        n_children = int(rng.integers(1, branching + 1))
        for j in range(1, n_children + 1):
            if len(cids) >= max_leaves:
                return
            path = prefix + (j,)
            if depth >= max_depth or rng.random() < 0.45:
                cids.append(path + (TERMINAL,))
            else:
                grow(path, depth + 1)

    grow((), 0)
    return cids


def brute_force_hypotheses(scorer, trie, query=None):
    """(cid, log_prob) for every CID by multiplying step probabilities."""
    out = []
    for cid in trie.cids():
        lp = 0.0
        for i in range(len(cid)):
            prefix = cid[:i]
            probs = scorer.score_next(query, prefix, trie.valid_next(prefix))
            lp += math.log(probs[cid[i]])
        out.append((cid, lp))
    return out


def rank_by_penalized(pairs, length_penalty, k):
    """Reference beam ranking: log_prob / len^alpha desc, lexicographic ties."""
    ranked = sorted(pairs, key=lambda t: (-(t[1] / len(t[0]) ** length_penalty), t[0]))
    return ranked[:k]


def node(label, children=(), members=()):
    """A tree.json node, the form ClusterTree takes a hand-built tree in."""
    return {"label": label, "members": list(members), "children": list(children)}


def binary_depth2_tree(dim=8):
    """Hand-built tree with CIDs (1,1,0), (1,2,0), (2,1,0), (2,2,0).

    Leaf (1,1) holds two docs so cluster-local negatives exist; the other
    leaves hold one each. Centroids sit on distinct axes, and the documents
    d11a, d11b, d12a, d21a, d22a on axes 0 to 4.
    """
    root = node(None, [node(1, [node(1, members=["d11a", "d11b"]), node(2, members=["d12a"])]),
                       node(2, [node(1, members=["d21a"]), node(2, members=["d22a"])])])
    centroids = np.stack([axis_vec(dim, axis) for axis in (6, 4, 0, 1, 5, 2, 3)])  # preorder
    cid_by_doc = {
        "d11a": (1, 1, 0), "d11b": (1, 1, 0), "d12a": (1, 2, 0),
        "d21a": (2, 1, 0), "d22a": (2, 2, 0),
    }
    documents = DocumentMatrix(list(cid_by_doc), np.eye(len(cid_by_doc), dim, dtype=np.float32))
    tree = ClusterTree(root, centroids, k=2, c=2, seed=0, dim=dim, documents=documents)
    assert tree.cid_by_doc == cid_by_doc and list(tree.cid_by_doc) == list(cid_by_doc)
    assert [(cid, leaf.centroid.tolist()) for cid, leaf in tree.leaves.items()] == [
        (cid, axis_vec(dim, axis).tolist())
        for cid, axis in [((1, 1, 0), 0), ((1, 2, 0), 1), ((2, 1, 0), 2), ((2, 2, 0), 3)]]
    return tree


class ReferenceLeafIndex:
    """The leaf index as ClusterTree.__post_init__ and place_documents derived
    it when every leaf was a ClusterNode, kept verbatim (less the node checks
    and the internal-node layout, which the tree still makes) as the oracle
    for the tree's `leaves`, `cid_by_doc` and `build_members` views.
    `manifest` is tree.json's root and `centroids` centroids.bin's matrix."""

    def __init__(self, manifest, centroids, documents):
        self.documents = documents
        nodes, paths = [manifest], [()]  # by row: the root is row 0
        visited = []  # rows in preorder
        leaf_of_row = {}  # in preorder
        self.cid_by_doc = {}
        stack = [0]
        while stack:
            row = stack.pop()
            node, path = nodes[row], paths[row]
            visited.append(row)
            children = node["children"]
            if children:
                labels = [child["label"] for child in children]
                stack.extend(range(len(nodes) + len(labels) - 1, len(nodes) - 1, -1))
                nodes += children
                paths += [path + (label,) for label in labels]
                continue
            cid = leaf_of_row[row] = path + (TERMINAL,)
            for doc_id in node["members"]:
                self.cid_by_doc[doc_id] = cid
        centroid_rows = np.asarray(centroids, dtype=np.float32)[np.argsort(visited)]
        # cid_by_doc lists the leaves' members, the leaves in preorder: one
        # array of their rows, and a slice of it for each leaf
        doc_rows = np.array([documents.row[d] for d in self.cid_by_doc], dtype=np.intp)
        self.leaves, end = {}, 0
        for row, cid in leaf_of_row.items():
            members = list(nodes[row]["members"])
            start, end = end, end + len(members)
            self.leaves[cid] = ClusterNode(cid[-2], centroid_rows[row], members=members,
                                           rows=doc_rows[start:end])
        self.build_members = {cid: tuple(leaf.members) for cid, leaf in self.leaves.items()}

    def place(self, ids, cids):
        """place_documents' update of the leaves, after its checks."""
        added = {}
        for doc_id, cid in zip(ids, cids):
            self.leaves[cid].members.append(doc_id)
            self.cid_by_doc[doc_id] = cid
            added.setdefault(cid, []).append(self.documents.row[doc_id])
        for cid, new_rows in added.items():
            leaf = self.leaves[cid]
            leaf.rows = np.concatenate([leaf.rows, np.asarray(new_rows, dtype=np.intp)])


def internal_nodes(node, path=()):
    """(digit path, node) for every node below and including `node` that has
    children, in preorder, read off the node objects alone."""
    if node.children:
        yield path, node
        for child in node.children:
            yield from internal_nodes(child, path + (child.label,))


def reference_assign_new_document(tree, embedding):
    """Greedy descent over the node objects, as assign_new_document walked the
    tree before it followed layout rows. Kept as it was, except that each
    node's child centroids, once a slice view it held, are stacked here.
    """
    node = tree.root
    path = []
    while node.children:
        child_centroids = np.stack([child.centroid for child in node.children])
        node = node.children[int(np.argmax(row_dots(child_centroids, embedding)))]
        path.append(node.label)
    return tuple(path) + (TERMINAL,)


def reference_step_probs(tree, pooled, prefix, valid, temperature):
    """Step distribution of the centroid scorer, one dot product per child.

    Walks the tree from the root and scores each allowed child with its own
    float(pooled @ centroid) in float64, as the scorer did before it stacked
    child centroids into one matrix.
    """
    node = tree.root
    for digit in prefix:
        node = next(child for child in node.children if child.label == digit)
    by_label = {child.label: child for child in node.children}
    digits = sorted(valid)
    pooled = np.asarray(pooled, dtype=np.float64)
    logits = np.empty(len(digits), dtype=np.float64)
    for i, digit in enumerate(digits):
        logits[i] = float(pooled @ by_label[digit].centroid.astype(np.float64)) / temperature
    exps = np.exp(logits - logits.max())
    probs = exps / exps.sum()
    return {digit: float(p) for digit, p in zip(digits, probs)}


def _reference_feature_hash(feature: str, seed: int) -> int:
    key = str(seed).encode("utf-8")[:64]
    digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little")


def reference_hash_embed(text: str, dim: int, seed: int = 0) -> np.ndarray:
    """The hashing embedder as one fresh keyed BLAKE2b and one float64 add per feature.

    This is the embedder before it cached the keyed state and counted buckets
    in ints, kept verbatim (zero-norm fallback included) as an oracle.
    """
    tokens = tokenize(text)
    features = [f"1:{t}" for t in tokens]
    features += [f"2:{a} {b}" for a, b in zip(tokens, tokens[1:])]
    vec = np.zeros(dim, dtype=np.float64)
    for feature in features:
        h = _reference_feature_hash(feature, seed)
        vec[(h >> 1) % dim] += 1.0 if h & 1 else -1.0
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        # Signed buckets cancelled out entirely; fall back to a single
        # deterministic bucket so the output is still unit length.
        vec[_reference_feature_hash("0:" + " ".join(tokens), seed) % dim] = 1.0
        norm = 1.0
    return (vec / norm).astype(np.float32)


class ReferencePrefixTrie(PrefixTrie):
    """PrefixTrie as it was built before its one-pass constructor, kept verbatim as an oracle."""

    def __init__(self, cids):
        cid_set = {tuple(int(d) for d in cid) for cid in cids}
        if not cid_set:
            raise EmptySet("cannot build a trie from zero identifiers")
        for cid in cid_set:
            if len(cid) < 2 or cid[-1] != TERMINAL or any(d < 1 for d in cid[:-1]):
                raise ValueError(
                    f"malformed CID {cid}: digits must be positive with one trailing 0"
                )
        children: dict[Cid, set[int]] = {(): set()}
        for cid in sorted(cid_set):
            for i in range(len(cid)):
                children.setdefault(cid[:i], set()).add(cid[i])
                children.setdefault(cid[: i + 1], set())
        self._children = {prefix: frozenset(digits) for prefix, digits in children.items()}
        self._cids = frozenset(cid_set)


# The index writers and the JSONL reader as they were before they used the C
# JSON encoder and cut their per-line work, kept verbatim as oracles.


def _reference_node_manifest(tree, node, path, blob):
    blob.extend(np.ascontiguousarray(node.centroid, dtype="<f4").tobytes())
    leaf = path and not node.children
    return {
        "label": node.label,
        "members": list(tree.build_members[path + (TERMINAL,)]) if leaf else [],
        "children": [_reference_node_manifest(tree, child, path + (child.label,), blob)
                     for child in node.children],
    }


def reference_save_tree(tree, json_path, bin_path):
    blob = bytearray()
    manifest = {
        "k": tree.k,
        "c": tree.c,
        "seed": tree.seed,
        "dim": tree.dim,
        "root": _reference_node_manifest(tree, tree.root, (), blob),
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    with open(bin_path, "wb") as fh:
        fh.write(bytes(blob))


def reference_save_placements(tree, tree_json_path, path):
    """placements.bin from tree.json and greedy descent alone: for every row of
    the tree's document matrix that tree.json does not list, in row order, the
    little-endian int32 preorder position of the leaf that
    reference_assign_new_document picks for the row's vector. Reads neither
    cid_by_doc nor the tree's leaf order, so it pins save_placements' bytes
    independently."""
    with open(tree_json_path, encoding="utf-8") as fh:
        stack = [((), json.load(fh)["root"])]
    listed, leaf_order = set(), []
    while stack:  # preorder: children in label order
        digits, obj = stack.pop()
        if not obj["children"]:
            leaf_order.append(digits + (TERMINAL,))
            listed.update(obj["members"])
        stack.extend((digits + (child["label"],), child)
                     for child in sorted(obj["children"], key=lambda c: -c["label"]))
    positions = [leaf_order.index(reference_assign_new_document(tree, tree.documents.matrix[row]))
                 for row, doc_id in enumerate(tree.documents.ids) if doc_id not in listed]
    with open(path, "wb") as fh:
        fh.write(np.array(positions, dtype="<i4").tobytes())


def reference_save_embedding_sidecar(ids, matrix, bin_path, manifest_path):
    matrix = np.asarray(matrix, dtype=np.float32)
    with open(bin_path, "wb") as fh:
        fh.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump({"dim": int(matrix.shape[1]), "ids": list(ids)}, fh, sort_keys=True)
        fh.write("\n")


def reference_save_corpus(docs, path):
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps({"id": doc.doc_id, "text": doc.text}, sort_keys=True))
            fh.write("\n")


def reference_read_jsonl(path, keys):
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                raise ParseError(f"{path}: line {lineno}: invalid JSON", line=lineno)
            if not isinstance(obj, dict):
                raise ParseError(f"{path}: line {lineno}: expected a JSON object", line=lineno)
            for key in keys:
                if not isinstance(obj.get(key), str):
                    raise ParseError(f"{path}: line {lineno}: expected a string {key!r}",
                                     line=lineno)
            yield lineno, obj


def reference_retrieve(index, query_text, k):
    """pipeline.retrieve as it was when it built a ResultEntry for every
    scored candidate and sorted them by key, kept verbatim as the oracle for
    the tuple fusion."""
    if k < 1:
        raise ValueError("k must be >= 1")
    cfg = index.config
    q = query_vector(index, query_text).astype(np.float64)
    rep = QueryRepresentation(pooled=q)
    hypotheses = decode_clusters(
        rep, index.scorer, index.trie, cfg.beam_size, cfg.length_penalty, cfg.k_clusters
    )
    entries: list[ResultEntry] = []
    for hyp in hypotheses:
        for scored in rank_within_cluster(q, index.tree, hyp.cid, k):
            entries.append(
                ResultEntry(
                    doc_id=scored.doc_id,
                    s_inter=hyp.s_inter,
                    s_intra=scored.s_intra,
                    s_overall=hyp.s_inter + cfg.beta * scored.s_intra,
                )
            )
    entries.sort(key=lambda e: (-e.s_overall, -e.s_intra, e.doc_id))
    return RetrievalResult(entries=entries[:k])


def reference_write_results(path, queries, results, k):
    """The results.jsonl writer of cmd_retrieve as it was when each entry went
    through dataclasses.asdict and each line through json.dumps, kept verbatim
    as the oracle for the dict-literal writer."""
    with open(path, "w", encoding="utf-8") as fh:
        for query, result in zip(queries, results):
            fh.write(json.dumps({
                "query_id": query.query_id,
                "query_text": query.text,
                "k": k,
                "results": [dataclasses.asdict(entry) for entry in result.entries],
            }, sort_keys=True))
            fh.write("\n")


def reference_distinct_rows(points):
    """kmeans._distinct_rows as it was when it keyed a dict by each row's
    bytes, kept verbatim as the oracle for the sorted grouping."""
    seen: dict[bytes, int] = {}
    groups = np.empty(len(points), dtype=np.int64)
    uniques: list[np.ndarray] = []
    for i, row in enumerate(points):
        key = row.tobytes()
        group = seen.get(key)
        if group is None:
            group = len(uniques)
            seen[key] = group
            uniques.append(row)
        groups[i] = group
    return np.stack(uniques), groups


def reference_nearest(points, centers):
    """k-means assignment as it was when every call summed the squared point
    norms again, kept verbatim as the oracle for the hoisted sum."""
    d2 = (
        (points * points).sum(axis=1)[:, None]
        - 2.0 * points @ centers.T
        + (centers * centers).sum(axis=1)[None, :]
    )
    return d2.argmin(axis=1)


def reference_sample_negatives(pair, tree, batch, n_a, seed, relevant=None):
    """sample_negatives as it was when it skipped every pair equal to `pair`,
    kept verbatim as the oracle for the identity test."""
    if n_a < 0:
        raise ValueError("n_a must be >= 0")
    cid = tree.cid_by_doc.get(pair.positive_doc_id)
    if cid is None:
        raise UnknownDoc(f"positive document {pair.positive_doc_id!r} has no CID")
    exclusion = {pair.positive_doc_id}
    if relevant is not None:
        exclusion.update(relevant)
    eligible = [d for d in tree.leaves[cid].members if d not in exclusion]
    if len(eligible) > n_a:
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(eligible), size=n_a, replace=False)
        intra = [eligible[int(i)] for i in picks]
    else:
        intra = list(eligible)
    inter = []
    for other in batch:
        if other == pair:
            continue
        doc_id = other.positive_doc_id
        if doc_id in exclusion or doc_id in inter:
            continue
        inter.append(doc_id)
    return NegativeSet(intra=intra, inter=inter)


def reference_intra_loss(query, positive, intra_negatives, inter_negatives, gamma):
    """intra_loss as one function, kept verbatim as the oracle for the split
    into a loss core and its document-gradient wrapper."""
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
    return IntraLossResult(
        loss=float(loss),
        grad_query=grad_query,
        grad_positive=(w_pos - 1.0) * q,
        grad_intra=w_a[:, None] * q[None, :],
        grad_inter=w_r[:, None] * q[None, :],
    )


def reference_train_adapter(pairs, tree, doc_embeddings, query_embeddings, gamma=2.0, n_a=4,
                            epochs=5, learning_rate=0.05, seed=0, batch_size=16):
    """train_adapter as it was when every pair added a dense outer product to
    the batch gradient, kept verbatim as the oracle for the sparse update."""
    if not pairs:
        raise ValueError("pairs must be non-empty")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    dim = int(np.asarray(doc_embeddings[pairs[0].positive_doc_id]).shape[0])
    positives = {}
    for pair in pairs:
        positives.setdefault(pair.query_id, set()).add(pair.positive_doc_id)
    weight = np.eye(dim, dtype=np.float64)
    rng = np.random.default_rng(derive_seed(seed, "adapter"))
    epoch_losses = []
    for epoch in range(epochs):
        order = rng.permutation(len(pairs))
        epoch_loss = 0.0
        for start in range(0, len(pairs), batch_size):
            batch_idx = order[start : start + batch_size]
            batch = [pairs[int(i)] for i in batch_idx]
            grad_w = np.zeros_like(weight)
            for i, pair in zip(batch_idx, batch):
                q0 = np.asarray(query_embeddings[pair.query_id], dtype=np.float64)
                negatives = reference_sample_negatives(
                    pair, tree, batch, n_a, seed=derive_seed(seed, "neg", epoch, int(i)),
                    relevant=positives[pair.query_id],
                )
                result = reference_intra_loss(
                    weight @ q0,
                    doc_embeddings[pair.positive_doc_id],
                    [doc_embeddings[d] for d in negatives.intra],
                    [doc_embeddings[d] for d in negatives.inter],
                    gamma,
                )
                if not math.isfinite(result.loss):
                    raise DivergedLoss(f"loss became {result.loss} in epoch {epoch}")
                epoch_loss += result.loss
                grad_w += np.outer(result.grad_query, q0)
            weight -= learning_rate * (grad_w / len(batch))
            if not np.isfinite(weight).all():
                raise DivergedLoss(f"adapter weights became non-finite in epoch {epoch}")
        epoch_losses.append(epoch_loss / len(pairs))
    with np.errstate(over="ignore"):
        final = weight.astype(np.float32)
    if not np.isfinite(final).all():
        raise DivergedLoss("adapter weights overflow float32")
    return LinearAdapter(weight=final), epoch_losses
