"""Correctness checks, each computed apart from the program.

The index directory is read here with plain json and numpy, and the
embedder, the greedy leaf descent, the trie-constrained beam decoder and
the fused ranking are written again from their definitions. Every check
returns a list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

TERMINAL = 0
SCORE_TOL = 1e-12  # s_intra and s_overall are recomputed with the same float64 arithmetic
DECODE_TOL = 1e-9  # s_inter is a product of softmax terms; BLAS may differ in the last ulp
TREE_FILES = ["tree.json", "centroids.bin"]


def derive_seed(seed: int, *parts: object) -> int:
    h = hashlib.blake2b(digest_size=8)
    h.update(str(seed).encode("utf-8"))
    for part in parts:
        h.update(b"/")
        h.update(str(part).encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


def _feature_hash(feature: str, key: bytes) -> int:
    digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little")


def hash_embed(text: str, dim: int, seed: int) -> np.ndarray:
    """Signed unigram+bigram feature hashing, unit L2 norm, float32."""
    tokens = text.lower().split()
    key = str(seed).encode("utf-8")[:64]
    features = [f"1:{t}" for t in tokens] + [f"2:{a} {b}" for a, b in zip(tokens, tokens[1:])]
    vec = np.zeros(dim, dtype=np.float64)
    for feature in features:
        h = _feature_hash(feature, key)
        vec[(h >> 1) % dim] += 1.0 if h & 1 else -1.0
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        vec[_feature_hash("0:" + " ".join(tokens), key) % dim] = 1.0
        norm = 1.0
    return (vec / norm).astype(np.float32)


def file_digests(directory: str, *names: str) -> dict[str, str]:
    """sha256 of the named files, or of every file in the directory."""
    names = names or sorted(os.listdir(directory))
    digests = {}
    for name in names:
        with open(os.path.join(directory, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


@dataclass
class Node:
    label: int | None
    centroid: np.ndarray  # float64
    children: list["Node"] = field(default_factory=list)
    members: list[str] = field(default_factory=list)
    child_matrix: np.ndarray | None = None  # stacked float64 child centroids


class IndexFiles:
    """An index directory as read by the benchmark itself."""

    def __init__(self, directory: str):
        self.directory = directory
        with open(os.path.join(directory, "config.json"), encoding="utf-8") as fh:
            self.config = json.load(fh)
        with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        self.dim = int(manifest["dim"])
        self.ids = list(manifest["ids"])
        self.row = {doc_id: i for i, doc_id in enumerate(self.ids)}
        self.matrix = np.fromfile(os.path.join(directory, "embeddings.bin"), dtype="<f4").reshape(
            len(self.ids), self.dim)
        self.texts = {}
        with open(os.path.join(directory, "corpus.jsonl"), encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                self.texts[obj["id"]] = obj["text"]
        with open(os.path.join(directory, "tree.json"), encoding="utf-8") as fh:
            tree = json.load(fh)
        centroids = np.fromfile(os.path.join(directory, "centroids.bin"), dtype="<f4").reshape(
            -1, self.dim).astype(np.float64)
        self.build_leaves: dict[tuple, Node] = {}
        cursor = 0

        def rebuild(obj: dict, path: tuple) -> Node:
            nonlocal cursor
            node = Node(obj["label"], centroids[cursor])
            cursor += 1
            node.children = [rebuild(c, path + (c["label"],)) for c in obj["children"]]
            if node.children:
                node.child_matrix = np.stack([c.centroid for c in node.children])
            elif node.label is not None:
                node.members = list(obj["members"])
                self.build_leaves[path + (TERMINAL,)] = node
            return node

        self.root = rebuild(tree["root"], ())
        self.tree_cursor_ok = cursor == len(centroids)
        adapter = os.path.join(directory, "adapter.bin")
        self.adapter = None
        if os.path.exists(adapter):
            self.adapter = np.fromfile(adapter, dtype="<f4").reshape(self.dim, self.dim)

    def query_vector(self, text: str) -> np.ndarray:
        q = hash_embed(text, self.dim, derive_seed(self.config["seed"], "embed"))
        if self.adapter is not None:
            q = (self.adapter.astype(np.float64) @ q.astype(np.float64)).astype(np.float32)
        return q

    def descend(self, embedding: np.ndarray) -> tuple:
        """Greedy descent: highest inner product per level, ties to the smaller label."""
        emb = np.asarray(embedding, dtype=np.float64)
        node, path = self.root, []
        while node.children:
            scores = [float(emb @ child.centroid) for child in node.children]
            node = node.children[int(np.argmax(scores))]
            path.append(node.label)
        return tuple(path) + (TERMINAL,)

    def leaf_of(self) -> tuple[dict[str, tuple], list[str]]:
        """CID of every document: build members from tree.json, the rest by descent.

        Also returns problems: documents listed twice, or listed but absent."""
        problems = []
        cid_of: dict[str, tuple] = {}
        for cid, leaf in self.build_leaves.items():
            for doc_id in leaf.members:
                if doc_id in cid_of:
                    problems.append(f"{doc_id} is in leaves {cid_of[doc_id]} and {cid}")
                if doc_id not in self.row:
                    problems.append(f"leaf {cid} lists {doc_id}, which has no embedding")
                cid_of[doc_id] = cid
        for doc_id in self.ids:
            if doc_id not in cid_of:
                cid_of[doc_id] = self.descend(self.matrix[self.row[doc_id]])
        return cid_of, problems

    def decode(self, q: np.ndarray) -> list[tuple[tuple, float]]:
        """Reference trie-constrained beam search; (cid, s_inter) best first."""
        beam = int(self.config["beam_size"])
        alpha = float(self.config["length_penalty"])
        k = int(self.config["k_clusters"])
        temperature = float(self.config["temperature"])
        pooled = np.asarray(q, dtype=np.float64)

        def rank_key(item):
            return (-(item[1] / len(item[0]) ** alpha), item[0])

        frontier = [((), 0.0, self.root)]
        completed = []
        while frontier:
            candidates = []
            for prefix, log_prob, node in frontier:
                if not node.children:
                    completed.append((prefix + (TERMINAL,), log_prob))
                    continue
                logits = (node.child_matrix @ pooled) / temperature
                exps = np.exp(logits - logits.max())
                probs = exps / exps.sum()
                for child, p in zip(node.children, probs):
                    if p > 0.0:
                        candidates.append((prefix + (child.label,), log_prob + math.log(float(p)), child))
            candidates.sort(key=rank_key)
            frontier = candidates[:beam]
        completed.sort(key=rank_key)
        return [(cid, math.exp(lp)) for cid, lp in completed[:k]]

    def fused_ranking(self, q: np.ndarray, hypotheses, members: dict[tuple, list[str]], k: int):
        """Exhaustive fused top-k over every member of the decoded clusters."""
        beta = float(self.config["beta"])
        q64 = np.asarray(q, dtype=np.float64)
        rows = []
        for cid, s_inter in hypotheses:
            for doc_id in members.get(cid, []):
                d = self.matrix[self.row[doc_id]].astype(np.float64)
                s_intra = sigmoid(float(q64 @ d))
                rows.append((doc_id, s_inter, s_intra, s_inter + beta * s_intra))
        rows.sort(key=lambda r: (-r[3], -r[2], r[0]))
        return rows[:k]


def check_entries(files: IndexFiles, q: np.ndarray, entries, k: int, label: str) -> list[str]:
    """Score identities, order and uniqueness of one result list.

    entries: objects or dicts with doc_id, s_inter, s_intra, s_overall."""
    problems = []
    rows = [_as_row(e) for e in entries]
    beta = float(files.config["beta"])
    q64 = np.asarray(q, dtype=np.float64)
    if len(rows) > k:
        problems.append(f"{label}: {len(rows)} entries for k={k}")
    if len({r[0] for r in rows}) != len(rows):
        problems.append(f"{label}: duplicate documents")
    keys = [(-r[3], -r[2], r[0]) for r in rows]
    if keys != sorted(keys):
        problems.append(f"{label}: entries not ordered by (-s_overall, -s_intra, doc_id)")
    for doc_id, s_inter, s_intra, s_overall in rows:
        if doc_id not in files.row:
            problems.append(f"{label}: unknown document {doc_id}")
            continue
        expected = sigmoid(float(q64 @ files.matrix[files.row[doc_id]].astype(np.float64)))
        if abs(s_intra - expected) > SCORE_TOL:
            problems.append(f"{label}: {doc_id} s_intra {s_intra!r} != sigmoid(q.d) {expected!r}")
        if abs(s_overall - (s_inter + beta * s_intra)) > SCORE_TOL:
            problems.append(f"{label}: {doc_id} s_overall {s_overall!r} != s_inter + beta*s_intra")
    return problems


def check_against_reference(files: IndexFiles, q: np.ndarray, program_hypotheses, entries,
                            members: dict[tuple, list[str]], k: int, label: str) -> list[str]:
    """Program decode and ranking against the reference decoder and exhaustive fusion."""
    problems = []
    reference = files.decode(q)
    got = [(tuple(h.cid), h.s_inter) for h in program_hypotheses]
    if [c for c, _ in got] != [c for c, _ in reference]:
        problems.append(f"{label}: decoded CIDs differ from the reference decoder")
    elif any(abs(a - b) > DECODE_TOL for (_, a), (_, b) in zip(got, reference)):
        problems.append(f"{label}: s_inter differs from the reference decoder")
    expected = files.fused_ranking(q, reference, members, k)
    rows = [_as_row(e) for e in entries]
    if [r[0] for r in rows] != [r[0] for r in expected]:
        problems.append(f"{label}: top-{k} documents differ from exhaustive fused ranking")
    elif any(abs(a - b) > DECODE_TOL for r, x in zip(rows, expected) for a, b in zip(r[1:], x[1:])):
        problems.append(f"{label}: scores differ from exhaustive fused ranking")
    return problems


def _as_row(entry) -> tuple[str, float, float, float]:
    if isinstance(entry, dict):
        return (entry["doc_id"], entry["s_inter"], entry["s_intra"], entry["s_overall"])
    return (entry.doc_id, entry.s_inter, entry.s_intra, entry.s_overall)


def check_tree(files: IndexFiles, index, added_ids: set[str]) -> tuple[list[str], dict]:
    """Leaves partition the corpus, the trie holds exactly the leaf CIDs, and
    added documents sit on the leaf of an independent greedy descent.

    Returns the problems and the reference leaf membership."""
    problems = []
    if not files.tree_cursor_ok:
        problems.append("centroids.bin does not hold one centroid per tree node")
    cid_of, listing = files.leaf_of()
    problems += listing
    if set(cid_of) != set(files.texts):
        problems.append("leaf members do not cover exactly the corpus")
    if any(doc_id in added_ids for leaf in files.build_leaves.values() for doc_id in leaf.members):
        problems.append("an added document was written into the build membership")
    program = {doc_id: tuple(cid) for doc_id, cid in index.tree.cid_by_doc.items()}
    if program != cid_of:
        wrong = sorted(d for d in cid_of if program.get(d) != cid_of[d])[:3]
        problems.append(f"loaded CIDs differ from the reference leaf assignment, e.g. {wrong}")
    members: dict[tuple, list[str]] = {}
    for doc_id, cid in cid_of.items():
        members.setdefault(cid, []).append(doc_id)
    program_members = {tuple(cid): sorted(leaf.members) for cid, leaf in index.tree.leaves.items()}
    if program_members != {cid: sorted(m) for cid, m in members.items()}:
        problems.append("loaded leaf member lists differ from the reference partition")
    trie_cids = {tuple(c) for c in index.trie.cids()}
    if trie_cids != set(files.build_leaves):
        problems.append("trie CIDs are not exactly the leaf CIDs")
    return problems, members


def check_losses(train_stdout: str, epochs: int) -> list[str]:
    losses = []
    for line in train_stdout.splitlines():
        if line.startswith("epoch "):
            losses.append(float(line.rsplit(" ", 1)[1]))
    if len(losses) != epochs:
        return [f"train-adapter printed {len(losses)} epoch losses, expected {epochs}"]
    if not all(math.isfinite(x) for x in losses):
        return [f"adapter losses are not finite: {losses}"]
    return []


def read_results(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_round(rnd, files, epochs: int, sample: int, k: int) -> tuple[list[str], float]:
    """Every check of one round; returns the problems and recall@k.

    rnd is a workloads.Round whose operations all succeeded; files the
    workload's InputFiles."""
    from coarsefine.embed import QueryRepresentation
    from coarsefine.evaluation import recall_at_k
    from coarsefine.inter import decode_clusters
    from coarsefine.pipeline import query_vector

    index = rnd.index
    ref = IndexFiles(rnd.index_dir)
    added = set(ref.ids) - {doc_id for leaf in ref.build_leaves.values() for doc_id in leaf.members}
    problems, members = check_tree(ref, index, added)
    if len(added) != files.n_added:
        problems.append(f"{len(added)} documents outside the build membership, "
                        f"expected the {files.n_added} added")
    if file_digests(rnd.index_dir, *TREE_FILES) != rnd.build_tree_digests:
        problems.append("tree.json or centroids.bin changed after build-index")
    problems += check_losses(rnd.train_stdout, epochs)

    records = read_results(rnd.results_path)
    if [r["query_id"] for r in records] != [qid for qid, _ in files.query_texts]:
        problems.append("retrieve output does not list the queries in input order")
    ranked = {}
    cfg = index.config
    for i, record in enumerate(records):
        qid, text = record["query_id"], record["query_text"]
        q = ref.query_vector(text)
        problems += check_entries(ref, q, record["results"], k, f"cli {qid}")
        library = rnd.library_results.get(qid)
        if library is not None and [_as_row(e) for e in library] != [
                _as_row(e) for e in record["results"]]:
            problems.append(f"library retrieve of {qid} differs from the CLI output")
        ranked[qid] = [e["doc_id"] for e in record["results"]]
        if i < sample:
            program_q = query_vector(index, text)
            if program_q.tobytes() != q.tobytes():
                problems.append(f"{qid}: program query vector differs from the reference embedder")
            hypotheses = decode_clusters(QueryRepresentation(pooled=program_q), index.scorer,
                                         index.trie, cfg.beam_size, cfg.length_penalty,
                                         cfg.k_clusters)
            problems += check_against_reference(ref, q, hypotheses, record["results"],
                                                members, k, f"decode {qid}")
            source = files.sources[qid]
            expected = hash_embed(ref.texts[source], ref.dim, derive_seed(ref.config["seed"], "embed"))
            if ref.matrix[ref.row[source]].tobytes() != expected.tobytes():
                problems.append(f"stored embedding of {source} differs from the reference embedder")
    hits = [files.sources[qid] in docs[:k] for qid, docs in ranked.items()]
    recall = sum(hits) / len(hits)
    program_recall = recall_at_k(ranked, {qid: frozenset([files.sources[qid]]) for qid in ranked}, k)
    if abs(program_recall - recall) > 1e-12:
        problems.append(f"evaluation.recall_at_k gives {program_recall}, the benchmark {recall}")
    return problems, recall
