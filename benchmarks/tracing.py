"""Spans around calls into each layer's public functions, and the per-layer
metrics derived from them.

The program is not edited: `Tracer.install` replaces each traced function
with a wrapper in every coarsefine module that holds a reference to it, and
`uninstall` puts the originals back. A span is (id, parent id, name, start,
end, query id, count). The query id is the id of the enclosing
`pipeline.retrieve` span, so all spans of one query share it. The count is
taken at the same boundary (features hashed, leaf size ranked, ...). Spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict


def _features(args, kwargs, result):
    tokens = len(args[0].split())
    return 2 * tokens - 1


def _tree_shape(args, kwargs, result):
    sizes = [len(leaf.members) for leaf in result.leaves.values()]
    depth = max(len(cid) - 1 for cid in result.leaves)
    return [len(sizes), sum(1 for s in sizes if s == 1) / len(sizes), depth]


def _logits(args, kwargs, result):
    valid = args[3]
    return 0 if set(valid) <= {0} else len(valid)


def _leaf_size(args, kwargs, result):
    q, tree, cid = args[:3]
    return len(tree.leaves[tuple(cid)].members)


def _entries(args, kwargs, result):
    return len(result.entries)


def _docs(args, kwargs, result):
    return len(args[1])


# (module, attribute or Class.method, span name, count taken at the boundary)
TARGETS = [
    ("corpus", "load_corpus", "corpus.load_corpus", None),
    ("corpus", "load_queries", "corpus.load_queries", None),
    ("embed", "hash_embed", "embed.hash_embed", _features),
    ("kmeans", "kmeans", "kmeans.kmeans", None),
    ("cluster_tree", "build_cluster_tree", "cluster_tree.build_cluster_tree", _tree_shape),
    ("cluster_tree", "assign_new_document", "cluster_tree.assign_new_document", None),
    ("trie", "build_trie", "trie.build_trie", None),
    ("inter", "decode_clusters", "inter.decode_clusters", None),
    ("inter", "CentroidScorer.score_next", "inter.score_next", _logits),
    ("intra", "rank_within_cluster", "intra.rank_within_cluster", _leaf_size),
    ("intra", "train_adapter", "intra.train_adapter", None),
    ("pipeline", "build_index", "pipeline.build_index", None),
    ("pipeline", "query_vector", "pipeline.query_vector", None),
    ("pipeline", "retrieve", "pipeline.retrieve", _entries),
    ("pipeline", "add_documents", "pipeline.add_documents", _docs),
    ("pipeline", "save_index", "pipeline.save_index", None),
    ("pipeline", "load_index", "pipeline.load_index", None),
    ("cli", "cmd_build_index", "cli.build_index", None),
    ("cli", "cmd_add_docs", "cli.add_docs", None),
    ("cli", "cmd_train_adapter", "cli.train_adapter", None),
    ("cli", "cmd_retrieve", "cli.retrieve", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.enabled = True
        self._stack: list[tuple[int, int]] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent, qid = tracer._stack[-1] if tracer._stack else (-1, -1)
            if name == "pipeline.retrieve":
                qid = sid
            tracer._stack.append((sid, qid))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
            value = None if count is None else count(args, kwargs, result)
            tracer.spans.append((sid, parent, name, t0, t1, qid, value))
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "coarsefine" or n.startswith("coarsefine.")]
        for module_name, attr, name, count in TARGETS:
            module = sys.modules[f"coarsefine.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = getattr(cls, method)
                self._undo.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, count))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# name -> unit of every per-layer metric, in report order
LAYER_METRICS = {
    "corpus.load_ms": "ms",
    "embed.doc_us": "us",
    "embed.features_per_doc": "count",
    "kmeans.total_s": "s",
    "kmeans.calls": "count",
    "cluster_tree.build_self_s": "s",
    "cluster_tree.assign_us": "us",
    "cluster_tree.leaves": "count",
    "cluster_tree.singleton_leaf_share": "fraction",
    "cluster_tree.max_depth": "count",
    "trie.build_ms": "ms",
    "inter.decode_ms": "ms",
    "inter.score_next_us": "us",
    "inter.steps_per_query": "count",
    "inter.logits_per_query": "count",
    "intra.rank_ms": "ms",
    "intra.docs_scored_per_query": "count",
    "intra.kept_share": "fraction",
    "intra.train_s": "s",
    "pipeline.query_vector_us": "us",
    "pipeline.fuse_ms": "ms",
    "pipeline.save_s": "s",
    "pipeline.load_s": "s",
    "pipeline.load_reassigned_docs": "count",
    "pipeline.add_us_per_doc": "us",
    "cli.retrieve_self_ms": "ms",
}


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer figures from a run's spans: means per call, query or build."""
    by_name: dict[str, list[tuple]] = defaultdict(list)
    name_of, parent_of = {}, {}
    child_time: dict[int, float] = defaultdict(float)
    children_named: dict[tuple[int, str], int] = defaultdict(int)
    for sid, parent, name, t0, t1, qid, value in spans:
        by_name[name].append((sid, parent, t1 - t0, value))
        name_of[sid] = name
        parent_of[sid] = parent
        child_time[parent] += t1 - t0
        children_named[(parent, name)] += 1

    def durations(name):
        return [d for _, _, d, _ in by_name[name]]

    def mean_duration(name, scale):
        return statistics.fmean(durations(name)) * scale

    def mean_self(name, scale):
        return statistics.fmean(d - child_time[sid] for sid, _, d, _ in by_name[name]) * scale

    def under(sid, names):
        while sid != -1:
            sid = parent_of[sid]
            if name_of.get(sid) in names:
                return True
        return False

    doc_embeds = [(d, v) for sid, _, d, v in by_name["embed.hash_embed"]
                  if under(sid, {"pipeline.build_index", "pipeline.add_documents"})]
    builds = len(by_name["cluster_tree.build_cluster_tree"])
    shapes = [v for _, _, _, v in by_name["cluster_tree.build_cluster_tree"]]
    decodes = len(by_name["inter.decode_clusters"])
    queries = len(by_name["pipeline.retrieve"])
    scored = sum(v for _, _, _, v in by_name["intra.rank_within_cluster"])
    loads = [sid for sid, _, _, _ in by_name["pipeline.load_index"]]
    adds = by_name["pipeline.add_documents"]
    return {
        "corpus.load_ms": mean_duration("corpus.load_corpus", 1e3),
        "embed.doc_us": statistics.fmean(d for d, _ in doc_embeds) * 1e6,
        "embed.features_per_doc": statistics.fmean(v for _, v in doc_embeds),
        "kmeans.total_s": sum(durations("kmeans.kmeans")) / builds,
        "kmeans.calls": len(by_name["kmeans.kmeans"]) / builds,
        "cluster_tree.build_self_s": mean_self("cluster_tree.build_cluster_tree", 1.0),
        "cluster_tree.assign_us": mean_duration("cluster_tree.assign_new_document", 1e6),
        "cluster_tree.leaves": statistics.fmean(s[0] for s in shapes),
        "cluster_tree.singleton_leaf_share": statistics.fmean(s[1] for s in shapes),
        "cluster_tree.max_depth": statistics.fmean(s[2] for s in shapes),
        "trie.build_ms": mean_duration("trie.build_trie", 1e3),
        "inter.decode_ms": mean_duration("inter.decode_clusters", 1e3),
        "inter.score_next_us": mean_duration("inter.score_next", 1e6),
        "inter.steps_per_query": len(by_name["inter.score_next"]) / decodes,
        "inter.logits_per_query": sum(v for _, _, _, v in by_name["inter.score_next"]) / decodes,
        "intra.rank_ms": sum(durations("intra.rank_within_cluster")) / queries * 1e3,
        "intra.docs_scored_per_query": scored / queries,
        "intra.kept_share": sum(v for _, _, _, v in by_name["pipeline.retrieve"]) / scored,
        "intra.train_s": mean_duration("intra.train_adapter", 1.0),
        "pipeline.query_vector_us": mean_duration("pipeline.query_vector", 1e6),
        "pipeline.fuse_ms": mean_self("pipeline.retrieve", 1e3),
        "pipeline.save_s": mean_duration("pipeline.save_index", 1.0),
        "pipeline.load_s": mean_duration("pipeline.load_index", 1.0),
        "pipeline.load_reassigned_docs": statistics.fmean(
            children_named[(sid, "cluster_tree.assign_new_document")] for sid in loads),
        "pipeline.add_us_per_doc": sum(d for _, _, d, _ in adds) / sum(v for _, _, _, v in adds) * 1e6,
        "cli.retrieve_self_ms": mean_self("cli.retrieve", 1e3),
    }
