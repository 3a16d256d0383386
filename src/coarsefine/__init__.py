"""Coarse-to-fine document retrieval.

Documents are organized into a hierarchical-k-means identifier tree. A query
first decodes the most promising leaf clusters with a trie-constrained beam
search (coarse stage), then ranks the members of those clusters by dense
inner-product similarity (fine stage); the two scores are fused additively.
"""

from .cluster_tree import (
    ClusterNode,
    ClusterTree,
    assign_new_document,
    build_cluster_tree,
    compute_c,
    mean_prefix_overlap,
    prefix_overlap_pair,
)
from .corpus import (
    Document,
    QueryRecord,
    TrainingPair,
    load_corpus,
    load_queries,
    save_corpus,
    tokenize,
)
from .embed import DocumentMatrix, HashingEmbedder, QueryRepresentation, hash_embed
from .errors import RetrievalError
from .evaluation import acc_at_k, evaluate_results, index_diagnostics, position_error_rate, recall_at_k
from .inter import CentroidScorer, ClusterHypothesis, StepScorer, decode_clusters, inter_loss
from .intra import (
    IntraScore,
    LinearAdapter,
    NegativeSet,
    intra_loss,
    intra_score,
    rank_within_cluster,
    sample_negatives,
    train_adapter,
)
from .kmeans import derive_seed, kmeans
from .pipeline import (
    ResultEntry,
    RetrievalConfig,
    RetrievalIndex,
    RetrievalResult,
    add_documents,
    build_index,
    load_index,
    retrieve,
    save_index,
)
from .trie import PrefixTrie, build_trie

__version__ = "0.1.0"

__all__ = [
    "CentroidScorer",
    "ClusterHypothesis",
    "ClusterNode",
    "ClusterTree",
    "Document",
    "DocumentMatrix",
    "HashingEmbedder",
    "IntraScore",
    "LinearAdapter",
    "NegativeSet",
    "PrefixTrie",
    "QueryRecord",
    "QueryRepresentation",
    "ResultEntry",
    "RetrievalConfig",
    "RetrievalError",
    "RetrievalIndex",
    "RetrievalResult",
    "StepScorer",
    "TrainingPair",
    "acc_at_k",
    "add_documents",
    "assign_new_document",
    "build_cluster_tree",
    "build_index",
    "build_trie",
    "compute_c",
    "decode_clusters",
    "derive_seed",
    "evaluate_results",
    "hash_embed",
    "index_diagnostics",
    "inter_loss",
    "intra_loss",
    "intra_score",
    "kmeans",
    "load_corpus",
    "load_index",
    "load_queries",
    "mean_prefix_overlap",
    "position_error_rate",
    "prefix_overlap_pair",
    "rank_within_cluster",
    "recall_at_k",
    "retrieve",
    "sample_negatives",
    "save_corpus",
    "save_index",
    "tokenize",
    "train_adapter",
]
