"""Retrieval metrics and index diagnostics."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Collection, Mapping, Sequence

from .cluster_tree import Cid, mean_prefix_overlap
from .errors import MissingQrel

Qrels = Mapping[str, frozenset[str] | set[str]]


def recall_at_k(results: Mapping[str, Sequence[str]], qrels: Qrels, k: int) -> float:
    """Mean over queries of (relevant docs in the top k) / (relevant docs).

    Every query in results must have judgments (MissingQrel otherwise).
    Queries with empty result lists simply score zero.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not results:
        raise ValueError("results must contain at least one query")
    total = 0.0
    for qid, ranked in results.items():
        if qid not in qrels:
            raise MissingQrel(f"query {qid!r} has no relevance judgments")
        relevant = qrels[qid]
        if not relevant:
            raise ValueError(f"query {qid!r} has an empty relevance set")
        hits = len(relevant & set(ranked[:k]))
        total += hits / len(relevant)
    return total / len(results)


def acc_at_k(results: Mapping[str, Sequence[str]], qrels: Qrels, k: int) -> float:
    """Fraction of queries with at least one relevant document in the top k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not results:
        raise ValueError("results must contain at least one query")
    hits = 0
    for qid, ranked in results.items():
        if qid not in qrels:
            raise MissingQrel(f"query {qid!r} has no relevance judgments")
        if qrels[qid] & set(ranked[:k]):
            hits += 1
    return hits / len(results)


def position_error_rate(
    predicted: Mapping[str, Sequence[Cid]],
    relevant_cids: Mapping[str, set[Cid] | frozenset[Cid]],
    position: int,
) -> float | None:
    """Fraction of predictions whose digit at `position` first leaves the
    prefixes of the query's relevant identifiers.

    Pooled over all predictions of all queries: a prediction contributes to
    the denominator when its first position-1 digits are a prefix of some
    relevant CID, and to the numerator when adding its digit at `position`
    breaks that. Predictions shorter than `position` are skipped. Returns
    None when nothing contributes to the denominator.
    """
    if position < 1:
        raise ValueError("position must be >= 1")
    numerator = 0
    denominator = 0
    for qid, predictions in predicted.items():
        relevant = relevant_cids.get(qid, frozenset())
        prefixes = {tuple(cid[:i]) for cid in relevant for i in range(len(cid) + 1)}
        for pred in predictions:
            pred = tuple(pred)
            if len(pred) < position:
                continue
            if pred[: position - 1] in prefixes:
                denominator += 1
                if pred[:position] not in prefixes:
                    numerator += 1
    if denominator == 0:
        return None
    return numerator / denominator


@dataclass
class EvalReport:
    """Metric values plus optional structural diagnostics, JSON-serializable."""

    metrics: dict[str, float] = field(default_factory=dict)
    position_error_rates: dict[int, float | None] = field(default_factory=dict)
    leaf_count: int | None = None
    cid_length_histogram: dict[int, int] | None = None
    mean_prefix_overlap: float | None = None

    def to_json(self) -> str:
        payload: dict = {"metrics": self.metrics}
        if self.position_error_rates:
            payload["position_error_rates"] = {
                str(pos): rate for pos, rate in self.position_error_rates.items()
            }
        if self.leaf_count is not None:
            payload["leaf_count"] = self.leaf_count
        if self.cid_length_histogram is not None:
            payload["cid_length_histogram"] = {
                str(length): count for length, count in self.cid_length_histogram.items()
            }
        if self.mean_prefix_overlap is not None:
            payload["mean_prefix_overlap"] = self.mean_prefix_overlap
        return json.dumps(payload, sort_keys=True, indent=2)

    def format_table(self) -> str:
        rows: list[tuple[str, str]] = []
        for name in sorted(self.metrics, key=_metric_sort_key):
            rows.append((name, f"{self.metrics[name]:.4f}"))
        for pos in sorted(self.position_error_rates):
            rate = self.position_error_rates[pos]
            rows.append(
                (f"err@pos{pos}", "absent" if rate is None else f"{rate:.4f}")
            )
        if self.leaf_count is not None:
            rows.append(("leaf_count", str(self.leaf_count)))
        if self.cid_length_histogram is not None:
            for length in sorted(self.cid_length_histogram):
                rows.append(
                    (f"cid_len_{length}", str(self.cid_length_histogram[length]))
                )
        if self.mean_prefix_overlap is not None:
            rows.append(("mean_prefix_overlap", f"{self.mean_prefix_overlap:.4f}"))
        if not rows:
            return "(empty report)"
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)


def _metric_sort_key(name: str) -> tuple[str, int]:
    metric, _, k = name.partition("@")
    try:
        return (metric, int(k))
    except ValueError:
        return (metric, 0)


def evaluate_results(
    results: Mapping[str, Sequence[str]], qrels: Qrels, ks: Sequence[int]
) -> EvalReport:
    report = EvalReport()
    for k in ks:
        report.metrics[f"R@{k}"] = recall_at_k(results, qrels, k)
        report.metrics[f"Acc@{k}"] = acc_at_k(results, qrels, k)
    return report


def index_diagnostics(leaf_cids: Collection[Cid], cid_by_doc: Mapping[str, Cid],
                      qrels: Qrels | None = None) -> EvalReport:
    """Structural summary of an identifier tree, given its leaf CIDs.

    Reports the number of leaves, the histogram of CID lengths, and (when
    judgments are supplied) the mean prefix overlap of relevant documents,
    whose CIDs `cid_by_doc` must hold.
    """
    report = EvalReport()
    report.leaf_count = len(leaf_cids)
    histogram: dict[int, int] = {}
    for cid in leaf_cids:
        histogram[len(cid)] = histogram.get(len(cid), 0) + 1
    report.cid_length_histogram = histogram
    if qrels:
        report.mean_prefix_overlap = mean_prefix_overlap(qrels, cid_by_doc)
    return report
