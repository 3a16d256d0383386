"""Command-line interface.

Subcommands: build-index, retrieve, eval, add-docs, train-adapter, inspect.
Every engine parameter can come from (in rising precedence) built-in
defaults, a flat JSON config file (--config), or a command-line flag. All
randomness flows from the single `seed` parameter. Exit codes: 0 on success,
1 for domain errors, 2 for I/O and usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from collections import Counter

from .corpus import TrainingPair, _has_tokens, load_corpus, load_queries, qrels_mapping, read_jsonl
from .embed import DocumentMatrix, load_embedding_sidecar
from .errors import DuplicateId, ParseError, RetrievalError
from .evaluation import EvalReport, evaluate_results, index_diagnostics, position_error_rate
from .intra import train_adapter
from .kmeans import derive_seed
from .pipeline import (
    RetrievalConfig,
    add_documents,
    build_index,
    load_index,
    read_config_file,
    retrieve,
    save_documents,
    save_index,
    save_settings,
)

CONFIG_FLAGS = [
    ("beta", float, "fusion weight on the dense within-cluster score"),
    ("gamma", float, "weight on same-cluster negatives in the training loss"),
    ("beam_size", int, "beam width for identifier decoding"),
    ("length_penalty", float, "exponent of the hypothesis length penalty"),
    ("k_clusters", int, "number of clusters recalled per query"),
    ("expected_clusters", int,
     "sets the recursion threshold c = ceil(N / expected_clusters), at least 2; "
     "it does not bound the leaf count"),
    ("branching", int, "k-means branching factor of the identifier tree"),
    ("temperature", float, "softmax temperature of the centroid step scorer"),
    ("dim", int, "embedding dimension"),
    ("seed", int, "master seed; all per-stage seeds derive from it"),
    ("n_a", int, "same-cluster negatives per training pair"),
]


def _int_at_least(low: int):
    """An argparse type: an int >= low, else a usage error (exit 2)."""
    def parse(value: str) -> int:
        number = int(value)
        if number < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {number}")
        return number
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _rate(value: str) -> float:
    """An argparse type: a finite float >= 0, else a usage error (exit 2)."""
    number = float(value)
    if not (math.isfinite(number) and number >= 0.0):
        raise argparse.ArgumentTypeError(f"must be >= 0 and finite, got {number}")
    return number


_rate.__name__ = "float"  # argparse names the type in "invalid float value"


def _add_config_flags(parser: argparse.ArgumentParser, names: list[str] | None = None) -> None:
    parser.add_argument("--config", help="flat JSON config file")
    for name, typ, help_text in CONFIG_FLAGS:
        if names is None or name in names:
            parser.add_argument(f"--{name.replace('_', '-')}", type=typ, default=None,
                                help=help_text, dest=name)


def _resolve_config(args: argparse.Namespace, base: RetrievalConfig | None = None) -> RetrievalConfig:
    """Defaults (or the index's stored config), then config file, then flags.

    A config file overrides only the keys it contains; the merged values are
    checked together, and an error names the file when one was given. On an
    existing index (`base`), a key the subcommand takes no flag for is fixed
    by the index: the file may repeat its stored value, which is kept, so a
    build-time file can be reused, but any other value is a ParseError.
    """
    values = dataclasses.asdict(base if base is not None else RetrievalConfig())
    config_file = getattr(args, "config", None)
    if config_file:
        for key, value in read_config_file(config_file).items():
            if base is None or hasattr(args, key):
                values[key] = value
            elif value != values[key] or type(value) is bool:
                raise ParseError(f"{config_file}: {key} is fixed by the index at "
                                 f"{values[key]!r}, got {value!r}")
    for name, _, _ in CONFIG_FLAGS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    try:
        return RetrievalConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{config_file or 'invalid configuration'}: {exc}")


def _load_sidecar_if_given(args: argparse.Namespace):
    bin_path = getattr(args, "doc_embeddings_bin", None)
    manifest = getattr(args, "doc_embeddings_manifest", None)
    if (bin_path is None) != (manifest is None):
        raise ParseError("--doc-embeddings-bin and --doc-embeddings-manifest go together")
    if bin_path is None:
        return None
    return DocumentMatrix(*load_embedding_sidecar(bin_path, manifest))


def cmd_build_index(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    docs = load_corpus(args.corpus)
    doc_embeddings = _load_sidecar_if_given(args)
    index = build_index(docs, config, doc_embeddings=doc_embeddings)
    report = None
    if args.qrels:  # checked against the index before any file is written
        qrels = qrels_mapping(load_queries(args.qrels, require_relevant=True))
        report = index_diagnostics(index.tree.leaves, index.tree.cid_by_doc, qrels)
    save_index(index, args.out)
    print(f"indexed {len(index.embeddings)} documents into {index.tree.leaf_count} leaf clusters")
    if report is not None:
        print(report.format_table())
    return 0


def cmd_retrieve(args: argparse.Namespace) -> int:
    index = load_index(args.index)
    index.config = _resolve_config(args, base=index.config)
    index.scorer = dataclasses.replace(index.scorer, temperature=index.config.temperature)
    queries = load_queries(args.queries)
    for query in queries:
        if not _has_tokens(query.text):
            raise ParseError(f"{args.queries}: query {query.query_id!r} has no tokens")
    # One encoder for every line. Each entry's dict holds exactly the fields
    # of ResultEntry, so a line has the bytes dataclasses.asdict would give.
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(args.out, "w", encoding="utf-8") as fh:
        for query in queries:
            result = retrieve(index, query.text, args.k)
            fh.write(encode({
                "query_id": query.query_id,
                "query_text": query.text,
                "k": args.k,
                "results": [
                    {"doc_id": e.doc_id, "s_inter": e.s_inter, "s_intra": e.s_intra,
                     "s_overall": e.s_overall}
                    for e in result.entries
                ],
            }))
            fh.write("\n")
    print(f"retrieved top-{args.k} for {len(queries)} queries -> {args.out}")
    return 0


def _load_results(path: str) -> dict[str, list[str]]:
    ranked: dict[str, list[str]] = {}
    for lineno, obj in read_jsonl(path, ("query_id",)):
        results = obj.get("results")
        if not isinstance(results, list) or not all(
            isinstance(entry, dict) and isinstance(entry.get("doc_id"), str) for entry in results
        ):
            raise ParseError(f"{path}: line {lineno}: 'results' must be a list of objects "
                             "with a string 'doc_id'", line=lineno)
        if obj["query_id"] in ranked:
            raise DuplicateId(f"duplicate query id {obj['query_id']!r}")
        ranked[obj["query_id"]] = [entry["doc_id"] for entry in results]
    return ranked


def cmd_eval(args: argparse.Namespace) -> int:
    results = _load_results(args.results)
    qrels = qrels_mapping(load_queries(args.qrels, require_relevant=True))
    report = evaluate_results(results, qrels, args.k)
    if args.index:
        index = load_index(args.index)
        scored_qrels = {qid: docs for qid, docs in qrels.items() if qid in results}
        diag = index_diagnostics(index.tree.leaves, index.tree.cid_by_doc, scored_qrels)
        report.leaf_count = diag.leaf_count
        report.cid_length_histogram = diag.cid_length_histogram
        report.mean_prefix_overlap = diag.mean_prefix_overlap
        predicted = {
            qid: _unique_cids(docs, index.tree.cid_by_doc) for qid, docs in results.items()
        }
        relevant_cids = {
            qid: {index.tree.cid_by_doc[d] for d in docs if d in index.tree.cid_by_doc}
            for qid, docs in qrels.items()
        }
        max_len = max((len(c) for cids in predicted.values() for c in cids), default=0)
        for pos in range(1, max_len + 1):
            report.position_error_rates[pos] = position_error_rate(predicted, relevant_cids, pos)
    print(report.format_table())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    return 0


def _unique_cids(doc_ids: list[str], cid_by_doc: dict) -> list:
    out = []
    for doc_id in doc_ids:
        cid = cid_by_doc.get(doc_id)
        if cid is not None and cid not in out:
            out.append(cid)
    return out


def cmd_add_docs(args: argparse.Namespace) -> int:
    index = load_index(args.index)
    docs = load_corpus(args.corpus)
    add_documents(index, docs)
    save_documents(index, args.index)
    print(f"added {len(docs)} documents")
    tree = index.tree
    added = Counter(tree.leaf_of(doc.doc_id) for doc in docs)
    for cid, count in sorted((tree.leaf_cids[p], n) for p, n in added.items()):
        print(f"  {'.'.join(map(str, cid))}: +{count}")
    return 0


def _load_pairs(path: str) -> list[TrainingPair]:
    """Training pairs with texts that have tokens; a query id may recur with more
    positives, but not with another text."""
    pairs: list[TrainingPair] = []
    text_of: dict[str, str] = {}
    for lineno, obj in read_jsonl(path, ("query_id", "query_text", "positive_doc_id")):
        pair = TrainingPair(obj["query_id"], obj["query_text"], obj["positive_doc_id"])
        if not _has_tokens(pair.query_text):
            raise ParseError(f"{path}: line {lineno}: query {pair.query_id!r} has no tokens",
                             line=lineno)
        if text_of.setdefault(pair.query_id, pair.query_text) != pair.query_text:
            raise ParseError(f"{path}: line {lineno}: query {pair.query_id!r} has a different "
                             "query_text than on an earlier line", line=lineno)
        pairs.append(pair)
    return pairs


def cmd_train_adapter(args: argparse.Namespace) -> int:
    index = load_index(args.index)
    index.config = _resolve_config(args, base=index.config)
    pairs = _load_pairs(args.pairs)
    text_of = {p.query_id: p.query_text for p in pairs}
    query_embeddings = {qid: index.embedder.embed(text) for qid, text in text_of.items()}
    adapter, losses = train_adapter(
        pairs,
        index.tree,
        query_embeddings,
        gamma=index.config.gamma,
        n_a=index.config.n_a,
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        seed=derive_seed(index.config.seed, "train"),
        batch_size=args.batch_size,
    )
    index.adapter = adapter
    save_settings(index, args.index)
    for epoch, loss in enumerate(losses, start=1):
        print(f"epoch {epoch}: loss {loss:.6f}")
    print(f"adapter trained on {len(pairs)} pairs -> {args.index}")
    return 0


def _leaf_shape(leaves) -> str:
    """How many leaves hold one member, the largest leaf, and a histogram of
    leaf sizes in power-of-two bins (1, 2-3, 4-7, ...; 0 for an empty leaf)."""
    sizes = [len(leaf.members) for leaf in leaves.values()]
    one = sizes.count(1)
    rows = [("one_member_leaves", f"{one} of {len(sizes)} ({one / len(sizes):.4f})"),
            ("largest_leaf", str(max(sizes)))]
    for bits, count in sorted(Counter(size.bit_length() for size in sizes).items()):
        low, high = (1 << bits) >> 1, (1 << bits) - 1
        rows.append((f"leaf_size_{low}" + (f"-{high}" if high > low else ""), str(count)))
    return "\n".join(f"{name.ljust(19)} {value}" for name, value in rows)


def cmd_inspect(args: argparse.Namespace) -> int:
    index = load_index(args.index)
    qrels = None
    if args.qrels:
        qrels = qrels_mapping(load_queries(args.qrels, require_relevant=True))
    report = index_diagnostics(index.tree.leaves, index.tree.cid_by_doc, qrels)
    print(f"documents           {len(index.embeddings)}")
    print(f"adapter             {'yes' if index.adapter is not None else 'no'}")
    print(report.format_table())
    print(_leaf_shape(index.tree.leaves))
    print("config:")
    for key, value in sorted(dataclasses.asdict(index.config).items()):
        print(f"  {key} = {value}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarsefine",
        description="Coarse-to-fine document retrieval over a cluster-identifier tree.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-index", help="embed a corpus and build an index directory")
    p.add_argument("--corpus", required=True, help="JSONL corpus of {id, text}")
    p.add_argument("--out", required=True, help="index directory to create")
    p.add_argument("--qrels", help="optional qrels JSONL; prints overlap diagnostics")
    p.add_argument("--doc-embeddings-bin", help="external document embeddings (f32 binary)")
    p.add_argument("--doc-embeddings-manifest", help="manifest JSON for --doc-embeddings-bin")
    _add_config_flags(p)
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("retrieve", help="run queries against an index")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True, help="JSONL of {query_id, query_text}")
    p.add_argument("--out", required=True, help="JSONL results file to write")
    p.add_argument("--k", type=_int_at_least(1), default=20, help="documents returned per query")
    _add_config_flags(p, ["beta", "beam_size", "k_clusters", "length_penalty", "temperature"])
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("eval", help="score a results file against qrels")
    p.add_argument("--results", required=True, help="JSONL written by retrieve")
    p.add_argument("--qrels", required=True, help="JSONL of {query_id, query_text, relevant}")
    p.add_argument("--k", type=_int_at_least(1), nargs="+", default=[20, 100],
                   help="cutoffs to report")
    p.add_argument("--index", help="optional index directory for structural diagnostics")
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("add-docs", help="append documents to an existing index")
    p.add_argument("--index", required=True)
    p.add_argument("--corpus", required=True, help="JSONL corpus of new documents")
    p.set_defaults(func=cmd_add_docs)

    p = sub.add_parser("train-adapter", help="fit the query-side adapter on training pairs")
    p.add_argument("--index", required=True)
    p.add_argument("--pairs", required=True,
                   help="JSONL of {query_id, query_text, positive_doc_id}")
    p.add_argument("--epochs", type=_int_at_least(0), default=5)
    p.add_argument("--learning-rate", type=_rate, default=0.05)
    p.add_argument("--batch-size", type=_int_at_least(1), default=16)
    _add_config_flags(p, ["gamma", "n_a"])
    p.set_defaults(func=cmd_train_adapter)

    p = sub.add_parser("inspect", help="print index statistics")
    p.add_argument("--index", required=True)
    p.add_argument("--qrels", help="optional qrels JSONL; adds overlap diagnostics")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RetrievalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
