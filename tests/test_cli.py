import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import coarsefine
from coarsefine.cli import CONFIG_FLAGS, main
from coarsefine.corpus import QueryRecord, TrainingPair, load_queries, qrels_mapping
from coarsefine.embed import HashingEmbedder, save_embedding_sidecar
from coarsefine.errors import ParseError
from coarsefine.evaluation import evaluate_results, index_diagnostics, position_error_rate
from coarsefine.intra import train_adapter
from coarsefine.kmeans import derive_seed
from coarsefine.pipeline import RetrievalConfig, load_config, load_index, retrieve
from helpers import reference_write_results, topic_corpus

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


@pytest.fixture
def corpus_path(tmp_path):
    docs = topic_corpus(4, 30, seed=0)
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [{"id": d.doc_id, "text": d.text} for d in docs])
    return str(path)


@pytest.fixture
def queries_path(tmp_path):
    docs = topic_corpus(4, 30, seed=0)
    rows = []
    for qi, doc in enumerate(docs[::17]):
        toks = doc.text.split()
        rows.append({
            "query_id": f"q{qi}",
            "query_text": " ".join(toks[:5]),
            "relevant": [doc.doc_id],
        })
    path = tmp_path / "queries.jsonl"
    write_jsonl(path, rows)
    return str(path)


BUILD_FLAGS = ["--dim", "64", "--expected-clusters", "8", "--branching", "4"]


def build(tmp_path, corpus_path, extra=()):
    out = str(tmp_path / "idx")
    rc = main(["build-index", "--corpus", corpus_path, "--out", out, *BUILD_FLAGS, *extra])
    assert rc == 0
    return out


def test_build_retrieve_eval_flow(tmp_path, corpus_path, queries_path, capsys):
    idx = build(tmp_path, corpus_path)
    for name in ("corpus.jsonl", "embeddings.bin", "manifest.json",
                 "tree.json", "centroids.bin", "config.json"):
        assert (tmp_path / "idx" / name).exists()
    out = str(tmp_path / "results.jsonl")
    assert main(["retrieve", "--index", idx, "--queries", queries_path,
                 "--out", out, "--k", "10"]) == 0
    rows = [json.loads(line) for line in open(out)]
    assert rows and all(len(r["results"]) <= 10 for r in rows)
    for r in rows:
        for entry in r["results"]:
            assert set(entry) == {"doc_id", "s_inter", "s_intra", "s_overall"}

    assert main(["eval", "--results", out, "--qrels", queries_path,
                 "--k", "1", "10", "--index", idx]) == 0
    text = capsys.readouterr().out
    assert "R@10" in text and "Acc@1" in text

    report_path = str(tmp_path / "report.json")
    assert main(["eval", "--results", out, "--qrels", queries_path,
                 "--k", "10", "--out", report_path]) == 0
    report = json.loads(open(report_path).read())
    assert "R@10" in report["metrics"]


def test_retrieve_is_byte_stable(tmp_path, corpus_path, queries_path):
    idx = build(tmp_path, corpus_path)
    out1, out2 = str(tmp_path / "r1.jsonl"), str(tmp_path / "r2.jsonl")
    for out in (out1, out2):
        assert main(["retrieve", "--index", idx, "--queries", queries_path,
                     "--out", out]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_rebuild_emits_identical_index_files(tmp_path, corpus_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    for out in (a, b):
        assert main(["build-index", "--corpus", corpus_path, "--out", out, *BUILD_FLAGS]) == 0
    for name in ("tree.json", "centroids.bin", "embeddings.bin", "config.json"):
        assert open(f"{a}/{name}", "rb").read() == open(f"{b}/{name}", "rb").read()


def test_a_sidecar_of_the_hashed_vectors_builds_the_same_index_files(tmp_path, corpus_path):
    plain = build(tmp_path, corpus_path)
    index = load_index(plain)
    bin_path, manifest_path = str(tmp_path / "emb.bin"), str(tmp_path / "emb.json")
    save_embedding_sidecar(index.embeddings.ids, index.embeddings.matrix, bin_path,
                           manifest_path)
    out = tmp_path / "from-sidecar"
    assert main(["build-index", "--corpus", corpus_path, "--out", str(out), *BUILD_FLAGS,
                 "--doc-embeddings-bin", bin_path, "--doc-embeddings-manifest", manifest_path]) == 0
    assert file_bytes(out) == {out / path.relative_to(plain): data
                               for path, data in file_bytes(tmp_path / "idx").items()}
    for flag, path in (("--doc-embeddings-bin", bin_path),
                       ("--doc-embeddings-manifest", manifest_path)):
        assert main(["build-index", "--corpus", corpus_path, "--out", str(tmp_path / "one"),
                     *BUILD_FLAGS, flag, path]) == 2
    assert not (tmp_path / "one").exists()


def sidecar_build(tmp_path, ids, matrix):
    """Run build-index over six documents d0..d5 with this sidecar; returns the exit code."""
    corpus = tmp_path / "six.jsonl"
    write_jsonl(corpus, [{"id": f"d{i}", "text": f"t{i} words"} for i in range(6)])
    bin_path, manifest_path = str(tmp_path / "emb.bin"), str(tmp_path / "emb.json")
    save_embedding_sidecar(ids, matrix, bin_path, manifest_path)
    return main(["build-index", "--corpus", str(corpus), "--out", str(tmp_path / "out"),
                 *BUILD_FLAGS, "--doc-embeddings-bin", bin_path,
                 "--doc-embeddings-manifest", manifest_path])


def test_a_sidecar_manifest_that_repeats_an_id_exits_2_naming_it(tmp_path, capsys):
    matrix = np.eye(7, 64, dtype=np.float32)
    assert sidecar_build(tmp_path, [f"d{i}" for i in range(6)] + ["d0"], matrix) == 2
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'emb.json'}: id 'd0' appears more than once\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [1.0, np.nan])
def test_a_sidecar_row_that_is_not_finite_and_unit_exits_1_in_one_line(tmp_path, capsys,
                                                                       value):
    matrix = np.full((6, 64), value, dtype=np.float32)
    assert sidecar_build(tmp_path, [f"d{i}" for i in range(6)], matrix) == 1
    err = capsys.readouterr().err
    assert err == "error: embedding for 'd0' must be finite and unit length\n"
    assert not (tmp_path / "out").exists()


def test_texts_with_a_lone_surrogate_build_add_retrieve_and_inspect(tmp_path):
    docs = topic_corpus(4, 30, seed=0)
    rows = [{"id": d.doc_id, "text": d.text} for d in docs]
    rows[0]["text"] += " hello \udc80 world"
    corpus_path = tmp_path / "corpus.jsonl"
    write_jsonl(corpus_path, rows[:-1])
    write_jsonl(tmp_path / "late.jsonl", [{"id": "late", "text": "late \ud800 text"}, rows[-1]])
    write_jsonl(tmp_path / "queries.jsonl", [{"query_id": "q", "query_text": "hello \udc80"}])
    idx = build(tmp_path, str(corpus_path))
    out = tmp_path / "results.jsonl"
    assert main(["add-docs", "--index", idx, "--corpus", str(tmp_path / "late.jsonl")]) == 0
    assert main(["retrieve", "--index", idx, "--queries", str(tmp_path / "queries.jsonl"),
                 "--out", str(out), "--k", "5"]) == 0
    assert main(["inspect", "--index", idx]) == 0
    assert json.loads(out.read_text())["query_text"] == "hello \udc80"
    loaded = load_index(idx)
    assert loaded.texts[loaded.embeddings.row["late"]] == "late \ud800 text"


def test_config_precedence_file_overrides_defaults_flags_override_file(tmp_path, corpus_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dim": 64, "expected_clusters": 8,
                                    "branching": 4, "beta": 0.5}))
    out = str(tmp_path / "idx")
    assert main(["build-index", "--corpus", corpus_path, "--out", out,
                 "--config", str(cfg_path), "--beta", "2.5"]) == 0
    stored = load_config(f"{out}/config.json")
    assert stored.beta == 2.5          # flag wins
    assert stored.dim == 64            # file wins over default
    assert stored.gamma == 2.0         # untouched default


def test_missing_corpus_file_exits_2(tmp_path):
    assert main(["build-index", "--corpus", str(tmp_path / "nope.jsonl"),
                 "--out", str(tmp_path / "idx")]) == 2


def test_malformed_corpus_exits_2(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not json\n")
    assert main(["build-index", "--corpus", str(bad), "--out", str(tmp_path / "idx")]) == 2


def test_invalid_flag_combination_exits_2(tmp_path, corpus_path):
    rc = main(["build-index", "--corpus", corpus_path, "--out", str(tmp_path / "idx"),
               "--beam-size", "5", "--k-clusters", "50"])
    assert rc == 2


def test_duplicate_corpus_ids_exit_1(tmp_path):
    dup = tmp_path / "dup.jsonl"
    write_jsonl(dup, [{"id": "a", "text": "x y"}, {"id": "a", "text": "z w"}])
    rc = main(["build-index", "--corpus", str(dup), "--out", str(tmp_path / "idx")])
    assert rc == 1


def test_eval_missing_qrels_for_query_exits_1(tmp_path, corpus_path, queries_path):
    idx = build(tmp_path, corpus_path)
    out = str(tmp_path / "results.jsonl")
    assert main(["retrieve", "--index", idx, "--queries", queries_path, "--out", out]) == 0
    lonely = tmp_path / "lonely.jsonl"
    write_jsonl(lonely, [{"query_id": "other", "query_text": "x", "relevant": ["a"]}])
    assert main(["eval", "--results", out, "--qrels", str(lonely)]) == 1


def test_add_docs_command(tmp_path, corpus_path, queries_path, capsys):
    idx = build(tmp_path, corpus_path)
    extra = tmp_path / "extra.jsonl"
    docs = topic_corpus(2, 6, seed=99)
    write_jsonl(extra, [{"id": "new_" + d.doc_id, "text": d.text} for d in docs])
    assert main(["add-docs", "--index", idx, "--corpus", str(extra)]) == 0
    assert "12" in capsys.readouterr().out
    out = str(tmp_path / "results.jsonl")
    assert main(["retrieve", "--index", idx, "--queries", queries_path, "--out", out]) == 0


def test_add_docs_duplicate_exits_1(tmp_path, corpus_path):
    idx = build(tmp_path, corpus_path)
    dup = tmp_path / "dup.jsonl"
    first_id = json.loads(open(corpus_path).readline())["id"]
    write_jsonl(dup, [{"id": first_id, "text": "whatever this is"}])
    assert main(["add-docs", "--index", idx, "--corpus", str(dup)]) == 1


def test_train_adapter_command(tmp_path, corpus_path, capsys):
    idx = build(tmp_path, corpus_path)
    docs = topic_corpus(4, 30, seed=0)
    pairs = tmp_path / "pairs.jsonl"
    rows = []
    for qi, doc in enumerate(docs[::5]):
        rows.append({"query_id": f"p{qi}", "query_text": " ".join(doc.text.split()[:6]),
                     "positive_doc_id": doc.doc_id})
    write_jsonl(pairs, rows)
    assert main(["train-adapter", "--index", idx, "--pairs", str(pairs),
                 "--epochs", "2", "--learning-rate", "0.01"]) == 0
    assert (tmp_path / "idx" / "adapter.bin").exists()
    assert (tmp_path / "idx" / "adapter.json").exists()
    text = capsys.readouterr().out
    assert "epoch" in text
    # the saved adapter is picked up transparently on the next retrieve
    queries = tmp_path / "q.jsonl"
    write_jsonl(queries, [{"query_id": "q0", "query_text": rows[0]["query_text"]}])
    out = str(tmp_path / "results.jsonl")
    assert main(["retrieve", "--index", idx, "--queries", str(queries), "--out", out]) == 0


def test_rebuild_over_a_trained_index_drops_the_old_adapter(tmp_path, corpus_path,
                                                            queries_path, capsys):
    idx = build(tmp_path, corpus_path)
    pairs = tmp_path / "pairs.jsonl"
    write_jsonl(pairs, training_rows(["t0w1 t0w2", "t0w1 t0w2"]))
    assert main(["train-adapter", "--index", idx, "--pairs", str(pairs), "--epochs", "1"]) == 0
    other = tmp_path / "other.jsonl"
    write_jsonl(other, [{"id": d.doc_id, "text": d.text} for d in topic_corpus(3, 20, seed=5)])
    fresh = str(tmp_path / "fresh")
    for out in (idx, fresh):
        assert main(["build-index", "--corpus", str(other), "--out", out, *BUILD_FLAGS]) == 0
    capsys.readouterr()
    assert main(["inspect", "--index", idx]) == 0
    assert "adapter             no" in capsys.readouterr().out
    results = []
    for index in (idx, fresh):
        results.append(tmp_path / f"results-{len(results)}.jsonl")
        assert main(["retrieve", "--index", index, "--queries", queries_path,
                     "--out", str(results[-1])]) == 0
    assert results[0].read_bytes() == results[1].read_bytes()


def test_inspect_command(tmp_path, corpus_path, capsys):
    idx = build(tmp_path, corpus_path)
    assert main(["inspect", "--index", idx]) == 0
    text = capsys.readouterr().out
    assert "documents" in text and "leaf" in text


def test_inspect_reports_the_leaf_sizes_of_a_hand_built_tree(tmp_path, corpus_path, capsys):
    idx = build(tmp_path, corpus_path)
    ids = [json.loads(line)["id"] for line in open(f"{idx}/corpus.jsonl")]
    assert len(ids) == 120

    def leaf(label, members):
        return {"label": label, "members": members, "children": []}

    # leaves of 1, 1, 2, 4 and 112 members; the last two under an internal node
    inner = {"label": 3, "members": [], "children": [leaf(1, ids[4:8]), leaf(2, ids[8:])]}
    root = {"label": None, "members": [], "children": [
        leaf(1, ids[:1]), leaf(2, ids[1:2]), inner, leaf(4, ids[2:4])]}
    tree = json.loads(open(f"{idx}/tree.json").read())
    (tmp_path / "idx" / "tree.json").write_text(json.dumps({**tree, "root": root}))
    np.eye(7, 64, dtype="<f4").tofile(f"{idx}/centroids.bin")  # 7 nodes in preorder
    os.remove(f"{idx}/placements.bin")
    assert main(["inspect", "--index", idx]) == 0
    text = capsys.readouterr().out
    assert "one_member_leaves   2 of 5 (0.4000)\n" in text
    assert ("largest_leaf        112\n"
            "leaf_size_1         2\n"
            "leaf_size_2-3       1\n"
            "leaf_size_4-7       1\n"
            "leaf_size_64-127    1\n"
            "config:\n") in text


def test_inspect_prints_the_leaf_size_0_line_of_an_empty_leaf(tmp_path, corpus_path, capsys):
    idx = build(tmp_path, corpus_path)
    ids = [json.loads(line)["id"] for line in open(f"{idx}/corpus.jsonl")]
    root = {"label": None, "members": [], "children": [
        {"label": label, "members": members, "children": []}
        for label, members in ((1, ids[:60]), (2, []), (3, ids[60:]))]}
    tree = json.loads(open(f"{idx}/tree.json").read())
    (tmp_path / "idx" / "tree.json").write_text(json.dumps({**tree, "root": root}))
    np.eye(4, 64, dtype="<f4").tofile(f"{idx}/centroids.bin")  # 4 nodes in preorder
    assert main(["inspect", "--index", idx]) == 0
    assert ("leaf_count  3\n"
            "cid_len_2   3\n"
            "one_member_leaves   0 of 3 (0.0000)\n"
            "largest_leaf        60\n"
            "leaf_size_0         1\n"
            "leaf_size_32-63     2\n"
            "config:\n") in capsys.readouterr().out


def test_eval_index_prints_and_writes_what_the_views_give(tmp_path, corpus_path, queries_path,
                                                         capsys):
    """An oracle over `leaves` and `cid_by_doc` of an index with added documents,
    a result that names no document of the index and a judged query without results."""
    idx = build(tmp_path, corpus_path)
    extra = tmp_path / "extra.jsonl"
    added = [{"id": "new_" + d.doc_id, "text": d.text} for d in topic_corpus(4, 5, seed=99)]
    write_jsonl(extra, added)
    assert main(["add-docs", "--index", idx, "--corpus", str(extra)]) == 0
    out = tmp_path / "results.jsonl"
    assert main(["retrieve", "--index", idx, "--queries", queries_path, "--out", str(out),
                 "--k", "10"]) == 0
    rows = [json.loads(line) for line in open(out)]
    rows[0]["results"].insert(1, {"doc_id": "ghost"})
    write_jsonl(out, rows)
    qrels_path = tmp_path / "qrels.jsonl"
    judged = [json.loads(line) for line in open(queries_path)]
    for i, row in enumerate(judged):
        row["relevant"].append(added[i % len(added)]["id"])
    judged.append({"query_id": "unscored", "query_text": "x", "relevant": [added[0]["id"]]})
    write_jsonl(qrels_path, judged)
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    assert main(["eval", "--results", str(out), "--qrels", str(qrels_path), "--k", "1", "10",
                 "--index", idx, "--out", str(report_path)]) == 0

    tree = load_index(idx).tree
    cid_by_doc = tree.cid_by_doc
    results = {row["query_id"]: [entry["doc_id"] for entry in row["results"]] for row in rows}
    qrels = qrels_mapping(load_queries(str(qrels_path), require_relevant=True))
    report = evaluate_results(results, qrels, [1, 10])
    diag = index_diagnostics(tree.leaves, cid_by_doc,
                             {qid: docs for qid, docs in qrels.items() if qid in results})
    report.leaf_count = diag.leaf_count
    report.cid_length_histogram = diag.cid_length_histogram
    report.mean_prefix_overlap = diag.mean_prefix_overlap
    predicted = {qid: [] for qid in results}
    for qid, docs in results.items():
        for doc_id in docs:
            if doc_id in cid_by_doc and cid_by_doc[doc_id] not in predicted[qid]:
                predicted[qid].append(cid_by_doc[doc_id])
    relevant = {qid: {cid_by_doc[d] for d in docs} for qid, docs in qrels.items()}
    longest = max(len(cid) for cids in predicted.values() for cid in cids)
    report.position_error_rates = {pos: position_error_rate(predicted, relevant, pos)
                                   for pos in range(1, longest + 1)}
    assert report.position_error_rates[1] is not None and report.mean_prefix_overlap < 1
    assert capsys.readouterr().out == report.format_table() + "\n"
    assert report_path.read_text() == report.to_json() + "\n"


def test_build_index_checks_qrels_before_writing_the_index(
        tmp_path, corpus_path, queries_path, capsys):
    out = tmp_path / "idx"
    qrels = tmp_path / "qrels.jsonl"
    write_jsonl(qrels, [{"query_id": "q", "query_text": "x", "relevant": ["nowhere"]}])
    assert main(["build-index", "--corpus", corpus_path, "--out", str(out), *BUILD_FLAGS,
                 "--qrels", str(qrels)]) == 1
    assert capsys.readouterr().err == "error: document 'nowhere' (query 'q') has no CID\n"
    assert not out.exists()
    # a qrels file the index covers: the count line, then the diagnostics table
    build(tmp_path, corpus_path, ["--qrels", queries_path])
    index = load_index(str(out))
    qrels = qrels_mapping(load_queries(queries_path, require_relevant=True))
    table = index_diagnostics(index.tree.leaves, index.tree.cid_by_doc, qrels).format_table()
    assert capsys.readouterr().out == (
        f"indexed 120 documents into {index.tree.leaf_count} leaf clusters\n{table}\n")


@pytest.mark.parametrize("relevant", [[["a"]], [1], ["a", None]])
def test_inspect_rejects_relevant_ids_that_are_not_strings_with_exit_2(
        tmp_path, corpus_path, capsys, relevant):
    idx = build(tmp_path, corpus_path)
    qrels = tmp_path / "qrels.jsonl"
    write_jsonl(qrels, [{"query_id": "q", "query_text": "x", "relevant": relevant}])
    assert main(["inspect", "--index", idx, "--qrels", str(qrels)]) == 2
    assert "line 1: 'relevant' is not a list of strings" in capsys.readouterr().err


def test_config_file_overrides_only_the_keys_it_holds(tmp_path, corpus_path, capsys):
    idx = build(tmp_path, corpus_path, ["--beta", "0.5"])
    docs = topic_corpus(4, 30, seed=0)
    pairs = tmp_path / "pairs.jsonl"
    write_jsonl(pairs, [{"query_id": f"p{i}", "query_text": " ".join(d.text.split()[:6]),
                         "positive_doc_id": d.doc_id} for i, d in enumerate(docs[::5])])
    gamma_cfg = tmp_path / "gamma.json"
    gamma_cfg.write_text(json.dumps({"gamma": 3.0}))
    assert main(["train-adapter", "--index", idx, "--pairs", str(pairs), "--epochs", "1",
                 "--config", str(gamma_cfg)]) == 0
    capsys.readouterr()
    assert main(["inspect", "--index", idx]) == 0
    text = capsys.readouterr().out
    assert "dim = 64" in text and "beta = 0.5" in text and "gamma = 3.0" in text


def test_retrieve_config_file_keeps_the_stored_beta(tmp_path, corpus_path, queries_path):
    idx = build(tmp_path, corpus_path, ["--beta", "0.5"])
    k_cfg = tmp_path / "k.json"
    k_cfg.write_text(json.dumps({"k_clusters": 50}))
    out = str(tmp_path / "results.jsonl")
    assert main(["retrieve", "--index", idx, "--queries", queries_path, "--out", out,
                 "--config", str(k_cfg)]) == 0
    entries = [e for line in open(out) for e in json.loads(line)["results"]]
    assert entries
    for e in entries:
        assert e["s_overall"] == e["s_inter"] + 0.5 * e["s_intra"]


def training_pairs(tmp_path):
    docs = topic_corpus(4, 30, seed=0)
    pairs = tmp_path / "pairs.jsonl"
    write_jsonl(pairs, [{"query_id": f"p{i}", "query_text": " ".join(d.text.split()[:6]),
                         "positive_doc_id": d.doc_id} for i, d in enumerate(docs[::5])])
    return str(pairs)


def file_digests(directory):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("setting", [{"seed": 99}, {"dim": 96}, {"seed": True}])
def test_a_config_file_cannot_change_what_the_index_fixes_on_train_adapter(
        tmp_path, corpus_path, capsys, setting):
    idx = build(tmp_path, corpus_path)
    before = file_digests(tmp_path / "idx")
    config_file = tmp_path / "fixed.json"
    config_file.write_text(json.dumps(setting))
    assert main(["train-adapter", "--index", idx, "--pairs", training_pairs(tmp_path),
                 "--epochs", "1", "--config", str(config_file)]) == 2
    assert f"{config_file}: {next(iter(setting))} is fixed by the index" in \
        capsys.readouterr().err
    assert file_digests(tmp_path / "idx") == before


def test_a_config_file_cannot_change_what_the_index_fixes_on_retrieve(
        tmp_path, corpus_path, queries_path, capsys):
    idx = build(tmp_path, corpus_path)
    config_file = tmp_path / "seed.json"
    config_file.write_text(json.dumps({"seed": 99}))
    out = tmp_path / "results.jsonl"
    assert main(["retrieve", "--index", idx, "--queries", queries_path, "--out", str(out),
                 "--config", str(config_file)]) == 2
    assert f"{config_file}: seed is fixed by the index at 0, got 99" in capsys.readouterr().err
    assert not out.exists()


def test_the_build_config_file_can_be_reused_on_the_index_it_built(
        tmp_path, corpus_path, queries_path):
    config_file = tmp_path / "build.json"
    config_file.write_text(json.dumps({"dim": 64, "expected_clusters": 8, "branching": 4,
                                       "seed": 3, "gamma": 1.5}))
    idx = str(tmp_path / "idx")
    assert main(["build-index", "--corpus", corpus_path, "--out", idx,
                 "--config", str(config_file)]) == 0
    out = str(tmp_path / "results.jsonl")
    assert main(["retrieve", "--index", idx, "--queries", queries_path, "--out", out,
                 "--config", str(config_file)]) == 0
    assert main(["train-adapter", "--index", idx, "--pairs", training_pairs(tmp_path),
                 "--epochs", "1", "--config", str(config_file)]) == 0
    stored = load_config(f"{idx}/config.json")
    assert (stored.dim, stored.seed, stored.gamma) == (64, 3, 1.5)


def results_line(results):
    return {"query_id": "q0", "query_text": "x", "k": 10, "results": results}


@pytest.mark.parametrize("bad_line", [
    pytest.param(results_line([{"s_overall": 1.0}]), id="entry-without-doc-id"),
    pytest.param("query_id and results", id="line-is-a-json-string"),
])
def test_eval_rejects_a_malformed_results_line_with_exit_2(tmp_path, queries_path, capsys,
                                                           bad_line):
    results = tmp_path / "results.jsonl"
    write_jsonl(results, [results_line([{"doc_id": "d00_0000"}]), bad_line])
    assert main(["eval", "--results", str(results), "--qrels", queries_path]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("at", ["front", "end"])
def test_eval_rejects_a_repeated_query_id_with_exit_1_and_writes_no_report(
        tmp_path, corpus_path, queries_path, capsys, at):
    idx = build(tmp_path, corpus_path)
    out = tmp_path / "results.jsonl"
    assert main(["retrieve", "--index", idx, "--queries", queries_path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    first = json.loads(lines[0])
    copy = json.dumps({**first, "results": []})
    dup = tmp_path / "dup.jsonl"
    dup.write_text("\n".join([copy] + lines if at == "front" else lines + [copy]) + "\n")
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert main(["eval", "--results", str(dup), "--qrels", queries_path, "--k", "1", "5",
                 "--out", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: duplicate query id {first['query_id']!r}\n"
    assert not report.exists()


def training_rows(texts):
    docs = topic_corpus(4, 30, seed=0)
    return [{"query_id": "p0", "query_text": text, "positive_doc_id": doc.doc_id}
            for text, doc in zip(texts, docs[::5])]


def test_train_adapter_rejects_a_query_id_with_two_texts(tmp_path, corpus_path, capsys):
    idx = build(tmp_path, corpus_path)
    pairs = tmp_path / "pairs.jsonl"
    write_jsonl(pairs, training_rows(["t0w1 t0w2", "t1w1 t1w2"]))
    assert main(["train-adapter", "--index", idx, "--pairs", str(pairs), "--epochs", "1"]) == 2
    assert "line 2" in capsys.readouterr().err
    assert not (tmp_path / "idx" / "adapter.bin").exists()


def test_train_adapter_rejects_a_tokenless_query_text_before_training(tmp_path, corpus_path,
                                                                      capsys):
    idx = build(tmp_path, corpus_path)
    before = file_digests(tmp_path / "idx")
    pairs = tmp_path / "pairs.jsonl"
    rows = training_rows(["t0w1 t0w2", "   "])
    rows[1]["query_id"] = "p1"
    write_jsonl(pairs, rows)
    assert main(["train-adapter", "--index", idx, "--pairs", str(pairs), "--epochs", "1"]) == 2
    assert capsys.readouterr().err == f"error: {pairs}: line 2: query 'p1' has no tokens\n"
    assert file_digests(tmp_path / "idx") == before


def test_train_adapter_accepts_a_query_id_with_several_positives(tmp_path, corpus_path):
    idx = build(tmp_path, corpus_path)
    pairs = tmp_path / "pairs.jsonl"
    write_jsonl(pairs, training_rows(["t0w1 t0w2", "t0w1 t0w2"]))
    assert main(["train-adapter", "--index", idx, "--pairs", str(pairs), "--epochs", "1"]) == 0


def test_config_file_with_retired_span_keys_is_accepted(tmp_path, corpus_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dim": 64, "expected_clusters": 8, "branching": 4,
                                    "n_spans": 5, "span_len": 40}))
    out = str(tmp_path / "idx")
    assert main(["build-index", "--corpus", corpus_path, "--out", out,
                 "--config", str(cfg_path)]) == 0
    assert load_config(f"{out}/config.json").dim == 64


def test_every_config_flag_is_a_config_field():
    fields = {f.name for f in dataclasses.fields(RetrievalConfig)}
    assert {name for name, _, _ in CONFIG_FLAGS} <= fields


def test_every_exported_name_resolves():
    for name in coarsefine.__all__:
        assert hasattr(coarsefine, name), name


def run_cli(*argv):
    """The CLI in a fresh interpreter, as the console script runs it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "coarsefine.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def file_bytes(root):
    return {path: path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("command, flag, value", [
    ("retrieve", "--k", "0"),
    ("eval", "--k", "0"),
    ("train-adapter", "--epochs", "-1"),
    ("train-adapter", "--batch-size", "0"),
    ("train-adapter", "--learning-rate", "nan"),
    ("train-adapter", "--learning-rate", "inf"),
    ("train-adapter", "--learning-rate", "-0.5"),
])
def test_out_of_range_numbers_are_usage_errors_that_touch_no_file(
        tmp_path, corpus_path, queries_path, command, flag, value):
    idx = build(tmp_path, corpus_path)
    out = tmp_path / "out.jsonl"
    out.write_text("earlier contents\n")
    pairs = tmp_path / "pairs.jsonl"
    write_jsonl(pairs, training_rows(["t0w1 t0w2"]))
    files = {
        "retrieve": ["--index", idx, "--queries", queries_path, "--out", str(out)],
        "eval": ["--results", str(out), "--qrels", queries_path, "--out", str(out)],
        "train-adapter": ["--index", idx, "--pairs", str(pairs)],
    }[command]
    before = file_bytes(tmp_path)
    proc = run_cli(command, *files, flag, value)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr and f"{flag}: must be >=" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert file_bytes(tmp_path) == before


def test_a_dim_below_the_embedder_minimum_is_a_usage_error_that_creates_no_index(
        tmp_path, corpus_path):
    out = tmp_path / "idx"
    proc = run_cli("build-index", "--corpus", corpus_path, "--out", str(out), "--dim", "4")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "dim must be >= 8" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


def test_train_adapter_rejects_an_unknown_positive_before_training(tmp_path, corpus_path):
    idx = build(tmp_path, corpus_path)
    pairs = tmp_path / "pairs.jsonl"
    rows = training_rows(["t0w1 t0w2"] * 3)
    rows[1]["positive_doc_id"] = "added-later"
    write_jsonl(pairs, rows)
    before = file_bytes(tmp_path)
    proc = run_cli("train-adapter", "--index", idx, "--pairs", str(pairs), "--epochs", "1")
    assert proc.returncode == 1
    assert proc.stderr == "error: positive document 'added-later' is not indexed\n"
    assert file_bytes(tmp_path) == before


@pytest.mark.parametrize("where", ["config", "corpus"])
def test_deeply_nested_json_is_a_parse_error_naming_the_file(tmp_path, corpus_path, where):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000 + "\n")
    corpus, extra, named = corpus_path, [], f"error: {deep}: invalid JSON"
    if where == "config":
        extra = ["--config", str(deep)]
    else:
        corpus, named = str(deep), f"error: {deep}: line 1: invalid JSON"
    proc = run_cli("build-index", "--corpus", corpus, "--out", str(tmp_path / "idx"), *extra)
    assert proc.returncode == 2
    assert proc.stderr == named + "\n"
    assert not (tmp_path / "idx").exists()


def test_retrieve_rejects_a_token_free_query_before_opening_out(tmp_path, corpus_path, capsys):
    idx = build(tmp_path, corpus_path)
    queries = tmp_path / "queries.jsonl"
    write_jsonl(queries, [{"query_id": "q0", "query_text": "t0w1 t0w2"},
                          {"query_id": "q-blank", "query_text": "   "}])
    out = tmp_path / "results.jsonl"
    out.write_bytes(b"earlier results\n")
    assert main(["retrieve", "--index", idx, "--queries", str(queries), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(queries) in err and "'q-blank'" in err
    assert out.read_bytes() == b"earlier results\n"


def test_train_adapter_embeds_each_query_id_once(tmp_path, corpus_path, monkeypatch):
    idx = build(tmp_path, corpus_path)
    rows = training_rows(["t0w1 t0w2"] * 5)
    rows.append({"query_id": "p1", "query_text": "t1w3 t1w4",
                 "positive_doc_id": rows[1]["positive_doc_id"]})
    pairs_path = tmp_path / "pairs.jsonl"
    write_jsonl(pairs_path, rows)
    pairs = [TrainingPair(r["query_id"], r["query_text"], r["positive_doc_id"]) for r in rows]
    index = load_index(idx)
    expected, _ = train_adapter(
        pairs, index.tree,
        {p.query_id: index.embedder.embed(p.query_text) for p in pairs},
        gamma=index.config.gamma, n_a=index.config.n_a, epochs=2,
        seed=derive_seed(index.config.seed, "train"))

    embedded = []
    original = HashingEmbedder.embed

    def counting_embed(self, text):
        embedded.append(text)
        return original(self, text)

    monkeypatch.setattr(HashingEmbedder, "embed", counting_embed)
    assert main(["train-adapter", "--index", idx, "--pairs", str(pairs_path),
                 "--epochs", "2"]) == 0
    assert embedded == ["t0w1 t0w2", "t1w3 t1w4"]
    weight = np.ascontiguousarray(expected.weight, dtype="<f4")
    assert (tmp_path / "idx" / "adapter.bin").read_bytes() == weight.tobytes()


@pytest.mark.parametrize("flags", [[], ["--beta", "0", "--k-clusters", "3"]])
def test_results_lines_equal_the_asdict_writer(tmp_path, corpus_path, flags):
    idx = build(tmp_path, corpus_path)
    docs = topic_corpus(4, 30, seed=0)
    queries = [QueryRecord(f'q{i} "é" \\ \ud800', f"{doc.text[:30]} é \"q\" \\ 😀",
                           frozenset()) for i, doc in enumerate(docs[::11])]
    queries_path = tmp_path / "queries.jsonl"
    write_jsonl(queries_path, [{"query_id": q.query_id, "query_text": q.text} for q in queries])
    out = tmp_path / "results.jsonl"
    assert main(["retrieve", "--index", idx, "--queries", str(queries_path), "--out", str(out),
                 "--k", "7", *flags]) == 0
    index = load_index(idx)
    if flags:
        index.config = dataclasses.replace(index.config, beta=0.0, k_clusters=3)
    results = [retrieve(index, q.text, 7) for q in queries]
    assert all(result.entries for result in results)
    reference_write_results(str(tmp_path / "reference.jsonl"), queries, results, 7)
    assert out.read_bytes() == (tmp_path / "reference.jsonl").read_bytes()


@pytest.mark.parametrize("field, value", [
    ("temperature", 0),
    ("beam_size", "100"),
    ("beta", "x"),
    ("length_penalty", None),
    ("k_clusters", True),
])
def test_a_bad_config_value_is_a_parse_error_naming_the_file(tmp_path, corpus_path,
                                                             queries_path, capsys, field, value):
    idx = build(tmp_path, corpus_path)
    out = tmp_path / "results.jsonl"
    assert main(["retrieve", "--index", idx, "--queries", queries_path, "--out", str(out)]) == 0
    config_path = tmp_path / "idx" / "config.json"
    config_path.write_text(json.dumps({**json.loads(config_path.read_text()), field: value}))
    with pytest.raises(ParseError, match="config.json"):
        load_index(idx)
    before = file_bytes(tmp_path)
    for argv in (["inspect", "--index", idx],
                 ["retrieve", "--index", idx, "--queries", queries_path, "--out", str(out)]):
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and "config.json" in proc.stderr
    assert file_bytes(tmp_path) == before
    # The same value from a --config file.
    config_file = tmp_path / "bad.json"
    config_file.write_text(json.dumps({field: value}))
    capsys.readouterr()
    assert main(["build-index", "--corpus", corpus_path, "--out", str(tmp_path / "other"),
                 *BUILD_FLAGS, "--config", str(config_file)]) == 2
    assert str(config_file) in capsys.readouterr().err
    assert not (tmp_path / "other").exists()


def test_a_config_file_is_checked_together_with_the_flags(tmp_path, corpus_path):
    config_file = tmp_path / "narrow.json"
    config_file.write_text(json.dumps({"beam_size": 10}))  # below the default k_clusters
    assert main(["build-index", "--corpus", corpus_path, "--out", str(tmp_path / "idx"),
                 *BUILD_FLAGS, "--config", str(config_file), "--k-clusters", "5"]) == 0
    assert load_config(str(tmp_path / "idx" / "config.json")).beam_size == 10


def test_retrieve_with_temperature_zero_exits_2_and_keeps_out(tmp_path, corpus_path,
                                                             queries_path, capsys):
    idx = build(tmp_path, corpus_path)
    out = tmp_path / "results.jsonl"
    out.write_bytes(b"earlier results\n")
    assert main(["retrieve", "--index", idx, "--queries", queries_path, "--out", str(out),
                 "--temperature", "0"]) == 2
    assert "temperature" in capsys.readouterr().err
    assert out.read_bytes() == b"earlier results\n"


def test_an_int_beta_in_config_json_still_loads(tmp_path, corpus_path, queries_path):
    idx = build(tmp_path, corpus_path)
    config_path = tmp_path / "idx" / "config.json"
    config_path.write_text(json.dumps({**json.loads(config_path.read_text()), "beta": 1}))
    assert load_index(idx).config.beta == 1
    assert main(["retrieve", "--index", idx, "--queries", queries_path,
                 "--out", str(tmp_path / "results.jsonl")]) == 0


def test_a_corpus_jsonl_that_repeats_an_id_makes_inspect_exit_2_naming_it(tmp_path,
                                                                           corpus_path):
    """A repeated id in an input corpus stays DuplicateId (exit 1); in an index's
    corpus.jsonl it is a damaged file."""
    idx = build(tmp_path, corpus_path)
    path = tmp_path / "idx" / "corpus.jsonl"
    first, second, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
    second = json.dumps({**json.loads(second), "id": json.loads(first)["id"]}) + "\n"
    path.write_text("".join([first, second, *rest]), encoding="utf-8")
    proc = run_cli("inspect", "--index", idx)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {path}: duplicate document id ")


@pytest.mark.parametrize("flag, value", [
    ("--beta", "0.25"),
    ("--beam-size", "2"),
    ("--k-clusters", "1"),
    ("--length-penalty", "0"),
    ("--temperature", "0.5"),
])
def test_each_retrieve_flag_writes_the_library_results_at_that_config_value(
        tmp_path, corpus_path, queries_path, flag, value):
    # leaves at depths 3-7 and a beam that prunes, so that every flag changes the results
    idx = build(tmp_path, corpus_path, ["--branching", "3", "--expected-clusters", "30",
                                        "--k-clusters", "2", "--beam-size", "8"])
    default, out = tmp_path / "default.jsonl", tmp_path / "results.jsonl"
    for path, flags in ((default, []), (out, [flag, value])):
        assert main(["retrieve", "--index", idx, "--queries", queries_path, "--out", str(path),
                     "--k", "10", *flags]) == 0
    index = load_index(idx)
    field = flag[2:].replace("-", "_")
    index.config = dataclasses.replace(index.config, **{field: type(getattr(index.config,
                                                                            field))(value)})
    queries = load_queries(queries_path)
    reference_write_results(str(tmp_path / "reference.jsonl"), queries,
                            [retrieve(index, q.text, 10) for q in queries], 10)
    assert out.read_bytes() == (tmp_path / "reference.jsonl").read_bytes()
    assert out.read_bytes() != default.read_bytes()  # the flag takes effect
