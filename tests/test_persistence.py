"""Index files are byte-identical to the streaming writers they replaced, and
the trie and JSONL reader behave exactly like the versions kept in helpers.
Added documents keep their leaves through placements.bin, and add-docs and
train-adapter rewrite only their own files, with the bytes of a full save."""

import json
import os
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsefine import Document, add_documents, build_index, load_index, retrieve, save_index
from coarsefine.cli import main
from coarsefine import cluster_tree
from coarsefine.cluster_tree import (build_cluster_tree, load_placements, load_tree,
                                     place_documents, save_placements, save_tree)
from coarsefine.corpus import _has_tokens, read_jsonl, save_corpus, tokenize
from coarsefine.embed import DocumentMatrix, save_embedding_sidecar
from coarsefine.errors import (DuplicateId, EmptySet, EmptyText, InvalidPrefix, MissingCid,
                               ParseError)
from coarsefine.corpus import TrainingPair
from coarsefine.intra import LinearAdapter, train_adapter
from coarsefine.pipeline import (RetrievalConfig, _assemble, read_config_file, save_documents,
                                 save_settings)
from coarsefine.trie import PrefixTrie
from helpers import (
    ReferenceLeafIndex,
    ReferencePrefixTrie,
    binary_depth2_tree,
    blob_embeddings,
    reference_assign_new_document,
    reference_read_jsonl,
    reference_save_corpus,
    reference_save_embedding_sidecar,
    reference_save_placements,
    reference_save_tree,
    topic_corpus,
)

CIDS = st.lists(
    st.lists(st.integers(1, 4), min_size=1, max_size=4).map(lambda path: (*path, 0)),
    min_size=1, max_size=40,
)
MALFORMED = st.sampled_from([(0,), (1,), (1, 2), (1, 0, 2, 0), (0, 1, 0), (1, -2, 0), ()])


def outcome(make):
    try:
        return "ok", make()
    except Exception as exc:  # the exception itself is what is compared
        return "raised", type(exc), str(exc), getattr(exc, "line", None)


@settings(max_examples=200, deadline=None)
@given(cids=CIDS, as_arrays=st.booleans())
def test_one_pass_trie_matches_the_reference_trie(cids, as_arrays):
    given_cids = [np.array(c) if as_arrays else list(c) for c in cids]
    trie, ref = PrefixTrie(given_cids), ReferencePrefixTrie(given_cids)
    assert len(trie) == len(ref)
    assert list(trie.cids()) == list(ref.cids())
    for cid in cids:
        for i in range(len(cid) + 1):
            prefix = cid[:i]
            assert trie.valid_next(prefix) == ref.valid_next(prefix)
            assert trie.is_terminal(prefix) == ref.is_terminal(prefix)
        for outside in (cid + (1,), (9,) + cid):
            with pytest.raises(InvalidPrefix):
                trie.valid_next(outside)
            assert not trie.is_terminal(outside)


@settings(max_examples=100, deadline=None)
@given(cids=st.lists(CIDS.map(lambda c: c[0]), max_size=10), bad=MALFORMED,
       at=st.integers(0, 10))
def test_one_pass_trie_rejects_what_the_reference_rejects(cids, bad, at):
    cids = cids[:at] + [bad] + cids[at:]
    got, want = outcome(lambda: PrefixTrie(cids)), outcome(lambda: ReferencePrefixTrie(cids))
    assert got[:3] == want[:3] and got[1] is ValueError
    for make in (PrefixTrie, ReferencePrefixTrie):
        with pytest.raises(EmptySet):
            make([])


def multi_level_tree():
    tree = build_cluster_tree(blob_embeddings((30, 25, 20, 5, 1), 16, seed=3), k=3,
                              expected_clusters=12, seed=4)
    assert max(len(cid) for cid in tree.leaves) >= 4  # three digits and the terminal
    return tree


def assert_same_files(a, b):
    assert sorted(os.listdir(a)) == sorted(os.listdir(b))
    for name in os.listdir(a):
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_tree_and_manifest_equal_the_streaming_json_dump(tmp_path):
    tree = multi_level_tree()
    # Documents placed after the build are left out of tree.json.
    leaf = next(iter(tree.leaves.values()))
    leaf.members.append("late")
    matrix = np.random.default_rng(5).standard_normal((4, 16)).astype(np.float32)
    ids = ["a", "é", 'q"uote', "\ud800"]
    (tmp_path / "new").mkdir()
    (tmp_path / "old").mkdir()
    save_tree(tree, str(tmp_path / "new/tree.json"), str(tmp_path / "new/centroids.bin"))
    save_embedding_sidecar(ids, matrix, str(tmp_path / "new/embeddings.bin"),
                           str(tmp_path / "new/manifest.json"))
    reference_save_tree(tree, str(tmp_path / "old/tree.json"), str(tmp_path / "old/centroids.bin"))
    reference_save_embedding_sidecar(ids, matrix, str(tmp_path / "old/embeddings.bin"),
                                     str(tmp_path / "old/manifest.json"))
    assert_same_files(tmp_path / "new", tmp_path / "old")
    assert b'"late"' not in (tmp_path / "new/tree.json").read_bytes()


@settings(max_examples=50, deadline=None)
@given(texts=st.lists(st.text(min_size=1).filter(_has_tokens), min_size=1, max_size=8))
def test_save_corpus_equals_one_json_dumps_per_document(tmp_path_factory, texts):
    texts += ["café   \\ \"q\" \x00 😀", "lone \udc80 surrogate"]
    docs = [Document(f"d{i}é", text) for i, text in enumerate(texts)]
    docs += [Document(doc_id, texts[0])
             for doc_id in ('q"uote', "back\\slash", "nul\x00", "\ud800")]
    directory = tmp_path_factory.mktemp("corpus")
    save_corpus(docs, str(directory / "new.jsonl"))
    reference_save_corpus(docs, str(directory / "old.jsonl"))
    assert (directory / "new.jsonl").read_bytes() == (directory / "old.jsonl").read_bytes()


def test_save_load_save_keeps_every_file_byte_identical(tmp_path):
    config = RetrievalConfig(dim=32, expected_clusters=10, branching=3, beam_size=50,
                             k_clusters=20, seed=6)
    index = build_index(topic_corpus(6, 15, seed=6), config)
    add_documents(index, [Document(f"late{i}", doc.text)
                          for i, doc in enumerate(topic_corpus(3, 4, seed=7))])
    weight = np.eye(32, dtype=np.float32)
    weight[3, 5] = 0.5
    index.adapter = LinearAdapter(weight=weight)
    save_index(index, str(tmp_path / "first"))
    save_index(load_index(str(tmp_path / "first")), str(tmp_path / "second"))
    assert_same_files(tmp_path / "first", tmp_path / "second")
    assert {"adapter.bin", "adapter.json"} <= set(os.listdir(tmp_path / "first"))


def test_has_tokens_agrees_with_tokenize_on_every_character_lowercasing_changes():
    # Only characters that lowercase to something else can disagree.
    changed = [c for c in map(chr, range(sys.maxunicode + 1)) if c.lower() != c or c.isspace()]
    assert [c for c in changed if _has_tokens(c) != bool(tokenize(c))] == []
    for text in ("", " ", " \t\n\u3000", "a", " a ", " x"):
        assert _has_tokens(text) == bool(tokenize(text))


JSONL_LINES = [
    '{"id": "a", "text": "x"}',
    '  {"text": "y", "id": "b"}  ',
    '\t{"id": "c", "text": "z", "extra": [1]}',
    "", " ", "\t", "\x0c", "\u3000",
    "\ufeff",
    '\ufeff{"id": "d", "text": "w"}',
    '"just a string"', "[1, 2]", "7", "null",
    '{"id": 7, "text": "x"}', '{"text": "x"}', '{"id": "e"}', '{"id": "f", "text": null}',
    "not json", '{"id": "g", "text": "x"} trailing', '{"id": "h", "text": "x"}{}',
    '\x0c{"id": "i", "text": "x"}', '{"id": "j", "text": " "}',
    # Valid when its three lines are joined, yet line 1 alone is not JSON.
    '{"id": "a", "n": [{"z": 1}\n{"w": 2}], "text": "x"}\n'
    '{"id": "b", "text": "y"}, {"id": "c", "text": "z"}',
    # Unicode whitespace that JSON does not skip, around an object and alone.
    '\x0b{"id": "k", "text": "x"}', '{"id": "k", "text": "x"}\x0b',
    '\xa0{"id": "k", "text": "x"}', '{"id": "k", "text": "x"}\xa0',
    '\u2028{"id": "k", "text": "x"}', '{"id": "k", "text": "x"}\u2028',
    "\x0b", "\xa0", "\u2028",
    # Inside a string: a control character (rejected) and two that are not.
    '{"id": "l", "text": "a\x1cb"}', '{"id": "l", "text": "a\x85b"}',
    '{"id": "l", "text": "a\u2028b"}',
    "NaN", '{"id": "m", "text": "x", "n": NaN}',
    '{"id": "n", "text": "x"} {"id": "o", "text": "y"}',
]


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(st.sampled_from(JSONL_LINES), max_size=6),
       newline=st.sampled_from(["\n", "\r\n", "\r"]), bom=st.booleans(),
       final_newline=st.booleans())
def test_read_jsonl_matches_the_reference_reader(tmp_path_factory, lines, newline, bom,
                                                 final_newline):
    text = ("\ufeff" if bom else "") + newline.join(lines) + (newline if final_newline else "")
    path = tmp_path_factory.mktemp("jsonl") / "rows.jsonl"
    path.write_bytes(text.encode("utf-8"))
    got = outcome(lambda: list(read_jsonl(str(path), ("id", "text"))))
    want = outcome(lambda: list(reference_read_jsonl(str(path), ("id", "text"))))
    assert got == want


@pytest.mark.parametrize("line", JSONL_LINES)
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_read_jsonl_matches_the_reference_reader_on_each_line(tmp_path, line, newline):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(f'{{"id": "z", "text": "x"}}{newline}{line}{newline}'.encode("utf-8"))
    got = outcome(lambda: list(read_jsonl(str(path), ("id", "text"))))
    want = outcome(lambda: list(reference_read_jsonl(str(path), ("id", "text"))))
    assert got == want


CONFIG = RetrievalConfig(dim=32, expected_clusters=8, branching=3, beam_size=50, k_clusters=20,
                         seed=6)
BASE = topic_corpus(5, 12, seed=6)
QUERIES = [" ".join(doc.text.split()[:5]) for doc in BASE[::7]]
CLI_FLAGS = ["--dim", "32", "--expected-clusters", "8", "--branching", "3", "--beam-size", "50",
             "--k-clusters", "20", "--seed", "6"]


def tree_state(index):
    """Leaf members and rows, the CID of every document in attach order, and results."""
    leaves = {cid: (list(leaf.members), leaf.rows.tolist())
              for cid, leaf in index.tree.leaves.items()}
    return leaves, list(index.tree.cid_by_doc.items()), [retrieve(index, q, 10) for q in QUERIES]


def run(*argv):
    assert main(list(argv)) == 0, argv


def late_corpus(tmp_path, batch):
    """A corpus file of six documents for add-docs; returns its path."""
    path = tmp_path / f"add{batch}.jsonl"
    save_corpus([Document(f"late{batch}_{i}", doc.text)
                 for i, doc in enumerate(topic_corpus(3, 2, seed=7 + batch))], str(path))
    return str(path)


@pytest.fixture
def added_index(tmp_path):
    """An index directory built by the CLI and grown by two add-docs."""
    save_corpus(BASE, str(tmp_path / "base.jsonl"))
    run("build-index", "--corpus", str(tmp_path / "base.jsonl"), "--out", str(tmp_path / "idx"),
        *CLI_FLAGS)
    for batch in range(2):
        run("add-docs", "--index", str(tmp_path / "idx"), "--corpus", late_corpus(tmp_path, batch))
    return tmp_path / "idx"


def assert_equals_a_full_save(directory, tmp_path):
    full = tmp_path / "full"
    save_index(load_index(str(directory)), str(full))
    assert_same_files(directory, full)


def int32(value):
    return np.array([value], dtype="<i4").tobytes()


@pytest.mark.parametrize("damage", [
    pytest.param(lambda data, leaves: data[:-1], id="truncated"),
    pytest.param(lambda data, leaves: data + data[-4:], id="one-too-many"),
    pytest.param(lambda data, leaves: data[:-4], id="one-too-few"),
    pytest.param(lambda data, leaves: data[:-4] + int32(-1), id="minus-one"),
    pytest.param(lambda data, leaves: data[:-4] + int32(leaves), id="leaf-count"),
])
def test_load_index_rejects_bad_placements_naming_the_file(added_index, damage):
    path = added_index / "placements.bin"
    data = path.read_bytes()
    assert len(data) == 4 * 12
    path.write_bytes(damage(data, load_index(str(added_index)).tree.leaf_count))
    with pytest.raises(ParseError, match="placements.bin"):
        load_index(str(added_index))


def edit_json(change):
    """A damage that passes a JSON file's object through `change`."""
    def damage(data):
        obj = json.loads(data)
        change(obj)
        return json.dumps(obj).encode("utf-8")
    return damage


def set_root_label(obj):
    obj["root"]["label"] = 1


def set_first_child_label(obj):
    obj["root"]["children"][0]["label"] = 0


def rename_a_member(obj):
    node = obj["root"]
    while node["children"]:
        node = node["children"][0]
    node["members"][0] = "ghost"


def move_a_leaf_member_up(to_root):
    """A change that moves a member of the first leaf into its parent, or into the root."""
    def change(obj):
        nodes = [obj["root"]]
        while nodes[-1]["children"]:
            nodes.append(nodes[-1]["children"][0])
        assert len(nodes) > 2  # the first leaf's parent is not the root
        nodes[0 if to_root else -2]["members"].append(nodes[-1]["members"].pop())
    return change


def rename_first_id(obj):
    obj["ids"][0] = "ghost"


def repeat_first_id(obj):
    obj["ids"][1] = obj["ids"][0]


def append_ff(data):
    return data + b"\xff"  # a byte that never occurs in UTF-8


def delete(data):
    return None  # the file is removed


CENTROID = 4 * CONFIG.dim  # bytes


def write_float(offset, value):
    """A damage that overwrites the float32 at byte `offset` with `value`."""
    return lambda data: data[:offset] + np.array([value], "<f4").tobytes() + data[offset + 4:]


@pytest.mark.parametrize("name, damage", [
    pytest.param("corpus.jsonl", append_ff, id="corpus-0xff"),
    pytest.param("tree.json", append_ff, id="tree-0xff"),
    pytest.param("tree.json", lambda data: data[:-2], id="tree-invalid-json"),
    pytest.param("tree.json", lambda data: b"[]", id="tree-not-an-object"),
    pytest.param("tree.json", edit_json(lambda obj: obj.pop("dim")), id="tree-without-dim"),
    pytest.param("tree.json", edit_json(set_root_label), id="tree-root-label"),
    pytest.param("tree.json", edit_json(set_first_child_label), id="tree-child-label"),
    pytest.param("tree.json", edit_json(rename_a_member), id="tree-foreign-member"),
    pytest.param("tree.json", edit_json(move_a_leaf_member_up(False)), id="internal-node-members"),
    pytest.param("tree.json", edit_json(move_a_leaf_member_up(True)), id="root-members"),
    pytest.param("centroids.bin", lambda data: data[:-CENTROID], id="centroids-one-too-few"),
    pytest.param("centroids.bin", lambda data: data + data[-CENTROID:],
                 id="centroids-one-too-many"),
    pytest.param("centroids.bin", lambda data: data[:-1], id="centroids-truncated"),
    pytest.param("centroids.bin", write_float(CENTROID, np.nan), id="centroids-nan"),
    pytest.param("manifest.json", append_ff, id="manifest-0xff"),
    pytest.param("manifest.json", lambda data: data[:-2], id="manifest-invalid-json"),
    pytest.param("manifest.json", lambda data: b"{}", id="manifest-without-keys"),
    pytest.param("manifest.json", edit_json(rename_first_id), id="manifest-foreign-id"),
    pytest.param("manifest.json", edit_json(repeat_first_id), id="manifest-repeated-id"),
    pytest.param("embeddings.bin", lambda data: data[:-1], id="embeddings-truncated"),
    pytest.param("embeddings.bin", write_float(0, np.nan), id="embeddings-nan"),
    pytest.param("config.json", append_ff, id="config-0xff"),
    pytest.param("config.json", lambda data: data[:-2], id="config-invalid-json"),
    pytest.param("config.json", lambda data: b"[]", id="config-not-an-object"),
    pytest.param("adapter.bin", lambda data: data[:-1], id="adapter-truncated"),
    pytest.param("adapter.bin", write_float(0, np.inf), id="adapter-inf"),
    pytest.param("adapter.json", delete, id="adapter-meta-missing"),
    pytest.param("adapter.json", lambda data: b"[]", id="adapter-meta-not-an-object"),
    pytest.param("adapter.json", edit_json(lambda obj: obj.update(dim=3)), id="adapter-meta-dim"),
    pytest.param("placements.bin", lambda data: data[:-1], id="placements-truncated"),
    pytest.param("settings.json", append_ff, id="config-flag-0xff"),
])
def test_a_damaged_file_is_a_parse_error_naming_it_and_exits_2(added_index, tmp_path, capsys,
                                                                name, damage):
    index = load_index(str(added_index))
    index.adapter = LinearAdapter.identity(CONFIG.dim)
    save_settings(index, str(added_index))
    if name == "settings.json":  # a --config file, read before any index
        path = tmp_path / name
        path.write_text('{"beta": 0.5}\n')
        load, target = read_config_file, path
        argv = ["build-index", "--corpus", str(tmp_path / "base.jsonl"),
                "--out", str(tmp_path / "other"), "--config", str(path)]
    else:
        path = added_index / name
        load, target = load_index, added_index
        argv = ["inspect", "--index", str(added_index)]
    data = damage(path.read_bytes())
    if data is None:
        path.unlink()
    else:
        path.write_bytes(data)
    with pytest.raises(ParseError, match=re.escape(name)):
        load(str(target))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:") and name in err


def test_directory_without_placements_loads_the_same_and_the_next_add_writes_them(
        added_index, tmp_path):
    placed = load_index(str(added_index))
    (added_index / "placements.bin").unlink()
    assert tree_state(load_index(str(added_index))) == tree_state(placed)
    run("add-docs", "--index", str(added_index), "--corpus", late_corpus(tmp_path, 2))
    assert len((added_index / "placements.bin").read_bytes()) == 4 * 18
    assert_equals_a_full_save(added_index, tmp_path)


def assert_the_tree_owns_the_document_matrix(index):
    documents = index.tree.documents
    assert index.embeddings is documents
    for leaf in index.tree.leaves.values():
        assert leaf.rows.tolist() == [documents.row[d] for d in leaf.members]
    assert set(index.tree.cid_by_doc) == set(documents.ids)


@pytest.mark.parametrize("batches", [0, 1, 3])
@pytest.mark.parametrize("placed", [True, False], ids=["with-placements", "without"])
def test_loaded_leaves_hold_their_members_rows_and_resave_the_same_placements(
        tmp_path, batches, placed):
    index = build_index(BASE, CONFIG)
    assert_the_tree_owns_the_document_matrix(index)
    for batch in range(batches):
        add_documents(index, [Document(f"late{batch}_{i}", doc.text)
                              for i, doc in enumerate(topic_corpus(3, 2, seed=7 + batch))])
        assert_the_tree_owns_the_document_matrix(index)
    save_index(index, str(tmp_path / "idx"))
    placements = (tmp_path / "idx" / "placements.bin").read_bytes()
    assert len(placements) == 4 * 6 * batches
    if not placed:
        (tmp_path / "idx" / "placements.bin").unlink()
    loaded = load_index(str(tmp_path / "idx"))
    assert_the_tree_owns_the_document_matrix(loaded)
    assert list(loaded.tree.cid_by_doc.items()) == list(index.tree.cid_by_doc.items())
    save_index(loaded, str(tmp_path / "again"))
    assert (tmp_path / "again" / "placements.bin").read_bytes() == placements


def test_swapping_two_added_documents_in_corpus_jsonl_keeps_their_leaves(added_index, tmp_path):
    """Loaded leaves follow the rows, not the corpus lines, and the next save
    writes corpus.jsonl back in row order and every other file as it was."""
    written = {name: (added_index / name).read_bytes() for name in os.listdir(added_index)}
    index = load_index(str(added_index))
    results = [retrieve(index, q, 10) for q in QUERIES]
    tree = index.tree
    before = tree.cid_by_doc
    built = {doc_id for members in tree.build_members.values() for doc_id in members}
    first, *rest = [doc_id for doc_id in before if doc_id not in built]
    other = next(doc_id for doc_id in rest if before[doc_id] != before[first])
    path = added_index / "corpus.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    i, j = (next(n for n, line in enumerate(lines) if json.loads(line)["id"] == doc_id)
            for doc_id in (first, other))
    lines[i], lines[j] = lines[j], lines[i]
    path.write_text("".join(lines), encoding="utf-8")
    loaded = load_index(str(added_index))
    assert list(loaded.tree.cid_by_doc.items()) == list(before.items())
    for leaf in loaded.tree.leaves.values():
        assert leaf.rows.tolist() == [loaded.embeddings.row[d] for d in leaf.members]
    save_index(loaded, str(tmp_path / "again"))
    again = {name: (tmp_path / "again" / name).read_bytes() for name in written}
    assert again["corpus.jsonl"] == written["corpus.jsonl"] != path.read_bytes()
    assert again == written
    assert [retrieve(loaded, q, 10) for q in QUERIES] == results


def test_add_docs_and_train_adapter_write_only_their_files_with_full_save_bytes(
        added_index, tmp_path):
    old = 10**18  # an mtime no write during the test can produce

    def unwritten_after(*argv):
        for name in os.listdir(added_index):
            os.utime(added_index / name, ns=(old, old))
        run(*argv)
        return {name for name in os.listdir(added_index)
                if os.stat(added_index / name).st_mtime_ns == old}

    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("".join(
        json.dumps({"query_id": f"p{i}", "query_text": " ".join(doc.text.split()[:6]),
                    "positive_doc_id": doc.doc_id}) + "\n" for i, doc in enumerate(BASE[::4])))
    assert unwritten_after("train-adapter", "--index", str(added_index), "--pairs", str(pairs),
                           "--epochs", "1") == {
        "corpus.jsonl", "embeddings.bin", "manifest.json", "placements.bin", "tree.json",
        "centroids.bin"}
    assert_equals_a_full_save(added_index, tmp_path / "after-train")
    assert unwritten_after("add-docs", "--index", str(added_index), "--corpus",
                           late_corpus(tmp_path, 3)) == {
        "tree.json", "centroids.bin", "config.json", "adapter.bin", "adapter.json"}
    assert_equals_a_full_save(added_index, tmp_path / "after-add")


VOCAB = sorted({word for doc in BASE for word in doc.text.split()})
TEXTS = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=12).map(" ".join)


@settings(max_examples=25, deadline=None)
@given(batches=st.lists(st.lists(TEXTS, max_size=6), min_size=1, max_size=3),
       duplicate=st.booleans(), pick=st.integers(0, 10**6), at=st.integers(0, 3))
def test_added_documents_survive_save_and_load_and_a_failed_add_changes_no_byte(
        tmp_path_factory, batches, duplicate, pick, at):
    index = build_index(BASE, CONFIG)
    for b, texts in enumerate(batches):
        add_documents(index, [Document(f"add{b}_{i}", text) for i, text in enumerate(texts)])
    directory = tmp_path_factory.mktemp("idx")
    save_index(index, str(directory))
    saved = {path.name: path.read_bytes() for path in directory.iterdir()}
    before = tree_state(index)
    assert tree_state(load_index(str(directory))) == before
    (directory / "placements.bin").unlink()
    assert tree_state(load_index(str(directory))) == before

    ids = list(index.embeddings)
    bad = Document(ids[pick % len(ids)], "alpha") if duplicate else Document("blank", " \t ")
    batch = [Document(f"fresh{i}", "alpha beta") for i in range(3)]
    batch.insert(at, bad)
    with pytest.raises(DuplicateId if duplicate else EmptyText):
        add_documents(index, batch)
    save_index(index, str(directory))
    assert {path.name: path.read_bytes() for path in directory.iterdir()} == saved


def test_load_add_save_and_train_build_no_trie_and_no_view(added_index, tmp_path,
                                                           monkeypatch):
    made, views, tries = [], [], []

    class CountedNode(cluster_tree.ClusterNode):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    view, build_trie = cluster_tree.ClusterTree._view, cluster_tree.build_trie
    monkeypatch.setattr(cluster_tree, "ClusterNode", CountedNode)
    monkeypatch.setattr(cluster_tree.ClusterTree, "_view", lambda tree, name, build: view(
        tree, name, lambda: views.append(name) or build()))  # counts builds, not reads
    monkeypatch.setattr(cluster_tree, "build_trie",
                        lambda cids: tries.append(1) or build_trie(cids))
    pairs = [TrainingPair(f"q{i}", doc.text, doc.doc_id) for i, doc in enumerate(BASE[::5])]
    for make in (lambda: load_index(str(added_index)), lambda: build_index(BASE, CONFIG)):
        index = make()
        add_documents(index, [Document("late", BASE[0].text)])
        save_documents(index, str(tmp_path))
        query_embeddings = {pair.query_id: index.embedder.embed(pair.query_text) for pair in pairs}
        index.adapter, _ = train_adapter(pairs, index.tree, query_embeddings, epochs=2)
        save_settings(index, str(tmp_path))
        assert (made, views, tries) == ([], [], [])
        retrieve(index, QUERIES[0], 10)
        assert (made, views, len(tries)) == ([], [], 1)
        root = index.tree.root  # node objects only on request
        assert len(made) == len(index.tree.centroid_rows) and root.children
        assert views == ["root", "leaves"]
        made.clear(), views.clear(), tries.clear()


def view_state(tree):
    """The `leaves`, `cid_by_doc` and `build_members` of a tree, or of a
    ReferenceLeafIndex, as plain data in iteration order."""
    leaves = [(cid, leaf.label, leaf.members, leaf.rows.tolist(), leaf.centroid.tolist(),
               leaf.children) for cid, leaf in tree.leaves.items()]
    return leaves, list(tree.cid_by_doc.items()), list(tree.build_members.items())


def reference_leaf_index(directory, documents):
    """ReferenceLeafIndex over an index directory's tree.json and centroids.bin."""
    root = json.loads((directory / "tree.json").read_text())["root"]
    centroids = np.fromfile(directory / "centroids.bin", "<f4").reshape(-1, CONFIG.dim)
    return ReferenceLeafIndex(root, centroids, documents)


@pytest.mark.parametrize("batches", [0, 1, 2, 3])
def test_the_views_equal_the_leaf_index_of_node_objects_built_added_and_loaded(tmp_path,
                                                                                batches):
    seen, fresh = build_index(BASE, CONFIG), build_index(BASE, CONFIG)
    view_state(seen.tree)  # cached from here on, and kept up to date by each add
    save_index(fresh, str(tmp_path / "built"))
    reference = reference_leaf_index(tmp_path / "built", seen.embeddings)
    for batch in range(batches):
        docs = [Document(f"late{batch}_{i}", doc.text)
                for i, doc in enumerate(topic_corpus(3, 2, seed=7 + batch))]
        for index in (seen, fresh):
            add_documents(index, docs)
        reference.place([doc.doc_id for doc in docs],
                        [reference_assign_new_document(seen.tree, seen.embeddings[doc.doc_id])
                         for doc in docs])
    assert view_state(seen.tree) == view_state(fresh.tree) == view_state(reference)
    directory = tmp_path / "idx"
    save_index(fresh, str(directory))
    positions = np.fromfile(directory / "placements.bin", "<i4").tolist()
    for placed in (True, False):  # from placements.bin, then by descent without it
        loaded = load_index(str(directory))
        reference = reference_leaf_index(directory, loaded.embeddings)
        added = [doc_id for doc_id in loaded.embeddings.ids if doc_id not in reference.cid_by_doc]
        leaf_cids = list(reference.leaves)
        reference.place(added, [leaf_cids[p] for p in positions] if placed else
                        [reference_assign_new_document(loaded.tree, loaded.embeddings[doc_id])
                         for doc_id in added])
        assert view_state(loaded.tree) == view_state(reference) == view_state(fresh.tree)
        (directory / "placements.bin").unlink(missing_ok=True)


def save_and_check_placements(tree, directory):
    """Save the tree and its placements into `directory`, check placements.bin
    against the descent reference, and return the bytes."""
    directory.mkdir(exist_ok=True)
    save_tree(tree, str(directory / "tree.json"), str(directory / "centroids.bin"))
    save_placements(tree, str(directory / "placements.bin"))
    reference_save_placements(tree, str(directory / "tree.json"), str(directory / "reference.bin"))
    placements = (directory / "placements.bin").read_bytes()
    assert placements == (directory / "reference.bin").read_bytes()
    return placements


@pytest.mark.parametrize("make_tree", [multi_level_tree, binary_depth2_tree])
def test_placements_bin_equals_the_descent_reference_after_build_adds_and_reload(
        tmp_path, make_tree):
    tree = make_tree()
    assert save_and_check_placements(tree, tmp_path / "built") == b""
    rng = np.random.default_rng(11)
    for batch, size in enumerate((5, 6)):
        ids = [f"late{batch}_{i}" for i in range(size)]
        tree.documents.append(ids, rng.standard_normal((size, tree.dim)))
        # the second batch is placed against its row order, one document at a time
        for chunk in ([ids] if batch == 0 else [[doc_id] for doc_id in reversed(ids)]):
            place_documents(tree, chunk)
        placements = save_and_check_placements(tree, tmp_path / f"batch{batch}")
    assert len({tree.cid_by_doc[doc_id] for doc_id in ids}) > 1  # so the order shows in the bytes
    documents = DocumentMatrix(tree.documents.ids, tree.documents.matrix)
    loaded = load_tree(str(tmp_path / "batch1/tree.json"), str(tmp_path / "batch1/centroids.bin"),
                       documents)
    load_placements(loaded, str(tmp_path / "batch1/placements.bin"))
    assert loaded.cid_by_doc == tree.cid_by_doc
    assert save_and_check_placements(loaded, tmp_path / "reloaded") == placements


def test_save_refuses_a_document_row_that_no_leaf_lists_before_writing_a_file(tmp_path):
    tree = binary_depth2_tree()
    tree.documents.append(["stray"], np.eye(1, 8, k=7, dtype=np.float32))
    index = add_documents(_assemble(list(tree.documents.ids), tree, None, RetrievalConfig(dim=8)),
                          [Document("late", "late words")])
    with pytest.raises(MissingCid, match="'stray'"):
        save_index(index, str(tmp_path / "fresh"))
    assert os.listdir(tmp_path / "fresh") == []
    index = build_index(BASE, CONFIG)
    save_index(index, str(tmp_path / "idx"))
    files = {name: (tmp_path / "idx" / name).read_bytes() for name in os.listdir(tmp_path / "idx")}
    add_documents(index, [Document("late", "late words")])
    index.tree.documents.append(["stray"], np.eye(1, 32, dtype=np.float32))
    with pytest.raises(MissingCid, match="'stray'"):
        save_documents(index, str(tmp_path / "idx"))
    assert {name: (tmp_path / "idx" / name).read_bytes() for name in files} == files


def test_save_refuses_a_placed_document_row_without_text_before_writing_a_file(tmp_path):
    index = build_index(BASE, CONFIG)
    save_index(index, str(tmp_path / "idx"))
    files = {name: (tmp_path / "idx" / name).read_bytes() for name in os.listdir(tmp_path / "idx")}
    index.tree.documents.append(["late"], np.eye(1, 32, dtype=np.float32))
    place_documents(index.tree, ["late"])
    with pytest.raises(EmptyText, match="'late'"):
        save_index(index, str(tmp_path / "fresh"))
    assert os.listdir(tmp_path / "fresh") == []
    with pytest.raises(EmptyText, match="'late'"):
        save_documents(index, str(tmp_path / "idx"))
    assert {name: (tmp_path / "idx" / name).read_bytes() for name in files} == files
