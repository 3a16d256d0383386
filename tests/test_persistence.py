"""Index files are byte-identical to the streaming writers they replaced, and
the trie and JSONL reader behave exactly like the versions kept in helpers."""

import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsefine import Document, add_documents, build_index, load_index, save_index
from coarsefine.cluster_tree import build_cluster_tree, save_tree
from coarsefine.corpus import _has_tokens, read_jsonl, save_corpus, tokenize
from coarsefine.embed import save_embedding_sidecar
from coarsefine.errors import EmptySet, InvalidPrefix
from coarsefine.intra import LinearAdapter
from coarsefine.pipeline import RetrievalConfig
from coarsefine.trie import PrefixTrie
from helpers import (
    ReferencePrefixTrie,
    blob_embeddings,
    reference_read_jsonl,
    reference_save_corpus,
    reference_save_embedding_sidecar,
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
