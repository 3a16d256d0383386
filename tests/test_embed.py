import json
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsefine.embed import (
    UNIGRAM_MEMO_SIZE,
    DocumentMatrix,
    HashingEmbedder,
    _unigram_digest,
    hash_embed,
    load_embedding_sidecar,
    save_embedding_sidecar,
)
from coarsefine.errors import BadDim, DuplicateId, EmptyText, ParseError
from coarsefine.kmeans import derive_seed
from helpers import reference_hash_embed

EXACT_DIMS = (8, 13, 256)
EXACT_SEEDS = (0, 1, derive_seed(0, "embed"))
# Letters, marks, numbers, punctuation and symbols: never whitespace, always UTF-8.
TOKEN = st.text(st.characters(whitelist_categories=("L", "M", "N", "P", "S")),
                min_size=1, max_size=6)
SEPARATOR = st.sampled_from([" ", "  ", "\t", "\n", "\u00a0", "\u2003", "\u3000"])


@st.composite
def texts(draw):
    """Texts over a small token pool, so tokens and bigrams repeat."""
    pool = draw(st.lists(TOKEN, min_size=1, max_size=5))
    tokens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    seps = draw(st.lists(SEPARATOR, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return seps[0] + "".join(t + s for t, s in zip(tokens, seps[1:]))


def assert_matches_reference(text):
    # Seeds vary fastest, so a keyed state cached for one seed is always
    # followed by a call under another.
    for dim in EXACT_DIMS:
        for seed in EXACT_SEEDS + EXACT_SEEDS[::-1]:
            got = hash_embed(text, dim, seed)
            assert got.tobytes() == reference_hash_embed(text, dim, seed).tobytes()


def test_hash_embed_is_unit_norm_float32():
    vec = hash_embed("some words to hash", dim=64)
    assert vec.dtype == np.float32
    assert vec.shape == (64,)
    assert abs(float(np.linalg.norm(vec)) - 1.0) < 1e-6


def test_hash_embed_deterministic_and_seed_sensitive():
    a = hash_embed("alpha beta gamma", dim=32, seed=0)
    b = hash_embed("alpha beta gamma", dim=32, seed=0)
    c = hash_embed("alpha beta gamma", dim=32, seed=1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_hash_embed_word_order_matters():
    # bigram features distinguish permutations of the same unigrams
    ab = hash_embed("alpha beta", dim=64)
    ba = hash_embed("beta alpha", dim=64)
    assert not np.array_equal(ab, ba)


def test_hash_embed_rejects_token_free_text():
    with pytest.raises(EmptyText):
        hash_embed("", dim=16)


def test_hash_embed_rejects_tiny_dim():
    with pytest.raises(BadDim):
        hash_embed("words", dim=4)


def test_shared_tokens_raise_similarity():
    q = hash_embed("red apple orchard", dim=128)
    near = hash_embed("red apple pie", dim=128)
    far = hash_embed("quantum flux capacitor", dim=128)
    assert float(q @ near) > float(q @ far)


def test_a_lone_surrogate_embeds_as_its_own_feature():
    vec = hash_embed("hello \udc80 world", 64)
    assert vec.dtype == np.float32
    assert abs(float(np.linalg.norm(vec)) - 1.0) < 1e-6
    assert not np.array_equal(vec, hash_embed("hello world", 64))
    assert not np.array_equal(vec, hash_embed("hello \ud800 world", 64))


def test_embedder_wraps_hash_embed():
    emb = HashingEmbedder(dim=32, seed=5)
    assert np.array_equal(emb.embed("x y"), hash_embed("x y", dim=32, seed=5))


def test_sidecar_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    ids = [f"d{i}" for i in range(7)]
    matrix = rng.standard_normal((7, 16)).astype(np.float32)
    bin_path, man_path = str(tmp_path / "emb.bin"), str(tmp_path / "emb.json")
    save_embedding_sidecar(ids, matrix, bin_path, man_path)
    ids2, matrix2 = load_embedding_sidecar(bin_path, man_path)
    assert ids2 == ids
    assert matrix2.tobytes() == matrix.tobytes()


def test_sidecar_rejects_size_mismatch(tmp_path):
    ids = ["a", "b"]
    matrix = np.zeros((2, 8), dtype=np.float32)
    bin_path, man_path = str(tmp_path / "emb.bin"), str(tmp_path / "emb.json")
    save_embedding_sidecar(ids, matrix, bin_path, man_path)
    with open(bin_path, "ab") as fh:
        fh.write(b"\x00\x00\x00\x00")
    with pytest.raises(ParseError):
        load_embedding_sidecar(bin_path, man_path)


def write_manifest(tmp_path, manifest, rows):
    bin_path, man_path = str(tmp_path / "emb.bin"), str(tmp_path / "emb.json")
    np.zeros((rows, 4), dtype="<f4").tofile(bin_path)
    with open(man_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return bin_path, man_path


@pytest.mark.parametrize("ids", [[0, 1], ["a", None]])
def test_sidecar_rejects_ids_that_are_not_strings(tmp_path, ids):
    bin_path, man_path = write_manifest(tmp_path, {"dim": 4, "ids": ids}, rows=2)
    with pytest.raises(ParseError, match=re.escape(man_path)):
        load_embedding_sidecar(bin_path, man_path)


def test_sidecar_rejects_a_boolean_dim(tmp_path):
    bin_path, man_path = write_manifest(tmp_path, {"dim": True, "ids": ["a", "b", "c", "d"]},
                                        rows=1)
    with pytest.raises(ParseError, match=re.escape(man_path)):
        load_embedding_sidecar(bin_path, man_path)


@settings(max_examples=150, deadline=None)
@given(texts())
def test_hash_embed_is_bit_identical_to_the_per_feature_reference(text):
    assert_matches_reference(text)


@pytest.mark.parametrize("text", [
    "solo", "Ünïcödé", "日本語", "x" * 200, "repeat repeat repeat repeat",
    "a\u3000b\u00a0a\u2003b", "\t  mixed\nCASE case  \u3000",
])
def test_hash_embed_matches_the_reference_on_fixed_texts(text):
    assert_matches_reference(text)


def test_threads_sharing_the_cached_keyed_state_match_the_reference():
    _unigram_digest.cache_clear()
    corpus = [f"t{i} shared words t{i % 7} more" for i in range(60)]
    expected = {(t, s): reference_hash_embed(t, 64, s).tobytes()
                for t in corpus for s in EXACT_SEEDS}
    mismatches = []

    def work(offset):
        for i, text in enumerate(corpus):
            seed = EXACT_SEEDS[(i + offset) % len(EXACT_SEEDS)]
            if hash_embed(text, 64, seed).tobytes() != expected[(text, seed)]:
                mismatches.append((text, seed))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def assert_bytes_match_reference(text, dim, seed):
    assert hash_embed(text, dim, seed).tobytes() == reference_hash_embed(text, dim, seed).tobytes()


def test_cold_and_warm_unigram_memo_give_the_reference_bytes():
    text = "cold warm cold memo warm warm"
    _unigram_digest.cache_clear()
    assert_bytes_match_reference(text, 64, 0)
    misses = _unigram_digest.cache_info().misses
    assert_bytes_match_reference(text, 64, 0)
    info = _unigram_digest.cache_info()
    assert info.misses == misses and info.hits >= len(text.split())


def test_seeds_interleaved_over_shared_tokens_keep_their_own_digests():
    texts = ["shared alpha beta", "beta shared gamma", "gamma alpha shared shared"]
    _unigram_digest.cache_clear()
    for _ in range(2):
        for text in texts:
            assert_matches_reference(text)


def test_evicted_unigrams_are_hashed_again_to_the_same_bytes():
    early = "early bird early worm"
    _unigram_digest.cache_clear()
    assert_bytes_match_reference(early, 64, 0)
    flood = [f"flood{i}" for i in range(UNIGRAM_MEMO_SIZE + 100)]
    for start in range(0, len(flood), 1000):
        hash_embed(" ".join(flood[start:start + 1000]), 64, 0)
    assert _unigram_digest.cache_info().currsize == UNIGRAM_MEMO_SIZE
    misses = _unigram_digest.cache_info().misses
    assert_bytes_match_reference(early, 64, 0)
    assert _unigram_digest.cache_info().misses == misses + len(set(early.split()))


@pytest.mark.parametrize("text", ["1:x x", "2:a a 2:a", "1:x 2:a x a 1:1:x", "2:a b a b"])
def test_tokens_that_look_like_feature_prefixes_match_the_reference(text):
    assert_matches_reference(text)


def test_unigram_memo_is_bounded():
    assert _unigram_digest.cache_info().maxsize == UNIGRAM_MEMO_SIZE < float("inf")


@pytest.mark.parametrize("ids", [["a", "b", "a"], ["a", "a"], ["b", "a", "c", "c"],
                                 ["a", "b", "b", "a"]])
def test_document_matrix_refuses_a_repeated_id_at_construction(ids):
    repeated = next(doc_id for doc_id in ids if ids.count(doc_id) > 1)
    with pytest.raises(DuplicateId) as raised:
        DocumentMatrix(ids, np.eye(len(ids), 8, dtype=np.float32))
    assert str(raised.value) == f"duplicate document id {repeated!r}"


@pytest.mark.parametrize("ids, repeated", [
    pytest.param(["c", "a"], "a", id="has-a-row"),
    pytest.param(["c", "d", "c"], "c", id="repeated-in-the-call"),
    pytest.param(["b", "b"], "b", id="repeated-pair"),
])
def test_document_matrix_append_refuses_a_known_or_repeated_id_and_changes_nothing(
        ids, repeated):
    documents = DocumentMatrix(["a"], np.eye(1, 8, dtype=np.float32))
    matrix = documents.matrix
    with pytest.raises(DuplicateId) as raised:
        documents.append(ids, np.eye(len(ids), 8, k=1, dtype=np.float32))
    assert str(raised.value) == f"duplicate document id {repeated!r}"
    assert documents.ids == ["a"] and documents.row == {"a": 0}
    assert documents.matrix is matrix and matrix.tolist() == np.eye(1, 8).tolist()
    documents.append(["b", "c"], np.eye(2, 8, k=1, dtype=np.float32))
    assert documents.ids == ["a", "b", "c"] and documents.row == {"a": 0, "b": 1, "c": 2}


@settings(max_examples=300, deadline=None)
@given(held=st.lists(st.sampled_from("abcdefg"), unique=True, max_size=5),
       ids=st.lists(st.sampled_from("abcdefghij"), max_size=6))
def test_document_matrix_append_names_and_keeps_what_the_constructor_over_all_ids_would(held,
                                                                                         ids):
    documents = DocumentMatrix(held, np.eye(len(held), 8, dtype=np.float32))
    vectors = np.eye(len(ids), 8, k=2, dtype=np.float32)
    try:  # the path append took before it grew its bookkeeping by the new ids only
        whole = DocumentMatrix(held + ids, np.concatenate([documents.matrix, vectors]))
    except DuplicateId as exc:
        before, matrix = (list(documents.ids), list(documents.row.items())), documents.matrix
        with pytest.raises(DuplicateId) as raised:
            documents.append(ids, vectors)
        assert str(raised.value) == str(exc)
        assert (documents.ids, list(documents.row.items())) == before
        assert documents.matrix is matrix
        return
    documents.append(tuple(ids), vectors)
    assert documents.ids == whole.ids and list(documents.row.items()) == list(whole.row.items())
    assert documents.matrix.tobytes() == whole.matrix.tobytes()

