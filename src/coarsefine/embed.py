"""Deterministic hashed embeddings and the embedding sidecar format.

The default embedder maps unigram and bigram features to signed buckets of a
fixed-width vector and L2-normalizes the result. It is a pure function of
(text, dim, seed), so rebuilding an index under the same seed reproduces
every vector bit for bit.

Each feature is hashed with BLAKE2b keyed by the seed. The keyed state is
built once per seed and copied for every feature, so a feature costs one
compression instead of two (the key block is compressed only once).

Unigram digests are memoised per (key, token) in an LRU cache of
UNIGRAM_MEMO_SIZE entries: a corpus repeats a few thousand tokens across
hundreds of thousands of occurrences, so most unigrams cost one lookup. An
entry holds two short strings and an 8-byte digest, about 240 B as measured
with tracemalloc, so the memo stays under about 4 MB. Bigrams are mostly
distinct and are hashed once per occurrence.

A document's digests are read as one little-endian uint64 array, and the
signed bucket sums are counted by one np.bincount with +-1.0 weights. Every
partial sum is a small integer, which float64 holds exactly whatever the
order of addition, so the vector and its norm are the same bytes as when
every +-1 is added in float64 one feature at a time.

External embedders can replace it by supplying vectors through the sidecar
format: a little-endian float32 binary matrix plus a JSON manifest
{"dim": ..., "ids": [...]} giving the row order.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections import Counter
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .corpus import read_array, read_json_object, tokenize
from .errors import BadDim, DimMismatch, DuplicateId, EmptyText, ParseError

MIN_DIM = 8
UNIGRAM_MEMO_SIZE = 2**14


@functools.lru_cache(maxsize=32)
def _keyed_state(key: bytes):
    # Only ever copied, never updated, so concurrent callers can share it.
    return hashlib.blake2b(digest_size=8, key=key)


@functools.lru_cache(maxsize=UNIGRAM_MEMO_SIZE)
def _unigram_digest(key: bytes, token: str) -> bytes:
    """The 8-byte digest of the unigram feature "1:<token>" under `key`."""
    state = _keyed_state(key).copy()
    state.update(f"1:{token}".encode("utf-8", "surrogatepass"))
    return state.digest()


def hash_embed(text: str, dim: int, seed: int = 0) -> np.ndarray:
    """Signed feature-hash embedding of unigrams and bigrams, unit L2 norm.

    The norm is never zero: n >= 1 tokens give 2n - 1 features, an odd number
    of +-1 terms, so the bucket sums add up to an odd number and at least one
    bucket is nonzero.

    Raises EmptyText when the text has no tokens and BadDim when dim < 8.
    """
    if dim < MIN_DIM:
        raise BadDim(f"dim must be >= {MIN_DIM}, got {dim}")
    tokens = tokenize(text)
    if not tokens:
        raise EmptyText("text has no tokens")
    key = str(seed).encode("utf-8")[:64]
    keyed = _keyed_state(key)
    digests = [_unigram_digest(key, t) for t in tokens]
    for a, b in zip(tokens, tokens[1:]):
        state = keyed.copy()
        state.update(f"2:{a} {b}".encode("utf-8", "surrogatepass"))
        digests.append(state.digest())
    h = np.frombuffer(b"".join(digests), dtype="<u8")
    buckets = ((h >> 1) % dim).astype(np.intp)
    vec = np.bincount(buckets, weights=(h & 1) * 2.0 - 1.0, minlength=dim)
    return (vec / float(np.linalg.norm(vec))).astype(np.float32)


@dataclass(frozen=True)
class HashingEmbedder:
    dim: int = 256
    seed: int = 0

    def embed(self, text: str) -> np.ndarray:
        return hash_embed(text, self.dim, self.seed)


@dataclass(frozen=True)
class QueryRepresentation:
    """Pooled query vector, the input of a step scorer."""

    pooled: np.ndarray


class DocumentMatrix(Mapping[str, np.ndarray]):
    """Document vectors as one float32 [N, dim] matrix, looked up by id.

    Row i belongs to ids[i]. The matrix is an index's one registry of
    documents: it raises DuplicateId, before it changes anything, for an id
    repeated at construction or, on append(), for an id that already has a
    row or repeats within the call. Values are row views of the one matrix,
    not copies; append() replaces the matrix by a grown one, so the old rows
    are released unless a caller still holds a view of them.
    """

    def __init__(self, ids: Sequence[str], matrix: np.ndarray):
        if matrix.ndim != 2 or matrix.shape[0] != len(ids):
            raise DimMismatch("document matrix must have one row per id")
        self.ids = list(ids)
        self.matrix = matrix
        self.row = {doc_id: i for i, doc_id in enumerate(self.ids)}
        if len(self.row) != len(self.ids):  # a repeated id's row is that of its last copy
            repeated = next(doc_id for i, doc_id in enumerate(self.ids) if self.row[doc_id] != i)
            raise DuplicateId(f"duplicate document id {repeated!r}")

    def __getitem__(self, doc_id: str) -> np.ndarray:
        return self.matrix[self.row[doc_id]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def append(self, ids: Sequence[str], vectors: Sequence[np.ndarray]) -> None:
        """Add one row per id at the end. The ids are checked first, so one that
        is already here or repeats in `ids` changes nothing; DuplicateId names
        what the constructor over all ids would: the first id here, in row
        order, that the call repeats, else the first id the call repeats. The
        id bookkeeping grows by the new ids only; the matrix is copied whole."""
        ids = list(ids)
        new = np.asarray(vectors, dtype=np.float32).reshape(len(ids), self.matrix.shape[1])
        row = self.row
        if len(set(ids)) < len(ids) or any(doc_id in row for doc_id in ids):
            known = [doc_id for doc_id in ids if doc_id in row]
            repeated = (min(known, key=row.__getitem__) if known
                        else next(doc_id for doc_id, n in Counter(ids).items() if n > 1))
            raise DuplicateId(f"duplicate document id {repeated!r}")
        self.matrix = np.concatenate([self.matrix, new])
        row.update(zip(ids, range(len(self.ids), len(self.ids) + len(ids))))
        self.ids += ids


def save_embedding_sidecar(
    ids: list[str], matrix: np.ndarray, bin_path: str, manifest_path: str
) -> None:
    matrix = np.asarray(matrix, dtype=np.float32)
    if matrix.ndim != 2 or matrix.shape[0] != len(ids):
        raise DimMismatch("embedding matrix must have one row per id")
    with open(bin_path, "wb") as fh:
        fh.write(np.ascontiguousarray(matrix, dtype="<f4"))
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"dim": int(matrix.shape[1]), "ids": list(ids)}, sort_keys=True))
        fh.write("\n")


def load_embedding_sidecar(bin_path: str, manifest_path: str) -> tuple[list[str], np.ndarray]:
    manifest = read_json_object(manifest_path)
    dim, ids = manifest.get("dim"), manifest.get("ids")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1 or not isinstance(ids, list):
        raise ParseError(f"{manifest_path}: manifest needs an int 'dim' >= 1 and an 'ids' list")
    if not all(isinstance(doc_id, str) for doc_id in ids):
        raise ParseError(f"{manifest_path}: every id must be a string")
    if len(set(ids)) != len(ids):
        repeated = next(doc_id for doc_id, n in Counter(ids).items() if n > 1)
        raise ParseError(f"{manifest_path}: id {repeated!r} appears more than once")
    return ids, read_array(bin_path, "<f4", (len(ids), dim))
