"""Document records and the one reader of each file format.

Each reader turns a damaged file, bytes that are not UTF-8 included, into a
ParseError naming it: read_jsonl for JSONL files, read_json_object for
tree.json, manifest.json and config files, read_array for the .bin arrays.
read_jsonl streams a file line by line and decodes each line with the C
scanner that json.loads itself ends in, stripping the JSON whitespace around
the value first; what it accepts and rejects, and its messages, are those of
json.loads per line. The corpus writer joins each line from the ASCII string
escaper that json.dumps(..., sort_keys=True) calls for both values.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from json.scanner import make_scanner
from typing import Iterator, Sequence

import numpy as np

from .errors import DuplicateId, EmptyText, ParseError


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str


@dataclass(frozen=True)
class TrainingPair:
    """A query paired with the id of one relevant document."""

    query_id: str
    query_text: str
    positive_doc_id: str


@dataclass(frozen=True)
class QueryRecord:
    query_id: str
    text: str
    relevant: frozenset[str]


def tokenize(text: str) -> list[str]:
    """Lowercased whitespace tokens."""
    return text.lower().split()


def _has_tokens(text: str) -> bool:
    """bool(tokenize(text)) without building the tokens.

    split() and isspace() share one definition of whitespace, and lowercasing
    turns no other character into whitespace.
    """
    return text != "" and not text.isspace()


# json.loads minus its per-call argument handling and its two whitespace
# regex matches. A line starting with a BOM fails to decode here as it does
# there. The scanner clears its key memo after every call.
_scan_json = make_scanner(json.JSONDecoder())
_JSON_WHITESPACE = " \t\n\r"


def read_jsonl(path: str, keys: Sequence[str]) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for every non-blank line of a JSONL file.

    Raises ParseError, with the line number, for a line that is not valid
    JSON, not a JSON object, or lacks a string value under one of `keys`,
    and ParseError for bytes that are not UTF-8.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.isspace():  # a line read from a file is never ""
                    continue
                # No JSON value ends in whitespace, so the value must end where
                # the stripped line does.
                value = line.strip(_JSON_WHITESPACE)
                try:
                    obj, end = _scan_json(value, 0)
                except (StopIteration, json.JSONDecodeError, RecursionError):
                    end = -1
                if end != len(value):
                    raise ParseError(f"{path}: line {lineno}: invalid JSON", line=lineno)
                if not isinstance(obj, dict):
                    raise ParseError(f"{path}: line {lineno}: expected a JSON object",
                                     line=lineno)
                for key in keys:
                    if not isinstance(obj.get(key), str):
                        raise ParseError(f"{path}: line {lineno}: expected a string {key!r}",
                                         line=lineno)
                yield lineno, obj
    except UnicodeDecodeError:
        raise ParseError(f"{path}: invalid UTF-8")


def read_json_object(path: str) -> dict:
    """The JSON object a whole file holds; ParseError for anything else."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (ValueError, RecursionError):  # bad UTF-8, bad JSON, too deeply nested
        raise ParseError(f"{path}: invalid JSON")
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return obj


def read_array(path: str, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
    """The `dtype` values of a binary file as an array of `shape` (one entry
    may be -1); ParseError unless the file's bytes fill it exactly."""
    size = os.path.getsize(path)
    raw = np.fromfile(path, dtype=dtype)
    with contextlib.suppress(ValueError):
        if raw.nbytes == size:
            return raw.reshape(shape)
    raise ParseError(f"{path}: {size} bytes do not fill a {dtype} array of shape {shape}")


def require_finite(path: str, array: np.ndarray) -> np.ndarray:
    """`array`, read from `path`; ParseError naming the file if it holds a NaN or an
    infinity."""
    if not np.isfinite(array).all():
        raise ParseError(f"{path}: holds a value that is not finite")
    return array


def load_corpus(path: str) -> list[Document]:
    """Read a JSONL corpus of {"id", "text"} objects, checked as read_corpus checks it."""
    return list(map(Document, *read_corpus(path)))


def read_corpus(path: str) -> tuple[list[str], list[str]]:
    """The ids and the texts of a JSONL corpus of {"id", "text"} objects, in file order.

    Raises ParseError (with the offending line number) for malformed lines
    and DuplicateId for repeated document ids. Documents must have at least
    one token.
    """
    ids: list[str] = []
    texts: list[str] = []
    seen: set[str] = set()
    for lineno, obj in read_jsonl(path, ("id", "text")):
        doc_id, text = obj["id"], obj["text"]
        if not _has_tokens(text):
            raise ParseError(f"{path}: line {lineno}: document text is empty", line=lineno)
        if doc_id in seen:
            raise DuplicateId(f"duplicate document id {doc_id!r}")
        seen.add(doc_id)
        ids.append(doc_id)
        texts.append(text)
    return ids, texts


def save_corpus(docs: list[Document], path: str) -> None:
    _write_corpus([doc.doc_id for doc in docs], [doc.text for doc in docs], path)


def _write_corpus(ids: Sequence[str], texts: Sequence[str], path: str) -> None:
    """Write the corpus file of ids[i] paired with texts[i], in that order."""
    # refuse to write a file load_corpus would reject
    for doc_id, text in zip(ids, texts):
        if not _has_tokens(text):
            raise EmptyText(f"document {doc_id!r} has no tokens")
    # The bytes of json.dumps({"id": ..., "text": ...}, sort_keys=True) + "\n".
    esc = encode_basestring_ascii
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines('{"id": ' + esc(doc_id) + ', "text": ' + esc(text) + '}\n'
                      for doc_id, text in zip(ids, texts))


def load_queries(path: str, require_relevant: bool = False) -> list[QueryRecord]:
    """Read a JSONL query file of {"query_id", "query_text", "relevant": [...]}.

    The "relevant" list is optional unless require_relevant is set, in which
    case it must be present and non-empty.
    """
    records: list[QueryRecord] = []
    seen: set[str] = set()
    for lineno, obj in read_jsonl(path, ("query_id", "query_text")):
        qid, text = obj["query_id"], obj["query_text"]
        relevant = obj.get("relevant", [])
        if not isinstance(relevant, list) or not all(isinstance(r, str) for r in relevant):
            raise ParseError(f"{path}: line {lineno}: 'relevant' is not a list of strings",
                             line=lineno)
        if require_relevant and not relevant:
            raise ParseError(
                f"{path}: line {lineno}: query {qid!r} has no relevance judgments",
                line=lineno,
            )
        if qid in seen:
            raise DuplicateId(f"duplicate query id {qid!r}")
        seen.add(qid)
        records.append(QueryRecord(qid, text, frozenset(relevant)))
    return records


def qrels_mapping(records: list[QueryRecord]) -> dict[str, frozenset[str]]:
    return {r.query_id: r.relevant for r in records}

