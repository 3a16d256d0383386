import json

import pytest

from coarsefine import Document, load_corpus, save_corpus, tokenize
from coarsefine.corpus import TrainingPair, load_queries, qrels_mapping, read_jsonl
from coarsefine.errors import DuplicateId, EmptyText, ParseError


def test_tokenize_lowercases_and_splits_on_whitespace():
    assert tokenize("The  quick\tFox") == ["the", "quick", "fox"]
    assert tokenize("") == []


def test_corpus_round_trip(tmp_path):
    docs = [Document("a", "alpha beta"), Document("b", "gamma")]
    path = tmp_path / "corpus.jsonl"
    save_corpus(docs, str(path))
    assert load_corpus(str(path)) == docs


def test_load_corpus_rejects_bad_json_with_line_number(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "ok"}\nnot json\n')
    with pytest.raises(ParseError) as exc:
        load_corpus(str(path))
    assert exc.value.line == 2


def test_load_corpus_rejects_missing_field(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a"}\n')
    with pytest.raises(ParseError):
        load_corpus(str(path))


@pytest.mark.parametrize("line", ['"just a string"', "[1, 2]", '{"id": 7, "text": "x"}',
                                  '{"text": "x"}'])
def test_read_jsonl_rejects_non_objects_and_missing_or_non_string_keys(tmp_path, line):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"id": "a", "text": "ok"}\n\n' + line + "\n")
    with pytest.raises(ParseError) as exc:
        list(read_jsonl(str(path), ("id", "text")))
    assert exc.value.line == 3


def test_read_jsonl_skips_blank_lines_and_yields_line_numbers(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"id": "a"}\n  \n{"id": "b", "extra": 1}\n')
    assert list(read_jsonl(str(path), ("id",))) == [(1, {"id": "a"}),
                                                    (3, {"id": "b", "extra": 1})]


def test_load_corpus_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n')
    with pytest.raises(DuplicateId):
        load_corpus(str(path))


def test_load_corpus_rejects_empty_text(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "  "}\n')
    with pytest.raises(ParseError) as exc:
        load_corpus(str(path))
    assert exc.value.line == 1


def test_save_corpus_rejects_token_free_document(tmp_path):
    with pytest.raises(EmptyText):
        save_corpus([Document("a", "   ")], str(tmp_path / "c.jsonl"))


def test_load_queries_and_qrels_mapping(tmp_path):
    path = tmp_path / "queries.jsonl"
    rows = [
        {"query_id": "q1", "query_text": "one", "relevant": ["a", "b"]},
        {"query_id": "q2", "query_text": "two"},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    records = load_queries(str(path))
    assert records[0].relevant == frozenset({"a", "b"})
    assert records[1].relevant == frozenset()
    assert qrels_mapping(records[:1]) == {"q1": frozenset({"a", "b"})}


def test_load_queries_can_require_relevance_judgments(tmp_path):
    path = tmp_path / "queries.jsonl"
    path.write_text('{"query_id": "q1", "query_text": "one"}\n')
    with pytest.raises(ParseError):
        load_queries(str(path), require_relevant=True)


def test_load_queries_rejects_duplicate_query_ids(tmp_path):
    path = tmp_path / "queries.jsonl"
    path.write_text(
        '{"query_id": "q", "query_text": "a"}\n{"query_id": "q", "query_text": "b"}\n'
    )
    with pytest.raises(DuplicateId):
        load_queries(str(path))


def test_training_pair_fields():
    pair = TrainingPair("q1", "some words", "d9")
    assert (pair.query_id, pair.positive_doc_id) == ("q1", "d9")
