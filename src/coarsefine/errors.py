"""Exception types shared across the package.

Domain errors map to CLI exit code 1, input/format errors to exit code 2.
"""

from __future__ import annotations


class RetrievalError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ParseError(RetrievalError):
    """A corpus, query, or config file is malformed."""

    exit_code = 2

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class DuplicateId(RetrievalError):
    """A document or query id appears more than once."""


class EmptyText(RetrievalError):
    """Text has no tokens after whitespace tokenization."""


class BadDim(RetrievalError):
    """Requested embedding dimension is too small."""


class EmptyCorpus(RetrievalError):
    """An operation that needs documents received none."""


class UnknownDoc(RetrievalError):
    """A document id is not present in the tree or index."""


class UnknownCid(RetrievalError):
    """A cluster identifier is not present in the tree or trie."""


class InvalidPrefix(RetrievalError):
    """A digit sequence is not a prefix of any stored identifier."""


class EmptySet(RetrievalError):
    """A trie cannot be built from zero identifiers."""


class BeamTooSmall(RetrievalError):
    """Beam width is smaller than the number of requested hypotheses."""


class DimMismatch(RetrievalError):
    """Two vectors (or a vector and an index) disagree on dimension."""


class BadEmbedding(RetrievalError, ValueError):
    """A supplied document embedding is not finite and unit length."""


class MissingCid(RetrievalError):
    """A document that an overlap computation or a save refers to has no identifier."""


class MissingQrel(RetrievalError):
    """A query in a results set has no relevance judgments."""


class DivergedLoss(RetrievalError):
    """Adapter training produced a non-finite loss."""


class EmptyIndex(RetrievalError):
    """Retrieval was attempted against an index with no documents."""
