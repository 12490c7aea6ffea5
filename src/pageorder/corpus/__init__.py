"""Corpus generation, persistence, splitting and shuffling."""

from .generate import DEFAULT_LENGTH_WEIGHTS, CorpusConfig, generate_corpus, shuffle_instance
from .io import (
    CorpusFormatError,
    CorpusParseError,
    SplitError,
    corpus_digest,
    load_corpus,
    save_corpus,
    split_corpus,
)
from .types import MAX_PAGES, MIN_PAGES, Document, LengthBucket, ShuffledInstance, bucket_of

__all__ = [
    "CorpusConfig",
    "DEFAULT_LENGTH_WEIGHTS",
    "generate_corpus",
    "shuffle_instance",
    "save_corpus",
    "load_corpus",
    "corpus_digest",
    "split_corpus",
    "CorpusParseError",
    "CorpusFormatError",
    "SplitError",
    "Document",
    "ShuffledInstance",
    "LengthBucket",
    "bucket_of",
    "MIN_PAGES",
    "MAX_PAGES",
]
