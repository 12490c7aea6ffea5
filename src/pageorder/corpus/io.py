"""Corpus persistence and splitting.

Corpora are stored as JSON Lines, one document per line with pages in
true order. Shuffles are always derived at runtime from a seed, never
persisted, so one file serves every experiment.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from pathlib import Path

import numpy as np

from ..errors import ConfigError, DomainError
from ..fileio import atomic_write
from ..numcore import RngStream
from .types import Document

__all__ = [
    "CorpusParseError",
    "CorpusFormatError",
    "SplitError",
    "save_corpus",
    "load_corpus",
    "corpus_digest",
    "split_corpus",
]


class CorpusParseError(ValueError):
    """A corpus line is not valid JSON or misses required fields."""


class CorpusFormatError(ValueError):
    """Documents disagree on embedding dimension or violate the schema."""


class SplitError(ConfigError):
    """Too few documents to split: a usage error, like an empty validation split."""


def save_corpus(docs: list[Document], path: str | Path) -> None:
    """Write documents as JSON Lines with shortest round-trip decimals, replacing ``path`` whole."""
    lines = []
    for doc in docs:
        record = {"doc_id": doc.doc_id, "dim": doc.dim, "pages": [[float(x) for x in page] for page in doc.pages]}
        lines.append(json.dumps(record, separators=(",", ":")) + "\n")
    atomic_write(path, "".join(lines))


def load_corpus(path: str | Path) -> list[Document]:
    """Read documents back; embeddings round-trip bit-exactly as float32.

    ``doc_id`` must be a JSON string, ``dim`` a JSON integer and ``pages`` equal-length lists of JSON numbers.
    """
    path = Path(path)
    docs: list[Document] = []
    corpus_dim: int | None = None
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusParseError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict) or not {"doc_id", "dim", "pages"} <= set(record):
                raise CorpusParseError(f"line {lineno}: missing doc_id/dim/pages")
            if type(record["doc_id"]) is not str:
                raise CorpusParseError(f"line {lineno}: doc_id must be a JSON string")
            if type(record["dim"]) is not int:
                raise CorpusParseError(f"line {lineno}: dim must be a JSON integer")
            pages = record["pages"]
            # exact types: a boolean is an int subclass, and numpy would read it or a numeric string as a number
            if (
                type(pages) is not list
                or any(type(page) is not list for page in pages)
                or not set(map(type, chain.from_iterable(pages))) <= {int, float}
            ):
                raise CorpusParseError(f"line {lineno}: pages must be lists of JSON numbers")
            try:
                pages = np.asarray(pages, dtype=np.float32)
            except ValueError as exc:
                raise CorpusParseError(f"line {lineno}: pages must be equal-length lists of numbers ({exc})") from exc
            if pages.ndim != 2 or pages.shape[1] != record["dim"]:
                raise CorpusParseError(f"line {lineno}: pages do not match declared dim {record['dim']}")
            if corpus_dim is None:
                corpus_dim = record["dim"]
            elif record["dim"] != corpus_dim:
                raise CorpusFormatError(
                    f"line {lineno}: dimension {record['dim']} differs from corpus dimension {corpus_dim}"
                )
            try:
                docs.append(Document(doc_id=record["doc_id"], pages=pages))
            except DomainError as exc:
                raise CorpusParseError(f"line {lineno}: {exc}") from exc
    return docs


def corpus_digest(docs: list[Document]) -> str:
    """First 16 hex digits of a sha256 over every document's id, shape and float32 page bytes.

    Each document is hashed on its own and the sorted hashes are hashed
    together, so the digest names the content in any document order.
    """
    per_doc = sorted(
        hashlib.sha256(
            json.dumps([doc.doc_id, list(doc.pages.shape)]).encode("utf-8") + doc.pages.astype("<f4").tobytes()
        ).digest()
        for doc in docs
    )
    return hashlib.sha256(b"".join(per_doc)).hexdigest()[:16]


# train, validation and test shares of a split
SPLIT_FRACTIONS = (0.70, 0.15, 0.15)


def split_corpus(docs: list[Document], seed: int = 0) -> tuple[list[Document], list[Document], list[Document]]:
    """Disjoint, exhaustive train/val/test split.

    Seeded shuffle then contiguous slicing; val and test get floor(n*f)
    documents each, f their ``SPLIT_FRACTIONS`` share, and the remainder
    goes to train. Under 7 documents, val or test would be empty: a SplitError.
    """
    n = len(docs)
    n_val = int(np.floor(n * SPLIT_FRACTIONS[1]))
    n_test = int(np.floor(n * SPLIT_FRACTIONS[2]))
    if n_val == 0 or n_test == 0:
        raise SplitError(f"cannot split {n} documents three ways")
    order = RngStream(seed).split("split").permutation(n)
    shuffled = [docs[i] for i in order]
    n_train = n - n_val - n_test
    return (
        shuffled[:n_train],
        shuffled[n_train : n_train + n_val],
        shuffled[n_train + n_val :],
    )
