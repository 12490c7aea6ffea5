"""Corpus domain types: documents, shuffled instances, length buckets."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..errors import DomainError

MIN_PAGES = 2
MAX_PAGES = 25


class LengthBucket(Enum):
    """Document-length ranges used for reporting and specialization."""

    B2_5 = (2, 5)
    B6_10 = (6, 10)
    B11_15 = (11, 15)
    B16_20 = (16, 20)
    B21_25 = (21, 25)

    @property
    def min_len(self) -> int:
        return self.value[0]

    @property
    def max_len(self) -> int:
        return self.value[1]

    @property
    def label(self) -> str:
        return f"{self.value[0]}-{self.value[1]}"


def bucket_of(length: int) -> LengthBucket:
    """Map a page count to its length bucket."""
    for bucket in LengthBucket:
        lo, hi = bucket.value
        if lo <= length <= hi:
            return bucket
    raise DomainError(f"length {length} outside supported range {MIN_PAGES}-{MAX_PAGES}")


@dataclass
class Document:
    """Pages in true chronological order; rows of ``pages`` are embeddings."""

    doc_id: str
    pages: np.ndarray  # (n_pages, dim) float32

    def __post_init__(self):
        self.pages = np.asarray(self.pages, dtype=np.float32)
        n = self.pages.shape[0]
        if self.pages.ndim != 2:
            raise DomainError(f"pages must be 2-D, got shape {self.pages.shape}")
        if not MIN_PAGES <= n <= MAX_PAGES:
            raise DomainError(f"document {self.doc_id} has {n} pages, outside {MIN_PAGES}-{MAX_PAGES}")
        if not np.isfinite(self.pages).all():
            raise DomainError(f"document {self.doc_id} contains non-finite embeddings")

    @property
    def n_pages(self) -> int:
        return self.pages.shape[0]

    @property
    def dim(self) -> int:
        return self.pages.shape[1]


@dataclass
class ShuffledInstance:
    """Permuted pages plus the hidden truth.

    ``truth_rank[k]`` is the true chronological rank (0-based) of the page
    sitting in shuffled slot ``k``.
    """

    doc_id: str
    pages: np.ndarray
    truth_rank: np.ndarray

    def __post_init__(self):
        self.pages = np.asarray(self.pages, dtype=np.float32)
        self.truth_rank = np.asarray(self.truth_rank, dtype=np.int64)
        n = self.pages.shape[0]
        if self.truth_rank.shape != (n,) or not np.array_equal(np.sort(self.truth_rank), np.arange(n)):
            raise DomainError(f"truth_rank is not a permutation of 0..{n - 1}")

    @property
    def n_pages(self) -> int:
        return self.pages.shape[0]
