"""Synthetic corpus generator.

Emulates a heterogeneous document collection at desk scale: page
embeddings mix a dominant page-type component with a weaker smooth
chronology curve, so pages adjacent in time are not nearest neighbors
but order remains learnable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..numcore import RngStream
from .types import Document, LengthBucket, ShuffledInstance

# Observed length distribution of the reference collection, per bucket
# 2-5 / 6-10 / 11-15 / 16-20 / 21-25 pages.
DEFAULT_LENGTH_WEIGHTS = (22.8, 30.8, 22.0, 14.4, 9.9)


@dataclass(frozen=True)
class CorpusConfig:
    """Knobs of the synthetic generator; byte-determinism follows from seed."""

    n_docs: int = 2000
    dim: int = 64
    length_weights: tuple = DEFAULT_LENGTH_WEIGHTS
    n_page_types: int = 12
    chrono_dim: int = 8
    chrono_strength: float = 0.6
    type_noise: float = 1.0
    page_noise: float = 0.15
    seed: int = 0

    def __post_init__(self):
        weights = np.asarray(self.length_weights, dtype=np.float64)
        if len(weights) != len(LengthBucket):
            raise ConfigError(f"need {len(LengthBucket)} length weights, got {len(weights)}")
        with np.errstate(over="ignore"):  # a sum past the float64 range reads inf and is refused below
            total = weights.sum()
        if (weights < 0).any() or not 0 < total < np.inf:
            raise ConfigError("length_weights must be non-negative with a positive, finite sum")
        if self.n_docs < 0:
            raise ConfigError("n_docs must be non-negative")
        if not 0 < self.chrono_dim < self.dim:
            raise ConfigError("chrono_dim must be positive and smaller than dim")
        if self.chrono_strength < 0 or self.type_noise < 0 or self.page_noise < 0:
            raise ConfigError("strengths must be non-negative")
        if self.n_page_types < 1:
            raise ConfigError("n_page_types must be positive")


class _ChronologyCurve:
    """Fixed random cosine mixture mapping t in [0,1] into a low-dim subspace.

    The frequency band reaches several periods over [0,1] on purpose:
    short documents sample the curve only at coarse positions, so a model
    trained on them cannot interpolate the fine structure that orders
    long documents, while the curve stays injective across dimensions.
    """

    N_WAVES = 3
    FREQ_LO = 0.5 * np.pi
    FREQ_HI = 6.0 * np.pi

    def __init__(self, rng: RngStream, dim: int, chrono_dim: int):
        self.amplitudes = rng.normal((chrono_dim, self.N_WAVES), dtype=np.float64)
        self.frequencies = rng.split("freq").uniform(
            (chrono_dim, self.N_WAVES), self.FREQ_LO, self.FREQ_HI, dtype=np.float64
        )
        self.phases = rng.split("phase").uniform((chrono_dim, self.N_WAVES), 0.0, 2.0 * np.pi, dtype=np.float64)
        basis = rng.split("basis").normal((dim, chrono_dim), dtype=np.float64)
        q, _ = np.linalg.qr(basis)
        self.basis = q[:, :chrono_dim]
        # normalize so the curve point norm averages 1 over t in [0,1]
        grid = self.evaluate_raw(np.linspace(0.0, 1.0, 101))
        self.scale = 1.0 / np.linalg.norm(grid, axis=0).mean()

    def evaluate_raw(self, t: np.ndarray) -> np.ndarray:
        angles = self.frequencies[:, :, None] * t[None, None, :] + self.phases[:, :, None]
        return (self.amplitudes[:, :, None] * np.cos(angles)).sum(axis=1)

    def embed(self, t: np.ndarray) -> np.ndarray:
        """Curve points for positions t, shape (len(t), dim)."""
        return (self.basis @ (self.evaluate_raw(t) * self.scale)).T


def generate_corpus(cfg: CorpusConfig) -> list[Document]:
    """Draw a corpus deterministically from the config.

    Each page is type_noise * (random unit type centroid)
    + chrono_strength * curve(position / (n-1)) + isotropic page noise.
    """
    root = RngStream(cfg.seed).split("corpus")
    weights = np.asarray(cfg.length_weights, dtype=np.float64)

    type_dirs = root.split("types").normal((cfg.n_page_types, cfg.dim), dtype=np.float64)
    type_dirs /= np.linalg.norm(type_dirs, axis=1, keepdims=True)
    curve = _ChronologyCurve(root.split("curve"), cfg.dim, cfg.chrono_dim)
    buckets = list(LengthBucket)

    docs: list[Document] = []
    for i in range(cfg.n_docs):
        doc_rng = root.split("doc").split(i)
        bucket = buckets[doc_rng.split("bucket").choice_weighted(weights)]
        n = int(doc_rng.split("len").integers(bucket.min_len, bucket.max_len + 1))
        t = np.arange(n, dtype=np.float64) / (n - 1)
        types = doc_rng.split("type").integers(0, cfg.n_page_types, size=n)
        noise = doc_rng.split("noise").normal((n, cfg.dim), dtype=np.float64)
        pages = (
            cfg.type_noise * type_dirs[types]
            + cfg.chrono_strength * curve.embed(t)
            + cfg.page_noise * noise
        )
        docs.append(Document(doc_id=f"doc{i:05d}", pages=pages.astype(np.float32)))
    return docs


def shuffle_instance(doc: Document, seed: int) -> ShuffledInstance:
    """Apply one uniformly random permutation drawn from the seeded stream.

    The permutation depends on both the seed and the document id, so one
    experiment seed fixes a distinct shuffle for every document.
    """
    perm = RngStream(seed).split("shuffle").split(doc.doc_id).permutation(doc.n_pages)
    # slot k holds the page whose original position (true rank) is perm[k]
    return ShuffledInstance(doc_id=doc.doc_id, pages=doc.pages[perm], truth_rank=perm)
