"""Permutation-quality and analysis metrics.

All functions are pure and operate on plain numpy arrays. Orderings are
permutations of slot indices; ``truth_rank[k]`` is the true chronological
rank of the page sitting in shuffled slot ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "LocalityStats",
    "BucketMeans",
    "require_permutation",
    "kendall_tau",
    "mean_tau",
    "attention_locality",
    "LOCALITY_WINDOW",
]

# attention to a page at most this many positions away counts as local
LOCALITY_WINDOW = 2


@dataclass(frozen=True)
class LocalityStats:
    """Attention mass near the diagonal plus mean attention distance."""

    local_fraction: float
    avg_distance: float

    def __post_init__(self):
        if not 0.0 <= self.local_fraction <= 1.0:
            raise DomainError(f"local_fraction out of [0,1]: {self.local_fraction}")
        if self.avg_distance < 0.0:
            raise DomainError(f"avg_distance negative: {self.avg_distance}")


def require_permutation(values, n: int | None = None) -> np.ndarray:
    """Validate and return an int array that is a permutation of 0..n-1."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise DomainError(f"expected a 1-D permutation, got shape {arr.shape}")
    if n is None:
        n = arr.shape[0]
    if arr.shape[0] != n or not np.array_equal(np.sort(arr), np.arange(n)):
        raise DomainError(f"not a permutation of 0..{n - 1}: {arr.tolist()}")
    return arr.astype(np.int64)


def kendall_tau(pred: np.ndarray, truth_rank: np.ndarray) -> float:
    """Rank correlation between a predicted ordering and the truth.

    ``pred`` lists slot indices in predicted reading order. A slot pair is
    concordant when the predicted relative order matches the true relative
    order; tau = (concordant - discordant) / (n(n-1)/2), in [-1, 1].
    """
    pred = require_permutation(pred)
    n = pred.shape[0]
    if n < 2:
        raise DomainError("kendall_tau is undefined for fewer than 2 pages")
    truth_rank = require_permutation(truth_rank, n)
    # true ranks visited in predicted order; inversions = discordant pairs
    visited = truth_rank[pred]
    total = n * (n - 1) // 2
    discordant = int(np.count_nonzero(np.triu(visited[:, None] > visited[None, :], k=1)))
    concordant = total - discordant
    return (concordant - discordant) / total


@dataclass(frozen=True)
class BucketMeans:
    """Mean tau per length bucket plus the overall unweighted mean."""

    per_bucket: dict
    counts: dict
    overall: float


def mean_tau(instances, predictions) -> BucketMeans:
    """Aggregate per-instance tau by document length bucket.

    ``instances`` are ShuffledInstance objects, ``predictions`` aligned
    orderings. Buckets without documents are absent from the result.
    """
    from .corpus import bucket_of

    if len(instances) != len(predictions):
        raise DomainError(f"{len(instances)} instances vs {len(predictions)} predictions")
    taus: dict = {}
    all_taus = []
    for inst, pred in zip(instances, predictions):
        tau = kendall_tau(pred, inst.truth_rank)
        bucket = bucket_of(len(inst.truth_rank))
        taus.setdefault(bucket, []).append(tau)
        all_taus.append(tau)
    per_bucket = {b: float(np.mean(v)) for b, v in taus.items()}
    counts = {b: len(v) for b, v in taus.items()}
    overall = float(np.mean(all_taus)) if all_taus else float("nan")
    return BucketMeans(per_bucket=per_bucket, counts=counts, overall=overall)


def attention_locality(stacks: list[np.ndarray]) -> LocalityStats:
    """Fraction of attention mass within ``LOCALITY_WINDOW`` positions, plus mean distance.

    ``stacks`` holds arrays of shape (..., n, n), e.g. one per document.
    Every row must be a probability distribution; averaging is uniform over
    all rows, heads and layers.
    """
    fractions = []
    distances = []
    for stack in stacks:
        if stack.ndim < 2 or stack.shape[-1] != stack.shape[-2]:
            raise DomainError(f"attention stack must end in (n, n), got {stack.shape}")
        n = stack.shape[-1]
        rows = stack.reshape(-1, n)
        sums = rows.sum(axis=-1)
        if not np.allclose(sums, 1.0, atol=1e-5):
            raise DomainError("attention rows must sum to 1")
        dist = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
        tiled = np.tile(dist, (rows.shape[0] // n, 1))
        local = (tiled <= LOCALITY_WINDOW)
        fractions.append((rows * local).sum(axis=-1))
        distances.append((rows * tiled).sum(axis=-1))
    return LocalityStats(
        local_fraction=float(np.concatenate(fractions).mean()),
        avg_distance=float(np.concatenate(distances).mean()),
    )
