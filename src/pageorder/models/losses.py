"""Training losses; each returns one loss value per document in the batch."""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from ..numcore import Tensor, log_softmax

__all__ = ["ConsistencyError", "make_pairwise_targets", "loss_pairwise", "loss_pointer", "loss_position"]


class ConsistencyError(RuntimeError):
    """A teacher-forced label points at a masked slot."""


def make_pairwise_targets(truth_rank: np.ndarray) -> np.ndarray:
    """y[b, i, j] answers: does the page in slot j come after the one in slot i?

    ``truth_rank`` is a batch (B, n) of permutations; the diagonal is
    always False and y[b, i, j] xor y[b, j, i] holds off the diagonal.
    """
    tr = np.asarray(truth_rank)
    return tr[:, None, :] > tr[:, :, None]


def loss_pairwise(s: Tensor, y: np.ndarray) -> Tensor:
    """Mean binary cross-entropy of sigmoid(s) against y over off-diagonal pairs.

    ``s`` is (B, n, n) logits and ``y`` (B, n, n) targets; returns per-document losses (B,).
    """
    y = np.asarray(y)
    b, n = s.shape[0], s.shape[1]
    if y.shape != (b, n, n):
        raise DomainError(f"targets shape {y.shape} != scores shape {(b, n, n)}")
    off_diag = ~np.eye(n, dtype=bool)
    # bce(s, y) = softplus(s) - s*y, stable for any s
    per_pair = s.softplus() - s * y.astype(s.data.dtype)
    masked = per_pair * off_diag.astype(s.data.dtype)
    return masked.sum(axis=-1).sum(axis=-1) * (1.0 / (n * (n - 1)))


def loss_pointer(step_logits: Tensor, labels: np.ndarray, valid: np.ndarray) -> Tensor:
    """Teacher-forced cross-entropy, averaged over decode steps.

    ``step_logits`` is (B, T, N) over slots, ``labels`` (B, T) the true
    next slot per step, ``valid`` (B, T, N) marks slots still available.
    """
    b, t, n = step_logits.shape
    labels = np.asarray(labels)
    valid = np.asarray(valid, dtype=bool)
    if labels.shape != (b, t) or valid.shape != (b, t, n):
        raise DomainError("labels/mask shapes do not match logits")
    rows = np.arange(b)[:, None], np.arange(t)[None, :]
    if not valid[rows[0], rows[1], labels].all():
        raise ConsistencyError("teacher-forced label refers to a masked slot")
    log_probs = log_softmax(step_logits, mask=valid)
    picked = log_probs[rows[0], rows[1], labels]  # (B, T)
    return -picked.mean(axis=-1)


def loss_position(scores: Tensor, truth_rank: np.ndarray) -> Tensor:
    """Mean squared error against normalized true positions rank/(n-1).

    ``scores`` and ``truth_rank`` are (B, n); returns per-document losses (B,).
    """
    truth = np.asarray(truth_rank)
    b, n = scores.shape
    if n < 2:
        raise DomainError("position loss needs at least 2 pages")
    if truth.shape != (b, n):
        raise DomainError(f"truth shape {truth.shape} != scores shape {(b, n)}")
    targets = truth.astype(scores.data.dtype) / (n - 1)
    diff = scores - targets
    return (diff * diff).mean(axis=-1)
