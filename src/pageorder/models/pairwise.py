"""Pairwise ranking transformer: score every ordered page pair, aggregate.

The encoder adds no positional signal, so slot order cannot leak into the
scores; for every ordered pair (i, j) the scorer reads the difference of
the contextualized embeddings and outputs how strongly j should follow i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError
from ..numcore import Tensor, pair_differences
from .base import Model, ModelConfig, real_slots
from .losses import loss_pairwise, make_pairwise_targets
from .transformer import build_stack, encoder_attention, run_encoder

__all__ = ["PairwiseScores", "PairwiseRankModel", "aggregate_scores"]

SCORER_LAYERS = 4
# Page pairs scored per forward pass in order_batch. The scorer's first layer
# builds one (docs, n, n, hidden) activation from (docs, n, hidden) rows, and
# each later layer reads one such array and writes the next, so at most two are
# held at once; this bounds them to their size for one 25-page document, so
# stacking long documents adds no peak memory.
PAIRS_PER_PASS = 25 * 25


@dataclass
class PairwiseScores:
    """s[i, j] = strength that page j comes after page i; diagonal unused."""

    n: int
    s: np.ndarray

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=np.float64)
        if self.s.shape != (self.n, self.n):
            raise DomainError(f"score matrix shape {self.s.shape} != ({self.n}, {self.n})")
        off_diag = self.s[~np.eye(self.n, dtype=bool)]
        if not np.isfinite(off_diag).all():
            raise DomainError("pairwise scores contain non-finite entries")


def aggregate_scores(scores: PairwiseScores) -> tuple[np.ndarray, np.ndarray]:
    """Turn the pairwise matrix into per-page position scores and an ordering.

    score_i = mean_j s[j, i] - mean_j s[i, j] with the diagonal excluded:
    evidence that pages precede i minus evidence that pages follow i, so
    early pages score low, and the ordering sorts ascending.
    """
    if scores.n < 2:
        raise DomainError("aggregation needs at least 2 pages")
    s = scores.s.copy()
    np.fill_diagonal(s, 0.0)
    n = scores.n
    position_scores = s.sum(axis=0) / n - s.sum(axis=1) / n
    ordering = np.argsort(position_scores, kind="stable").astype(np.int64)
    return position_scores, ordering


class PairwiseRankModel(Model):
    """Transformer encoder plus a 4-layer difference scorer."""

    def __init__(self, config: ModelConfig, dtype=np.float32):
        super().__init__(config, dtype)
        h = config.hidden_dim
        self._glorot("input.w", (config.input_dim, h))
        self._zeros("input.b", h)
        build_stack(self, "enc", ("",))
        self._dense_stack("scorer", [h] * SCORER_LAYERS + [1])

    def encode(self, pages: Tensor, mask: np.ndarray | None = None) -> tuple[Tensor, list[Tensor]]:
        """Encoder states and attention; ``mask`` is ``run_encoder``'s key-padding mask."""
        x = pages.linear(self.params["input.w"], self.params["input.b"])
        return run_encoder(self, "enc", x, mask)

    def _pair_scores(self, encoded: Tensor) -> Tensor:
        """(batch, n, n) scores of every ordered pair of the (batch, n, h) encodings.

        The scorer's first layer, ``relu((enc_j - enc_i) @ w0 + b0)`` at ``[b, i, j]``, runs factored: one
        ``(batch * n, h) @ (h, h)`` product, then ``pair_differences`` of its rows. Only the last three layers see
        the ``batch * n * n`` rows.
        """
        b, n, _ = encoded.shape
        w0, b0 = self.params["scorer.w0"], self.params["scorer.b0"]
        # the pair activation is passed on, not named: under no_grad a local would keep it alive through layers 2 and 3
        scores = self._run_dense_stack("scorer", pair_differences(encoded @ w0, b0), SCORER_LAYERS, start=1)
        return scores.reshape(b, n, n)

    def score_matrix(self, pages: Tensor) -> tuple[Tensor, list[Tensor]]:
        """Full (batch, n, n) score tensor in one pass."""
        encoded, attns = self.encode(pages)
        return self._pair_scores(encoded), attns

    def loss(self, pages: Tensor, truth_rank: np.ndarray) -> Tensor:
        s, _ = self.score_matrix(pages)
        return loss_pairwise(s, make_pairwise_targets(truth_rank))

    encoder_attention = encoder_attention

    order = Model.order

    def order_padded(self, stack: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
        encoded = self.encode(Tensor(stack), real_slots(lengths, stack.shape[1]))[0].data
        orders: list = [None] * len(lengths)
        # the pairs of each length's documents only, in passes of at most PAIRS_PER_PASS
        for n in np.unique(lengths):
            rows = np.flatnonzero(lengths == n)
            docs_per_pass = max(1, PAIRS_PER_PASS // (n * n))
            for start in range(0, len(rows), docs_per_pass):
                part = rows[start : start + docs_per_pass]
                s = self._pair_scores(Tensor(encoded[part, :n])).data
                for row, doc in zip(part, s):
                    orders[row] = aggregate_scores(PairwiseScores(n=n, s=doc))[1]
        return orders
