"""Bidirectional recurrent position scorer.

Reads all pages at once and predicts a scalar position score per page;
sorting the scores ascending yields the ordering. No sequential decoding.
"""

from __future__ import annotations

import numpy as np

from ..numcore import LstmParams, Tensor, bidirectional_encode
from .base import Model, ModelConfig
from .losses import loss_position

__all__ = ["BilstmPositionModel", "ordering_from_scores"]


def ordering_from_scores(scores: np.ndarray) -> np.ndarray:
    """Slots sorted ascending by score along the last axis; ties keep the lower slot first."""
    return np.argsort(np.asarray(scores), axis=-1, kind="stable").astype(np.int64)


class BilstmPositionModel(Model):
    def __init__(self, config: ModelConfig, dtype=np.float32):
        super().__init__(config, dtype)
        h = config.hidden_dim
        self._cells: list[tuple[LstmParams, LstmParams]] = []
        in_dim = config.input_dim
        for i in range(config.layers):
            fwd = self._lstm(f"layer{i}.fwd", in_dim, h)
            bwd = self._lstm(f"layer{i}.bwd", in_dim, h)
            self._cells.append((fwd, bwd))
            in_dim = 2 * h
        self._glorot("head.w", (2 * h, 1))
        self._zeros("head.b", 1)

    def position_scores(self, pages: Tensor, lengths: np.ndarray | None = None) -> Tensor:
        """(batch, n) scalar scores; low score means early page.

        ``lengths`` gives the real pages of each document of a padded batch;
        the scores of its padded slots carry no meaning.
        """
        x = pages
        for fwd, bwd in self._cells:
            x = bidirectional_encode(x, fwd, bwd, lengths)
        out = x.linear(self.params["head.w"], self.params["head.b"])
        return out.reshape(out.shape[0], out.shape[1])

    def loss(self, pages: Tensor, truth_rank: np.ndarray) -> Tensor:
        return loss_position(self.position_scores(pages), truth_rank)

    order = Model.order

    def order_padded(self, stack: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
        scores = self.position_scores(Tensor(stack), lengths).data
        return [ordering_from_scores(row[:n]) for row, n in zip(scores, lengths)]
