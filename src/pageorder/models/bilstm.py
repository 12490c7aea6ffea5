"""Bidirectional recurrent position scorer.

Reads all pages at once and predicts a scalar position score per page;
sorting the scores ascending yields the ordering. No sequential decoding.
"""

from __future__ import annotations

import numpy as np

from ..numcore import LstmParams, Tensor, bidirectional_encode, no_grad
from .base import Model, ModelConfig, real_slots, unpad
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

    def order_batch(self, pages) -> list[np.ndarray]:
        def order_chunk(stack, lengths):
            scores = self.position_scores(Tensor(stack), lengths).data
            # padded slots sort after every page
            return (ordering_from_scores(np.where(real_slots(lengths, stack.shape[1]), scores, np.inf)),)

        with no_grad():
            (orders,), lengths = self._in_chunks(pages, order_chunk)
        return unpad(orders, lengths)
