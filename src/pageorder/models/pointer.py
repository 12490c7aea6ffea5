"""Pointer decoders: select one remaining page per step.

Both variants emit, at every step, a score for each not-yet-chosen slot
and pick the argmax (ties to the lowest slot), so the output is a valid
permutation by construction. The feedforward variant conditions only on
the most recent selection; the recurrent variant carries a hidden state
across all previous selections. ``greedy_decode`` is that selection loop,
shared with the seq2seq pointer head.
"""

from __future__ import annotations

import numpy as np

from ..numcore import Tensor, bidirectional_encode, concat, lstm_sequence
from .base import Model, ModelConfig, real_slots
from .losses import loss_pointer

__all__ = ["PointerModel", "PointerMlpModel", "PointerLstmModel", "greedy_decode"]

NEG_INF = -1e30


def greedy_decode(lengths, step) -> list[np.ndarray]:
    """Pick each slot of every document once, greedily; returns the orderings, one ``(n_i,)`` array each.

    ``lengths[i]`` is the page count ``n_i`` of document ``i``, and ``step(prev)``
    returns the ``(b, N)`` logits over all ``N = max(lengths)`` slots for the
    next pick of each of the ``b`` documents, given the ``(b,)`` slots picked
    last (``None`` at the first step). Used slots and slots ``j >= n_i`` are
    masked out and the argmax taken per row, ties to the lowest slot; the
    picks a row makes after its last slot are dropped.
    """
    lengths = np.asarray(lengths)
    n = lengths.max()
    available = real_slots(lengths, n)
    chosen = np.empty(available.shape, dtype=np.int64)
    rows = np.arange(len(lengths))
    pick = None
    for t in range(n):
        pick = np.argmax(np.where(available, step(pick), NEG_INF), axis=1)
        chosen[:, t] = pick
        available[rows, pick] = False
    return [row[:n] for row, n in zip(chosen, lengths)]


def _batch_select(encoded: Tensor, sel: np.ndarray) -> Tensor:
    """Gather encoded[b, sel[b, t]] -> (batch, T, h)."""
    b = sel.shape[0]
    return encoded[np.arange(b)[:, None], sel]


def _start_rows(start: Tensor, b: int) -> Tensor:
    """The learned first decoder input ``start (d,)``, repeated for ``b`` documents: ``(b, 1, d)``."""
    d = start.shape[-1]
    return start.reshape(1, 1, d) + Tensor(np.zeros((b, 1, d), dtype=start.dtype))


def _free_slots(truth_rank: np.ndarray) -> np.ndarray:
    """free[b, t, j] is True when slot j is still available at step t: its true rank is >= t."""
    return truth_rank[:, None, :] >= np.arange(truth_rank.shape[1])[:, None]


class PointerModel(Model):
    """Base of the models that pick one slot per step, trained by teacher-forced cross-entropy.

    A subclass defines ``teacher_logits(pages, truth_rank)``, returning the
    step logits, the true slot of each step and the still-free slots.
    """

    def loss(self, pages: Tensor, truth_rank: np.ndarray) -> Tensor:
        return loss_pointer(*self.teacher_logits(pages, truth_rank))


class PointerMlpModel(PointerModel):
    """Feedforward pointer: no memory of selections before the last one."""

    def __init__(self, config: ModelConfig, dtype=np.float32):
        super().__init__(config, dtype)
        h = config.hidden_dim
        self._dense_stack("enc", [config.input_dim] + [h] * config.layers)
        self._dense_stack("update", [h, h, h])

    def encode(self, pages: Tensor) -> Tensor:
        return self._run_dense_stack("enc", pages, self.config.layers)

    def _next_state(self, selected: Tensor) -> Tensor:
        return self._run_dense_stack("update", selected, 2)

    def _logits_from_state(self, state: Tensor, encoded: Tensor) -> Tensor:
        # (batch, h) x (batch, n, h) -> (batch, n) scaled dot product;
        # multiply-and-reduce keeps identical slots bitwise identical so
        # the tie rule can act on truly equal logits
        h = self.config.hidden_dim
        prods = encoded * state.reshape(state.shape[0], 1, h)
        return prods.sum(axis=-1) * (1.0 / np.sqrt(h))

    def teacher_logits(self, pages: Tensor, truth_rank: np.ndarray) -> tuple[Tensor, np.ndarray, np.ndarray]:
        """Teacher-forced step logits over all slots, labels, and candidate mask."""
        b = pages.shape[0]
        encoded = self.encode(pages)
        sel = np.argsort(truth_rank, axis=-1, kind="stable")  # slot of rank t at column t
        # decoder states: the mean encoding, then the state after each page of the true order but the last
        first = encoded.mean(axis=1).reshape(b, 1, self.config.hidden_dim)
        state_seq = concat([first, self._next_state(_batch_select(encoded, sel[:, :-1]))], axis=1)
        kt = encoded.transpose((0, 2, 1))
        logits = (state_seq @ kt) * (1.0 / np.sqrt(self.config.hidden_dim))
        return logits, sel, _free_slots(truth_rank)

    order = Model.order

    def order_padded(self, stack: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
        encoded = self.encode(Tensor(stack))
        # the first state is the mean over the document's own pages, as in teacher forcing
        own = np.where(real_slots(lengths, stack.shape[1])[..., None], encoded.data, 0).sum(axis=1)
        first = Tensor(own * (1.0 / lengths[:, None]).astype(encoded.dtype))
        rows = np.arange(len(lengths))

        def step(prev):
            state = first if prev is None else self._next_state(encoded[rows, prev])
            return self._logits_from_state(state, encoded).data

        return greedy_decode(lengths, step)


class PointerLstmModel(PointerModel):
    """Recurrent pointer: bidirectional encoder, additive attention decoder."""

    def __init__(self, config: ModelConfig, dtype=np.float32):
        super().__init__(config, dtype)
        h = config.hidden_dim
        enc_out = 2 * h
        self._enc_fwd = self._lstm("enc.fwd", config.input_dim, h)
        self._enc_bwd = self._lstm("enc.bwd", config.input_dim, h)
        self._dec = self._lstm("dec", enc_out, enc_out)
        self._normal("dec.start", enc_out, std=0.1)
        self._glorot("attn.w_enc", (enc_out, h))
        self._glorot("attn.w_dec", (enc_out, h))
        self._zeros("attn.b", h)
        self._glorot("attn.v", (h, 1))

    def encode(self, pages: Tensor, lengths: np.ndarray | None = None) -> Tensor:
        return bidirectional_encode(pages, self._enc_fwd, self._enc_bwd, lengths)

    def _attention_logits(self, encoded_proj: Tensor, h_dec: Tensor) -> Tensor:
        # additive attention v . tanh(W_enc enc_j + W_dec h_t) for every
        # decoder state t (axis 1 of h_dec) and slot j, in one broadcast
        b, steps = h_dec.shape[0], h_dec.shape[1]
        n, hidden = encoded_proj.shape[1], self.config.hidden_dim
        query = h_dec.linear(self.params["attn.w_dec"], self.params["attn.b"])
        feats = encoded_proj.reshape(b, 1, n, hidden) + query.reshape(b, steps, 1, hidden)
        return (feats.tanh() @ self.params["attn.v"]).reshape(b, steps, n)

    def teacher_logits(self, pages: Tensor, truth_rank: np.ndarray) -> tuple[Tensor, np.ndarray, np.ndarray]:
        encoded = self.encode(pages)
        encoded_proj = encoded @ self.params["attn.w_enc"]
        sel = np.argsort(truth_rank, axis=-1, kind="stable")
        # decoder inputs: the learned start vector, then each page of the true order but the last
        start = _start_rows(self.params["dec.start"], pages.shape[0])
        inputs = concat([start, _batch_select(encoded, sel[:, :-1])], axis=1)
        states, _ = lstm_sequence(inputs, self._dec)
        return self._attention_logits(encoded_proj, states), sel, _free_slots(truth_rank)

    order = Model.order

    def order_padded(self, stack: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
        # slots past a document's pages are never picked, so their encodings are never read
        encoded = self.encode(Tensor(stack), lengths)
        encoded_proj = encoded @ self.params["attn.w_enc"]
        b = len(lengths)
        state = None

        def step(prev):
            nonlocal state
            x = _start_rows(self.params["dec.start"], b) if prev is None else _batch_select(encoded, prev[:, None])
            h, state = lstm_sequence(x, self._dec, state=state)
            return self._attention_logits(encoded_proj, h).data[:, 0]

        return greedy_decode(lengths, step)
