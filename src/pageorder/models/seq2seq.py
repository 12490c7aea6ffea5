"""Encoder-decoder transformer that emits one input slot per step.

The decoder does not own a vocabulary: a cross-attention pointer head
scores every input slot and previously emitted slots are masked out at
inference, so the output is always a valid permutation. The positional
encoding added to encoder inputs (by slot) and decoder inputs (by step)
is selectable: learned table, fixed sinusoidal waves, or none.
"""

from __future__ import annotations

import numpy as np

from ..numcore import Tensor, concat, sinusoidal_positions
from .base import LengthError, Model, ModelConfig, PeVariant, real_slots
from .pointer import PointerModel, _batch_select, _free_slots, _start_rows, greedy_decode
from .transformer import DecoderCache, build_stack, encoder_attention, run_decoder, run_encoder

__all__ = ["Seq2SeqModel"]


class Seq2SeqModel(PointerModel):
    def __init__(self, config: ModelConfig, dtype=np.float32):
        super().__init__(config, dtype)
        h = config.hidden_dim
        self._glorot("input.w", (config.input_dim, h))
        self._zeros("input.b", h)
        if config.pe_variant is PeVariant.LEARNED:
            self._normal("pe.table", (config.max_len, h), std=0.02)
        self._sin_table = sinusoidal_positions(config.max_len, h, dtype=dtype)
        build_stack(self, "enc", ("",))
        build_stack(self, "dec", ("self.", "cross."))
        self._normal("dec.start", h, std=0.1)
        self._glorot("ptr.wq", (h, h))
        self._glorot("ptr.wk", (h, h))

    def _check_len(self, n: int) -> None:
        if n > self.config.max_len:
            raise LengthError(f"{n} pages exceed the supported maximum of {self.config.max_len} positions")

    def _positions(self, n: int, start: int = 0) -> Tensor | None:
        """Position signal for slots/steps start..start+n-1 under the active variant."""
        self._check_len(start + n)
        variant = self.config.pe_variant
        if variant is PeVariant.LEARNED:
            return self.params["pe.table"][np.arange(start, start + n)]
        if variant is PeVariant.SINUSOIDAL:
            return Tensor(self._sin_table[start : start + n])
        return None

    def encode(self, pages: Tensor, mask: np.ndarray | None = None) -> tuple[Tensor, list[Tensor]]:
        """Encoder states and attention; ``mask`` is ``run_encoder``'s key-padding mask."""
        n = pages.shape[-2]
        x = pages.linear(self.params["input.w"], self.params["input.b"])
        pe = self._positions(n)
        if pe is not None:
            x = x + pe
        return run_encoder(self, "enc", x, mask)

    def _decode_states(self, memory: Tensor, dec_inputs: Tensor, cache: DecoderCache) -> Tensor:
        """Decoder states for ``dec_inputs``, the steps after those already in ``cache``."""
        pe = self._positions(dec_inputs.shape[-2], start=cache.steps)
        x = dec_inputs if pe is None else dec_inputs + pe
        # called through the module name, so a wrapper bound there sees every decoder call
        return run_decoder(self, "dec", x, memory, cache)

    def _pointer_logits(self, dec_states: Tensor, memory: Tensor) -> Tensor:
        q = dec_states @ self.params["ptr.wq"]
        k = memory @ self.params["ptr.wk"]
        kt = k.transpose(tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))
        return (q @ kt) * (1.0 / np.sqrt(self.config.hidden_dim))

    def teacher_logits(self, pages: Tensor, truth_rank: np.ndarray) -> tuple[Tensor, np.ndarray, np.ndarray]:
        """Teacher-forced pointer logits (batch, steps, slots) plus labels and mask."""
        memory, _ = self.encode(pages)
        sel = np.argsort(truth_rank, axis=-1, kind="stable")
        start = _start_rows(self.params["dec.start"], pages.shape[0])
        dec_inputs = concat([start, _batch_select(memory, sel[:, :-1])], axis=1)
        states = self._decode_states(memory, dec_inputs, DecoderCache(self.config.layers, dec_inputs.shape[-2]))
        logits = self._pointer_logits(states, memory)
        return logits, sel, _free_slots(truth_rank)

    order = Model.order

    def order_padded(self, stack: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
        """Greedy pointer decode, one decoder row per document per step (K/V cached)."""
        b, n = stack.shape[:2]
        # padded memory slots are masked out of cross-attention and never picked
        mask = real_slots(lengths, n)
        memory, _ = self.encode(Tensor(stack), mask)
        keys = memory @ self.params["ptr.wk"]
        cache = DecoderCache(self.config.layers, n, memory_mask=mask)

        def step(prev):
            x = _start_rows(self.params["dec.start"], b) if prev is None else _batch_select(memory, prev[:, None])
            q = self._decode_states(memory, x, cache) @ self.params["ptr.wq"]
            # multiply-and-reduce keeps the logits of identical slots bitwise
            # equal, so the tie rule acts on truly equal pages (a one-row matmul need not)
            return ((keys * q).sum(axis=-1) * (1.0 / np.sqrt(self.config.hidden_dim))).data

        return greedy_decode(lengths, step)

    encoder_attention = encoder_attention
