"""Pre-norm transformer blocks bound to a model's parameter registry.

Stack shape (``layers``, ``heads``, ``hidden_dim``) comes from ``model.config``.
"""

from __future__ import annotations

import numpy as np

from ..numcore import Tensor, layer_norm, multi_head_attention, no_grad

FFN_MULT = 4


def build_stack(model, prefix: str, attentions: tuple[str, ...]) -> None:
    """Register a stack of pre-norm layers under ``prefix``.

    Each layer has, per entry of ``attentions``, a layer norm ``ln{j}`` and the
    projections ``{attention}wq, wk, wv, wo``; then a last norm and the
    feed-forward weights ``ffn.*``. A final ``ln_out`` follows the layers.
    """
    width = model.config.hidden_dim

    def norm(name: str) -> None:
        model._ones(f"{name}.g", width)
        model._zeros(f"{name}.b", width)

    for i in range(model.config.layers):
        p = f"{prefix}.layer{i}"
        for j, attention in enumerate(attentions, start=1):
            norm(f"{p}.ln{j}")
            for proj in ("wq", "wk", "wv", "wo"):
                model._glorot(f"{p}.{attention}{proj}", (width, width))
        norm(f"{p}.ln{len(attentions) + 1}")
        model._glorot(f"{p}.ffn.w1", (width, FFN_MULT * width))
        model._zeros(f"{p}.ffn.b1", FFN_MULT * width)
        model._glorot(f"{p}.ffn.w2", (FFN_MULT * width, width))
        model._zeros(f"{p}.ffn.b2", width)
    norm(f"{prefix}.ln_out")


def _norm(params: dict, name: str, x: Tensor) -> Tensor:
    return layer_norm(x, params[f"{name}.g"], params[f"{name}.b"])


def _feed_forward(params: dict, p: str, ln: str, x: Tensor) -> Tensor:
    """The residual feed-forward sublayer of layer ``p``, behind its norm ``ln``."""
    ffn = _norm(params, f"{p}.{ln}", x).linear(params[f"{p}.ffn.w1"], params[f"{p}.ffn.b1"], relu=True)
    return x + ffn @ params[f"{p}.ffn.w2"] + params[f"{p}.ffn.b2"]


def run_encoder(model, prefix: str, x: Tensor, mask: np.ndarray | None = None) -> tuple[Tensor, list[Tensor]]:
    """Self-attention stack; returns final states and per-layer attention.

    ``mask``, ``(batch, slots)`` and True at real slots, is a key-padding
    mask: no slot attends to the padding, so the real slots of a padded
    document come out as those of the document alone. ``None`` lets every
    slot be attended.
    """
    params, heads = model.params, model.config.heads
    key_mask = None if mask is None else mask[:, None, None, :]
    attns: list[Tensor] = []
    for i in range(model.config.layers):
        p = f"{prefix}.layer{i}"
        h = _norm(params, f"{p}.ln1", x)
        q, k, v = h @ params[f"{p}.wq"], h @ params[f"{p}.wk"], h @ params[f"{p}.wv"]
        mixed, attn = multi_head_attention(q, k, v, heads, mask=key_mask)
        attns.append(attn)
        x = _feed_forward(params, p, "ln2", x + mixed @ params[f"{p}.wo"])
    return _norm(params, f"{prefix}.ln_out", x), attns


def encoder_attention(model, pages: np.ndarray) -> np.ndarray:
    """Stacked encoder self-attention weights of one document, shape (layers, heads, n, n).

    Bound as a method by the models whose ``encode`` runs this module's encoder.
    """
    pages = model._as_input(pages)
    n = pages.shape[0]
    with no_grad():
        _, attns = model.encode(Tensor(pages.reshape(1, n, -1)))
    return np.stack([a.data[0] for a in attns])


class DecoderCache:
    """Per-layer keys and values kept between incremental ``run_decoder`` calls, for up to ``capacity`` steps.

    ``memory_mask``, ``(batch, slots)`` and True at real memory slots, keeps
    cross-attention off the padding of documents shorter than the memory;
    ``None`` lets every slot be attended.
    """

    def __init__(self, layers: int, capacity: int, memory_mask: np.ndarray | None = None):
        self.steps = 0  # decoder steps already in the cache
        self.capacity = capacity
        self.layers: list[dict] = [{} for _ in range(layers)]
        self.memory_mask = None if memory_mask is None else memory_mask[:, None, None, :]


def run_decoder(model, prefix: str, x: Tensor, memory: Tensor, cache: DecoderCache) -> Tensor:
    """Causal self-attention plus cross-attention over encoder memory.

    ``x`` holds the decoder steps after the ``cache.steps`` already in
    ``cache``. The first call attends to its own self-attention keys and
    values as they are, so teacher forcing, which passes every step in one
    call, keeps its gradient; unless they fill the cache, they are also
    written into per-layer buffers of ``cache.capacity`` steps, in place.
    Later calls add theirs there and read the buffers, without gradient.
    The memory's cross-attention keys and values are projected on the first
    call and reused after it; cross-attention reads only the slots of
    ``cache.memory_mask``.
    """
    params, heads = model.params, model.config.heads
    past = cache.steps
    steps = x.shape[-2]
    total = past + steps
    # query step past + i sees keys 0 .. past + i
    mask = np.tril(np.ones((steps, total), dtype=bool), k=past)
    for i in range(model.config.layers):
        p = f"{prefix}.layer{i}"
        kept = cache.layers[i]
        h = _norm(params, f"{p}.ln1", x)
        q, k, v = h @ params[f"{p}.self.wq"], h @ params[f"{p}.self.wk"], h @ params[f"{p}.self.wv"]
        if past or total < cache.capacity:
            if not past:
                shape = (*k.shape[:-2], cache.capacity, k.shape[-1])
                kept["self"] = (np.empty(shape, dtype=k.data.dtype), np.empty(shape, dtype=v.data.dtype))
            keys, values = kept["self"]
            keys[..., past:total, :], values[..., past:total, :] = k.data, v.data
            if past:
                k, v = Tensor(keys[..., :total, :]), Tensor(values[..., :total, :])
        mixed, _ = multi_head_attention(q, k, v, heads, mask=mask)
        x = x + mixed @ params[f"{p}.self.wo"]

        qc = _norm(params, f"{p}.ln2", x) @ params[f"{p}.cross.wq"]
        if "cross" not in kept:
            kept["cross"] = (memory @ params[f"{p}.cross.wk"], memory @ params[f"{p}.cross.wv"])
        mixed, _ = multi_head_attention(qc, *kept["cross"], heads, mask=cache.memory_mask)
        x = _feed_forward(params, p, "ln3", x + mixed @ params[f"{p}.cross.wo"])
    cache.steps += steps
    return _norm(params, f"{prefix}.ln_out", x)
