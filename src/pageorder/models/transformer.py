"""Pre-norm transformer blocks bound to a model's parameter registry."""

from __future__ import annotations

import numpy as np

from ..numcore import Tensor, concat, layer_norm, multi_head_attention

FFN_MULT = 4


def build_encoder(model, prefix: str, width: int, layers: int) -> None:
    for i in range(layers):
        p = f"{prefix}.layer{i}"
        model._ones(f"{p}.ln1.g", width)
        model._zeros(f"{p}.ln1.b", width)
        for proj in ("wq", "wk", "wv", "wo"):
            model._glorot(f"{p}.{proj}", (width, width))
        model._ones(f"{p}.ln2.g", width)
        model._zeros(f"{p}.ln2.b", width)
        model._glorot(f"{p}.ffn.w1", (width, FFN_MULT * width))
        model._zeros(f"{p}.ffn.b1", FFN_MULT * width)
        model._glorot(f"{p}.ffn.w2", (FFN_MULT * width, width))
        model._zeros(f"{p}.ffn.b2", width)
    model._ones(f"{prefix}.ln_out.g", width)
    model._zeros(f"{prefix}.ln_out.b", width)


def run_encoder(model, prefix: str, x: Tensor, layers: int, heads: int) -> tuple[Tensor, list[Tensor]]:
    """Self-attention stack; returns final states and per-layer attention."""
    params = model.params
    attns: list[Tensor] = []
    for i in range(layers):
        p = f"{prefix}.layer{i}"
        h = layer_norm(x, params[f"{p}.ln1.g"], params[f"{p}.ln1.b"])
        q = h @ params[f"{p}.wq"]
        k = h @ params[f"{p}.wk"]
        v = h @ params[f"{p}.wv"]
        mixed, attn = multi_head_attention(q, k, v, heads)
        attns.append(attn)
        x = x + mixed @ params[f"{p}.wo"]
        h2 = layer_norm(x, params[f"{p}.ln2.g"], params[f"{p}.ln2.b"])
        ffn = (h2 @ params[f"{p}.ffn.w1"] + params[f"{p}.ffn.b1"]).relu()
        x = x + ffn @ params[f"{p}.ffn.w2"] + params[f"{p}.ffn.b2"]
    return layer_norm(x, params[f"{prefix}.ln_out.g"], params[f"{prefix}.ln_out.b"]), attns


def build_decoder(model, prefix: str, width: int, layers: int) -> None:
    for i in range(layers):
        p = f"{prefix}.layer{i}"
        model._ones(f"{p}.ln1.g", width)
        model._zeros(f"{p}.ln1.b", width)
        for proj in ("self.wq", "self.wk", "self.wv", "self.wo"):
            model._glorot(f"{p}.{proj}", (width, width))
        model._ones(f"{p}.ln2.g", width)
        model._zeros(f"{p}.ln2.b", width)
        for proj in ("cross.wq", "cross.wk", "cross.wv", "cross.wo"):
            model._glorot(f"{p}.{proj}", (width, width))
        model._ones(f"{p}.ln3.g", width)
        model._zeros(f"{p}.ln3.b", width)
        model._glorot(f"{p}.ffn.w1", (width, FFN_MULT * width))
        model._zeros(f"{p}.ffn.b1", FFN_MULT * width)
        model._glorot(f"{p}.ffn.w2", (FFN_MULT * width, width))
        model._zeros(f"{p}.ffn.b2", width)
    model._ones(f"{prefix}.ln_out.g", width)
    model._zeros(f"{prefix}.ln_out.b", width)


class DecoderCache:
    """Per-layer keys and values kept between incremental ``run_decoder`` calls."""

    def __init__(self, layers: int):
        self.steps = 0  # decoder steps already in the cache
        self.layers: list[dict] = [{} for _ in range(layers)]


def run_decoder(
    model,
    prefix: str,
    x: Tensor,
    memory: Tensor,
    layers: int,
    heads: int,
    cache: DecoderCache | None = None,
) -> Tensor:
    """Causal self-attention plus cross-attention over encoder memory.

    Without ``cache`` ``x`` holds every decoder step (teacher forcing).
    With one, ``x`` holds only the steps after ``cache.steps``: their
    self-attention keys and values are appended to the cache, and the
    memory's cross-attention keys and values are projected on the first
    call and reused after it.
    """
    params = model.params
    past = cache.steps if cache is not None else 0
    steps = x.shape[-2]
    # query step past + i sees keys 0 .. past + i
    mask = np.tril(np.ones((steps, past + steps), dtype=bool), k=past)
    for i in range(layers):
        p = f"{prefix}.layer{i}"
        kept = cache.layers[i] if cache is not None else {}
        h = layer_norm(x, params[f"{p}.ln1.g"], params[f"{p}.ln1.b"])
        q = h @ params[f"{p}.self.wq"]
        k = h @ params[f"{p}.self.wk"]
        v = h @ params[f"{p}.self.wv"]
        if "self" in kept:
            k = concat([kept["self"][0], k], axis=-2)
            v = concat([kept["self"][1], v], axis=-2)
        kept["self"] = (k, v)
        mixed, _ = multi_head_attention(q, k, v, heads, mask=mask)
        x = x + mixed @ params[f"{p}.self.wo"]

        h2 = layer_norm(x, params[f"{p}.ln2.g"], params[f"{p}.ln2.b"])
        qc = h2 @ params[f"{p}.cross.wq"]
        if "cross" not in kept:
            kept["cross"] = (memory @ params[f"{p}.cross.wk"], memory @ params[f"{p}.cross.wv"])
        kc, vc = kept["cross"]
        mixed_c, _ = multi_head_attention(qc, kc, vc, heads)
        x = x + mixed_c @ params[f"{p}.cross.wo"]

        h3 = layer_norm(x, params[f"{p}.ln3.g"], params[f"{p}.ln3.b"])
        ffn = (h3 @ params[f"{p}.ffn.w1"] + params[f"{p}.ffn.b1"]).relu()
        x = x + ffn @ params[f"{p}.ffn.w2"] + params[f"{p}.ffn.b2"]
    if cache is not None:
        cache.steps += steps
    return layer_norm(x, params[f"{prefix}.ln_out.g"], params[f"{prefix}.ln_out.b"])
