"""Gradient gate: central-difference verification of every layer and loss.

Runs in 64-bit mode on tiny toy inputs (documents of at most 5 pages).
Used by the command-line gradcheck gate and the acceptance suite.
"""

from __future__ import annotations

import numpy as np

from .models import Arch, ModelConfig, build_model
from .numcore import (
    GradCheckReport,
    LstmParams,
    RngStream,
    Tensor,
    bidirectional_encode,
    grad_check,
    layer_norm,
    multi_head_attention,
    pair_differences,
)

__all__ = ["run_gradient_gate"]

DIM = 10


def _t64(rng: RngStream, shape) -> Tensor:
    return Tensor(rng.normal(shape, dtype=np.float64), requires_grad=True)


def _tiny_model(arch: Arch, seed: int = 13):
    cfg = ModelConfig(arch=arch, input_dim=DIM, hidden_dim=8, layers=1, heads=2, seed=seed)
    return build_model(cfg, dtype=np.float64)


def _sum_of_squares(y: Tensor) -> Tensor:
    return (y * y).sum()


def run_gradient_gate(tolerance: float = 1e-3, epsilon: float = 1e-5) -> dict[str, GradCheckReport]:
    """Every entry's gradient-check report, by entry name in gate order."""
    result: dict[str, GradCheckReport] = {}
    rng = RngStream(2024)

    # dense layer with its ReLU, then without it on a 3-D input, with and without the bias: the flattened GEMM and
    # the summed bias gradient
    x = _t64(rng.split("dense.x"), (3, DIM))
    w = _t64(rng.split("dense.w"), (DIM, 6))
    b = _t64(rng.split("dense.b"), 6)
    result["dense"] = grad_check(
        lambda: _sum_of_squares(x.linear(w, b, relu=True)), [("x", x), ("w", w), ("b", b)], epsilon, tolerance
    )
    xf = _t64(rng.split("dense_flat.x"), (2, 3, DIM))

    def dense_flat_fn():
        return _sum_of_squares(xf.linear(w, b)) + _sum_of_squares(xf.linear(w))

    result["dense_flat"] = grad_check(dense_flat_fn, [("x", xf), ("w", w), ("b", b)], epsilon, tolerance)

    # recurrent sequence: both fused directions, every output position weighted
    directions = {
        d: LstmParams(
            wx=_t64(rng.split(f"bilstm.{d}.wx"), (DIM, 16)),
            wh=_t64(rng.split(f"bilstm.{d}.wh"), (4, 16)),
            b=_t64(rng.split(f"bilstm.{d}.b"), 16),
        )
        for d in ("fwd", "bwd")
    }
    xs = _t64(rng.split("bilstm.x"), (2, 4, DIM))
    position_weights = Tensor(rng.split("bilstm.w").normal((2, 4, 8), dtype=np.float64))

    def bilstm_fn():
        out = bidirectional_encode(xs, directions["fwd"], directions["bwd"])
        return (out * position_weights).sum() + (out * out).sum()

    named = [("x", xs)] + [(f"{d}.{k}", t) for d, cell in directions.items() for k, t in vars(cell).items()]
    result["recurrent_sequence"] = grad_check(bilstm_fn, named, epsilon, tolerance)

    # the same on a padded batch: the second document has 2 real pages, so the reverse direction holds its state
    xp = _t64(rng.split("bilstm_padded.x"), (2, 4, DIM))

    def padded_bilstm_fn():
        out = bidirectional_encode(xp, directions["fwd"], directions["bwd"], lengths=np.array([4, 2]))
        return (out * position_weights).sum() + (out * out).sum()

    result["recurrent_sequence_padded"] = grad_check(padded_bilstm_fn, [("x", xp)] + named[1:], epsilon, tolerance)

    # attention
    q = _t64(rng.split("attn.q"), (4, 8))
    k = _t64(rng.split("attn.k"), (4, 8))
    v = _t64(rng.split("attn.v"), (4, 8))
    out_weights = Tensor(rng.split("attn.w").normal((4, 8), dtype=np.float64))

    def attn_fn():
        out, _ = multi_head_attention(q, k, v, heads=2)
        return (out * out).sum() + (out * out_weights).sum()

    result["attention"] = grad_check(attn_fn, [("q", q), ("k", k), ("v", v)], epsilon, tolerance)

    # batched causal attention, 2 queries over 5 keys: the shape of a cached decoder step
    qm = _t64(rng.split("attn_masked.q"), (2, 2, 8))
    km = _t64(rng.split("attn_masked.k"), (2, 5, 8))
    vm = _t64(rng.split("attn_masked.v"), (2, 5, 8))
    causal = np.tril(np.ones((2, 5), dtype=bool), k=3)

    def masked_attn_fn():
        out, _ = multi_head_attention(qm, km, vm, heads=2, mask=causal)
        return (out * out).sum()

    result["attention_masked"] = grad_check(masked_attn_fn, [("q", qm), ("k", km), ("v", vm)], epsilon, tolerance)

    # layer norm
    xn = _t64(rng.split("ln.x"), (3, 7))
    gain = _t64(rng.split("ln.g"), 7)
    bias = _t64(rng.split("ln.b"), 7)
    result["layer_norm"] = grad_check(
        lambda: _sum_of_squares(layer_norm(xn, gain, bias)), [("x", xn), ("g", gain), ("b", bias)], epsilon, tolerance
    )

    # the pairwise scorer's first layer, relu((a_j - a_i) + b) for every ordered pair of two 4-row inputs; no
    # pre-activation lies within 0.009 of the ReLU's kink, so no central difference straddles it
    xd = _t64(rng.split("pairs.a"), (2, 4, 6))
    bd = _t64(rng.split("pairs.b"), 6)
    result["pair_differences"] = grad_check(
        lambda: _sum_of_squares(pair_differences(xd, bd)), [("a", xd), ("b", bd)], epsilon, tolerance
    )

    # embedding lookup: integer-array indexing gathers table rows
    table = _t64(rng.split("emb.table"), (6, 5))
    idx = np.array([0, 3, 3, 5])
    result["embedding_lookup"] = grad_check(lambda: _sum_of_squares(table[idx]), [("table", table)], epsilon, tolerance)

    # every architecture's own training loss on a batch of two 4-page toy documents
    truth = np.array([[1, 3, 0, 2], [2, 0, 3, 1]])
    for arch in Arch:
        model = _tiny_model(arch)
        pages = Tensor(rng.split(f"loss_{arch.value}.pages").normal((2, 4, DIM), dtype=np.float64))
        result[f"loss_{arch.value}"] = grad_check(
            lambda: model.loss(pages, truth).sum(), model.params.items(), epsilon, tolerance
        )

    return result
