"""Neural building blocks composed from tensor primitives.

``layer_norm`` and ``multi_head_attention`` take unbatched ``(n, d)`` as
well as batched ``(batch, n, d)`` inputs; weight matrices broadcast over
leading axes. The recurrent blocks, ``lstm_sequence`` and
``bidirectional_encode``, need batched ``(batch, n, d)`` input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .rng import RngStream
from .tensor import Tensor, _unbroadcast, _valid_mask, grad_enabled, sigmoid_array

__all__ = [
    "glorot_uniform",
    "layer_norm",
    "pair_differences",
    "multi_head_attention",
    "LstmParams",
    "lstm_sequence",
    "bidirectional_encode",
    "sinusoidal_positions",
]

# added to the variance in ``layer_norm`` before the inverse square root
LAYER_NORM_EPS = 1e-5


def glorot_uniform(rng: RngStream, shape: tuple[int, int], dtype=np.float32) -> np.ndarray:
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(shape, -limit, limit, dtype=dtype)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then scale and shift.

    Recorded as one graph node. The forward runs the numpy expressions of the
    composite ``mean``/``-``/``**`` form in its order, so the values are
    bitwise those of that form. The backward is the closed form of Ba et al.
    (arXiv:1607.06450): with ``dn = g * gain`` and ``n`` the normalized input,
    ``dx = rstd * (dn - mean(dn) - n * mean(dn * n))``.
    """
    data, dtype = x.data, x.data.dtype.type
    inv_width = dtype(1.0 / data.shape[-1])
    centered = data + data.sum(axis=-1, keepdims=True) * inv_width * dtype(-1)
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_width
    rstd = (var + dtype(LAYER_NORM_EPS)) ** -0.5
    normed = centered * rstd

    def _bwd(g: np.ndarray) -> None:
        if gain.requires_grad:
            gain._adopt(_unbroadcast(g * normed, gain.shape))
        if bias.requires_grad:  # not adopted: with no axis to sum, ``_unbroadcast`` hands back ``g`` itself
            bias._accumulate(_unbroadcast(g, bias.shape))
        if x.requires_grad:
            dn = g * gain.data
            mean_dn = dn.mean(axis=-1, keepdims=True)
            x._adopt(rstd * (dn - mean_dn - normed * (dn * normed).mean(axis=-1, keepdims=True)))

    return Tensor._result(normed * gain.data + bias.data, (x, gain, bias), _bwd)


def pair_differences(a: Tensor, bias: Tensor) -> Tensor:
    """``y[..., i, j, :] = max((a[..., j, :] - a[..., i, :]) + bias, 0)`` for every ordered pair, as one graph node.

    ``a`` is ``(..., n, h)`` and ``y`` one ``(..., n, n, h)`` array. With ``a = e @ W`` this is the ReLU layer
    ``relu((e_j - e_i) @ W + bias)`` of every pair, since the product is linear: its GEMM has ``n`` rows instead of
    ``n * n``, up to rounding. The backward masks ``g`` by ``y > 0``; the ``a`` gradient is the masked ``g`` summed
    over ``i`` minus it summed over ``j``, the ``bias`` gradient its sum over both, and no product over the pairs is
    left.
    """
    data = a.data
    y = data[..., None, :, :] - data[..., :, None, :]
    y += bias.data
    np.maximum(y, 0, out=y)

    def _bwd(g: np.ndarray) -> None:
        g = g * (y > 0)
        over_i = g.sum(axis=-3)
        if bias.requires_grad:  # the sum over every pair, from the sum over i
            bias._adopt(over_i.reshape(-1, over_i.shape[-1]).sum(axis=0))
        if a.requires_grad:
            a._adopt(over_i - g.sum(axis=-2))

    return Tensor._result(y, (a, bias), _bwd)


def multi_head_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    heads: int,
    mask: np.ndarray | None = None,
) -> tuple[Tensor, Tensor]:
    """Scaled dot-product attention split into ``heads`` subspaces.

    ``q``, ``k``, ``v`` have shape ``(..., n, d)`` with ``d`` divisible by
    ``heads``. ``mask`` is boolean, True where attending is allowed, and
    broadcasts against the score shape ``(..., heads, n_q, n_k)``; masked
    weights come out exactly 0, and a fully masked row raises
    DegenerateMaskError.

    Returns the merged output ``(..., n_q, d)`` and the attention weights
    ``(..., heads, n_q, n_k)`` for locality analysis. The output is one
    graph node: the split, scores, masked softmax, mixing and merge run in
    numpy, and the backward reuses the saved weights ``P``
    (``dS = P * (gV^T - rowsum(P * gV^T))``), as FlashAttention
    (arXiv:2205.14135) does without tiling. The weights carry no gradient.
    """
    d = q.shape[-1]
    if d % heads != 0:
        raise ConfigError(f"model width {d} is not divisible by {heads} heads")
    dh = d // heads

    def split_heads(a: np.ndarray) -> np.ndarray:
        """``(..., n, d)`` -> ``(..., heads, n, dh)``, a view."""
        return np.swapaxes(a.reshape(*a.shape[:-1], heads, dh), -3, -2)

    def merge_heads(a: np.ndarray) -> np.ndarray:
        """``(..., heads, n, dh)`` -> ``(..., n, d)``, the inverse of ``split_heads``."""
        return np.swapaxes(a, -3, -2).reshape(*a.shape[:-3], a.shape[-2], d)

    qh, kh, vh = split_heads(q.data), split_heads(k.data), split_heads(v.data)
    scale = q.data.dtype.type(1.0 / np.sqrt(dh))
    scores = np.matmul(qh, np.swapaxes(kh, -1, -2)) * scale
    valid = _valid_mask(mask, scores.shape)
    logits = scores if valid is None else np.where(valid, scores, -np.inf)
    expd = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = (expd / expd.sum(axis=-1, keepdims=True)).astype(scores.dtype, copy=False)

    def _bwd(g: np.ndarray) -> None:
        gh = split_heads(g)
        if v.requires_grad:
            v._adopt(_unbroadcast(merge_heads(np.matmul(np.swapaxes(probs, -1, -2), gh)), v.shape))
        # masked weights are exactly 0, so their score gradients are too
        dprobs = np.matmul(gh, np.swapaxes(vh, -1, -2))
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True)) * scale
        if q.requires_grad:
            q._adopt(_unbroadcast(merge_heads(np.matmul(dscores, kh)), q.shape))
        if k.requires_grad:
            k._adopt(_unbroadcast(merge_heads(np.matmul(np.swapaxes(dscores, -1, -2), qh)), k.shape))

    return Tensor._result(merge_heads(np.matmul(probs, vh)), (q, k, v), _bwd), Tensor(probs)


@dataclass
class LstmParams:
    """Gate weights for one recurrent cell: wx (d_in, 4H), wh (H, 4H), b (4H,)."""

    wx: Tensor
    wh: Tensor
    b: Tensor

    @property
    def hidden(self) -> int:
        return self.wh.shape[0]


def _gate_blocks(act: np.ndarray, hidden: int) -> tuple[np.ndarray, ...]:
    """The i, f, g, o blocks of ``act (..., 4H)`` as views (basic slices cost less than ``np.split``)."""
    return act[..., :hidden], act[..., hidden : 2 * hidden], act[..., 2 * hidden : 3 * hidden], act[..., 3 * hidden :]


def _by_position(steps: np.ndarray, k: int) -> np.ndarray:
    """Direction ``k``'s ``(B, n, ·)`` array kept in step order, as a view in position order.

    Direction 0 runs first to last, direction 1 last to first, so its step ``s`` is position ``n - 1 - s``.
    """
    return steps if k == 0 else steps[:, ::-1]


def _scan(
    seq: Tensor,
    cells: list[LstmParams],
    state: tuple[np.ndarray, np.ndarray] | None = None,
    lengths: np.ndarray | None = None,
) -> tuple[Tensor, tuple[np.ndarray, np.ndarray]]:
    """Run one or two recurrent directions over ``seq (B, n, d)`` in one step loop; the second runs in reverse.

    Returns the states ``(B, n, dirs * H)``, direction ``k`` in channels ``k * H`` to ``(k + 1) * H``, and the
    final ``(h, c)``, each ``(dirs, B, H)``. ``state`` is the initial ``(h0, c0)`` of one direction, zeros if None;
    ``lengths`` holds the reverse direction of each row at that zero state through its padding.

    Step ``s`` advances direction 0 at position ``s`` and direction 1 at ``n - 1 - s``, its elementwise work
    running once on stacked ``(dirs, B, ·)`` views; ``h @ wh`` runs per direction (stacking ``wh`` would copy it
    on every call). Recorded as one ``linear`` node per direction for the input projection and one node for the
    recurrence, whose backward walks both directions back together, writes each step's pre-activation gradients
    over its gates and forms each direction's ``wh``, ``b`` and projection gradients in position order. Every
    product sees the operands and strides of a direction run alone, so values and gradients are bitwise those.
    With no gradient to record, only the states are kept.
    """
    dirs = len(cells)
    xzs = [seq @ p.wx for p in cells]
    weights = [t for p in cells for t in (p.wh, p.b)]
    batch, n, width = xzs[0].shape
    hidden = width // 4
    dtype = xzs[0].dtype
    keep = grad_enabled() and any(t.requires_grad for t in xzs + weights)
    whs = [p.wh.data for p in cells]
    bias = np.stack([p.b.data for p in cells])[:, None]
    zeros = np.zeros((dirs, batch, hidden), dtype=dtype)
    h0, c0 = (zeros, zeros) if state is None else (state[0][None], state[1][None])
    # the reverse direction's rows whose position is padding, by step, at each position past the shortest row
    held = {}
    if lengths is not None:
        held = {n - 1 - t: np.flatnonzero(lengths <= t) for t in range(lengths.min(), n)}

    def positions(s: int) -> tuple[int, ...]:
        """The position each direction is at in step ``s``."""
        return (s, n - 1 - s)[:dirs]

    states = np.empty((dirs, batch, n, hidden), dtype=dtype)
    if keep:
        gates = np.empty((dirs, batch, n, width), dtype=dtype)  # i, f, g, o after activation
        cell_steps = np.empty_like(states)
        tanh_cells = np.empty_like(states)
    else:
        act, c_buf, tc_buf = np.empty((dirs, batch, width), dtype=dtype), np.empty_like(zeros), np.empty_like(zeros)
    z = np.empty((dirs, batch, width), dtype=dtype)
    h, c = h0, c0
    for s in range(n):
        for k, t in enumerate(positions(s)):
            np.matmul(h[k], whs[k], out=z[k])
            z[k] += xzs[k].data[:, t]
        z += bias
        a = gates[:, :, s] if keep else act
        sigmoid_array(z, out=a)
        np.tanh(z[..., 2 * hidden : 3 * hidden], out=a[..., 2 * hidden : 3 * hidden])
        i, f, g, o = _gate_blocks(a, hidden)
        c = np.multiply(f, c, out=cell_steps[:, :, s] if keep else c_buf)
        c += i * g
        tc = np.tanh(c, out=tanh_cells[:, :, s] if keep else tc_buf)
        h = np.multiply(o, tc, out=states[:, :, s])
        if s in held:
            h[1, held[s]] = c[1, held[s]] = 0.0
    if not keep:
        xzs = []  # no backward will read the projections: free them before the output is assembled
    out = np.concatenate([_by_position(states[k], k) for k in range(dirs)], axis=-1)

    def _bwd(grad: np.ndarray) -> None:
        d = np.empty((dirs, batch, width), dtype=dtype)
        di, df, dg, do = _gate_blocks(d, hidden)
        dh, dc = np.zeros_like(zeros), zeros
        for s in range(n - 1, -1, -1):
            i, f, g, o = _gate_blocks(gates[:, :, s], hidden)
            tc = tanh_cells[:, :, s]
            for k, t in enumerate(positions(s)):
                dh[k] += grad[:, t, k * hidden : (k + 1) * hidden]
            dc = dc + dh * o * (1.0 - tc * tc)
            np.multiply(dc * g * i, 1.0 - i, out=di)
            np.multiply(dc * (cell_steps[:, :, s - 1] if s else c0) * f, 1.0 - f, out=df)
            np.multiply(dc * i, 1.0 - g * g, out=dg)
            np.multiply(dh * tc * o, 1.0 - o, out=do)
            if s in held:  # a held state depends on nothing
                d[1, held[s]] = 0.0
            dc = dc * f
            # no later step reads this step's gates: their buffer takes the pre-activation gradients
            gates[:, :, s] = d
            for k in range(dirs):
                np.matmul(gates[k, :, s], whs[k].T, out=dh[k])
        for k, (xz, p) in enumerate(zip(xzs, cells)):
            # in position order and C-contiguous, as a direction run alone forms them
            dz = np.ascontiguousarray(_by_position(gates[k], k))
            dz_flat = dz.reshape(batch * n, width)
            if xz.requires_grad:
                xz._adopt(dz)
            if p.wh.requires_grad:
                # the state entering each position: that of the position run before it, the initial state first
                own = out[..., k * hidden : (k + 1) * hidden]
                entering = [h0[k][:, None], own[:, :-1]] if k == 0 else [own[:, 1:], h0[k][:, None]]
                p.wh._adopt(np.concatenate(entering, axis=1).reshape(batch * n, hidden).T @ dz_flat)
            if p.b.requires_grad:
                p.b._adopt(dz_flat.sum(axis=0))

    return Tensor._result(out, xzs + weights, _bwd), (h, c)


def lstm_sequence(
    seq: Tensor, params: LstmParams, state: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[Tensor, tuple[np.ndarray, np.ndarray]]:
    """Run one recurrent direction over ``seq (B, n, d)`` from ``state = (h0, c0)``, zeros if None.

    Returns every state ``(B, n, H)`` and the final ``(h, c)``, from which a later call continues the
    recurrence. Gate order is i, f, g, o. Recorded as two graph nodes: the input projection ``seq @ wx`` for all
    positions in one GEMM, and the recurrence, whose backward runs backpropagation through time in numpy and
    yields the weight gradient of ``wh`` as one GEMM. No gradient flows into ``state``.
    """
    states, (h, c) = _scan(seq, [params], state)
    return states, (h[0], c[0])


def bidirectional_encode(
    seq: Tensor, forward: LstmParams, backward: LstmParams, lengths: np.ndarray | None = None
) -> Tensor:
    """Forward and backward recurrent states per position, side by side: ``(B, n, d)`` -> ``(B, n, 2H)``.

    Both directions run in one step loop and one recurrence node (see ``_scan``). With ``lengths``, the real
    positions of each row of a padded batch come out as those of the row encoded alone; the padded positions
    carry no meaning.
    """
    return _scan(seq, [forward, backward], lengths=lengths)[0]


def sinusoidal_positions(n_positions: int, dim: int, dtype=np.float32) -> np.ndarray:
    """Fixed wave-pattern position signals.

    Channel 2i holds sin(pos / 10000^(2i/dim)), channel 2i+1 the matching
    cosine, so position 0 encodes as alternating 0s and 1s.
    """
    positions = np.arange(n_positions, dtype=np.float64)[:, None]
    channel = np.arange(dim, dtype=np.float64)[None, :]
    rates = np.power(10000.0, -2.0 * np.floor(channel / 2.0) / dim)
    angles = positions * rates
    table = np.where(channel % 2 == 0, np.sin(angles), np.cos(angles))
    return table.astype(dtype)
