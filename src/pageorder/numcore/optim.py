"""Adaptive-moment optimizer with global-norm gradient clipping."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor

__all__ = ["AdamState", "TrainingDivergedError", "init_adam", "global_norm", "clip_global_norm", "adam_step"]


class TrainingDivergedError(RuntimeError):
    """A gradient or loss became non-finite."""


# moment decay rates and the denominator guard, the usual defaults
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    """Per-parameter moment estimates plus the step size."""

    step_count: int
    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    learning_rate: float


def init_adam(params: list[Tensor], learning_rate: float = 1e-3) -> AdamState:
    return AdamState(
        step_count=0,
        first_moment=[np.zeros_like(p.data) for p in params],
        second_moment=[np.zeros_like(p.data) for p in params],
        learning_rate=learning_rate,
    )


def global_norm(grads: list[np.ndarray]) -> float:
    total = 0.0
    for g in grads:
        total += float(np.sum(np.square(g, dtype=np.float64)))
    return float(np.sqrt(total))


def clip_global_norm(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their joint norm is at most max_norm.

    Raises TrainingDivergedError, before it scales anything, when the norm is not finite. That is the one
    finiteness check of a training step: float32 squares summed in float64 cannot overflow, so a finite norm means
    every float32 gradient entry is finite (a float64 gradient above about 1e154 reads as non-finite too).
    """
    norm = global_norm(grads)
    if not math.isfinite(norm):
        raise TrainingDivergedError("non-finite gradient")
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads:
            if scale < np.finfo(g.dtype).tiny:  # subnormal in g's dtype, so it lost digits: round once from float64
                np.multiply(g, scale, out=g, dtype=np.float64)
            else:
                g *= scale
    return norm


def adam_step(params: list[Tensor], grads: list[np.ndarray], state: AdamState) -> list[Tensor]:
    """Bias-corrected adaptive-moment update, applied in place.

    Each parameter's update runs the expression form ``m_hat = m / c1``,
    ``v_hat = v / c2``, ``p -= lr * m_hat / (sqrt(v_hat) + eps)`` operation by
    operation in that order, so every bit is that form's, but writes into
    two scratch buffers sized to the largest gradient instead of allocating
    a temporary per operation. The gradients are not checked for
    finiteness: ``fit`` learns that from ``clip_global_norm``, which raises
    on a non-finite norm before the step.
    """
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise ShapeError("params, grads and state must be aligned")
    for p, g in zip(params, grads):
        if p.data.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.data.shape}")
        if p.data.dtype != g.dtype:
            raise ShapeError(f"gradient dtype {g.dtype} does not match parameter {p.data.dtype}")
    state.step_count += 1
    t = state.step_count
    correction1 = 1.0 - BETA1**t
    correction2 = 1.0 - BETA2**t
    lr = state.learning_rate
    # one buffer pair per dtype, sized to that dtype's largest gradient
    sizes: dict[np.dtype, int] = {}
    for g in grads:
        sizes[g.dtype] = max(sizes.get(g.dtype, 0), g.size)
    scratch = {dtype: (np.empty(size, dtype), np.empty(size, dtype)) for dtype, size in sizes.items()}
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        denom, step = (buf[: g.size].reshape(g.shape) for buf in scratch[g.dtype])
        np.multiply(g, 1.0 - BETA1, out=denom)
        m *= BETA1
        m += denom
        np.multiply(g, 1.0 - BETA2, out=denom)
        denom *= g
        v *= BETA2
        v += denom
        np.divide(v, correction2, out=denom)
        np.sqrt(denom, out=denom)
        denom += EPSILON
        np.divide(m, correction1, out=step)
        step *= lr
        step /= denom
        p.data -= step
    return params
