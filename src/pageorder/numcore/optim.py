"""Adaptive-moment optimizer with global-norm gradient clipping."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError

__all__ = ["AdamState", "TrainingDivergedError", "init_adam", "global_norm", "clip_global_norm", "adam_step"]


class TrainingDivergedError(RuntimeError):
    """A gradient or loss became non-finite."""


# moment decay rates and the denominator guard, the usual defaults
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


# elements per pass of ``adam_step``'s sweep: its two scratch buffers stay this size however large the model
BLOCK = 65_536


@dataclass
class AdamState:
    """Flat moment estimates, aligned with the flat parameter array, plus the step size."""

    step_count: int
    first_moment: np.ndarray
    second_moment: np.ndarray
    learning_rate: float


def init_adam(params: np.ndarray, learning_rate: float = 1e-3) -> AdamState:
    return AdamState(0, np.zeros_like(params), np.zeros_like(params), learning_rate)


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


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> np.ndarray:
    """Bias-corrected adaptive-moment update of flat arrays, in place, swept in blocks of ``BLOCK`` elements.

    Each block runs the expression form ``m_hat = m / c1``, ``v_hat = v / c2``,
    ``p -= lr * m_hat / (sqrt(v_hat) + eps)`` operation by operation in that order, so every bit is that form's,
    through two scratch buffers instead of a temporary per operation. The gradients are not checked for
    finiteness: ``fit`` learns that from ``clip_global_norm``, which raises on a non-finite norm before the step.
    """
    if params.ndim != 1 or not params.shape == grads.shape == state.first_moment.shape == state.second_moment.shape:
        raise ShapeError("params, grads and moments must be flat arrays of one length")
    if params.dtype != grads.dtype:
        raise ShapeError(f"gradient dtype {grads.dtype} does not match parameter {params.dtype}")
    state.step_count += 1
    t = state.step_count
    correction1 = 1.0 - BETA1**t
    correction2 = 1.0 - BETA2**t
    lr = state.learning_rate
    scratch = np.empty((2, min(BLOCK, params.size)), params.dtype)
    for start in range(0, params.size, BLOCK):
        p, g, m, v = (a[start : start + BLOCK] for a in (params, grads, state.first_moment, state.second_moment))
        denom, step = scratch[:, : g.size]
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
        p -= step
    return params
