"""Adaptive-moment optimizer with global-norm gradient clipping."""

from __future__ import annotations

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
        total += float(np.sum(g.astype(np.float64) ** 2))
    return float(np.sqrt(total))


def clip_global_norm(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their joint norm is at most max_norm."""
    norm = global_norm(grads)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


def adam_step(params: list[Tensor], grads: list[np.ndarray], state: AdamState) -> list[Tensor]:
    """Bias-corrected adaptive-moment update, applied in place."""
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise ShapeError("params, grads and state must be aligned")
    for p, g in zip(params, grads):
        if p.data.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.data.shape}")
        if not np.isfinite(g).all():
            raise TrainingDivergedError("non-finite gradient")
    state.step_count += 1
    t = state.step_count
    correction1 = 1.0 - BETA1**t
    correction2 = 1.0 - BETA2**t
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / correction1
        v_hat = v / correction2
        p.data -= (state.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)).astype(p.data.dtype)
    return params
