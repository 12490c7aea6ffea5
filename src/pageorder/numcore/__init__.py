"""Minimal dense-tensor engine: autodiff, optimizer, gradient checking."""

from .gradcheck import GradCheckReport, ParamCheck, grad_check
from .nn import (
    LstmParams,
    bidirectional_encode,
    glorot_uniform,
    layer_norm,
    lstm_sequence,
    multi_head_attention,
    pair_differences,
    sinusoidal_positions,
)
from .optim import AdamState, TrainingDivergedError, adam_step, clip_global_norm, global_norm, init_adam
from .rng import RngStream
from .tensor import (
    DegenerateMaskError,
    ShapeError,
    Tensor,
    concat,
    grad_enabled,
    log_softmax,
    no_grad,
)

__all__ = [
    "Tensor",
    "ShapeError",
    "DegenerateMaskError",
    "no_grad",
    "grad_enabled",
    "concat",
    "log_softmax",
    "RngStream",
    "glorot_uniform",
    "layer_norm",
    "pair_differences",
    "multi_head_attention",
    "LstmParams",
    "lstm_sequence",
    "bidirectional_encode",
    "sinusoidal_positions",
    "AdamState",
    "TrainingDivergedError",
    "init_adam",
    "adam_step",
    "clip_global_norm",
    "global_norm",
    "grad_check",
    "GradCheckReport",
    "ParamCheck",
]
