"""The five ordering architectures plus checkpointing."""

from __future__ import annotations

import numpy as np

from .base import Arch, LengthError, Model, ModelConfig, PeVariant, desk_config
from .bilstm import BilstmPositionModel
from .pairwise import PairwiseRankModel, PairwiseScores, aggregate_scores
from .pointer import PointerLstmModel, PointerMlpModel
from .seq2seq import Seq2SeqModel


def build_model(config: ModelConfig, dtype=np.float32) -> Model:
    """Instantiate the architecture named by the config, its parameters already in one flat array."""
    cls = {
        Arch.BILSTM_POS: BilstmPositionModel,
        Arch.POINTER_MLP: PointerMlpModel,
        Arch.POINTER_LSTM: PointerLstmModel,
        Arch.SEQ2SEQ: Seq2SeqModel,
        Arch.PAIRWISE_RANK: PairwiseRankModel,
    }[config.arch]
    model = cls(config, dtype=dtype)
    model.flat_parameters()
    return model


from .checkpoint import (  # noqa: E402  (needs build_model defined)
    ArchMismatchError,
    CheckpointDigestError,
    CheckpointError,
    CheckpointVersionError,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "Arch",
    "PeVariant",
    "ModelConfig",
    "Model",
    "LengthError",
    "desk_config",
    "build_model",
    "BilstmPositionModel",
    "PointerMlpModel",
    "PointerLstmModel",
    "Seq2SeqModel",
    "PairwiseRankModel",
    "PairwiseScores",
    "aggregate_scores",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
    "CheckpointVersionError",
    "CheckpointDigestError",
    "ArchMismatchError",
]
