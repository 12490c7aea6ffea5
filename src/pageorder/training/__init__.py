"""The fit loop, training strategies and the length curriculum; re-exports the models' losses."""

from ..models.losses import ConsistencyError, loss_pairwise, loss_pointer, loss_position, make_pairwise_targets
from .loop import (
    FitResult,
    SpecialistEnsemble,
    evaluate,
    fit,
    read_training_log,
    write_training_log,
)
from .schedule import CurriculumStage, Strategy, TrainConfig, curriculum_schedule

__all__ = [
    "TrainConfig",
    "FitResult",
    "SpecialistEnsemble",
    "fit",
    "evaluate",
    "write_training_log",
    "read_training_log",
    "make_pairwise_targets",
    "loss_pairwise",
    "loss_pointer",
    "loss_position",
    "ConsistencyError",
    "Strategy",
    "CurriculumStage",
    "curriculum_schedule",
]
