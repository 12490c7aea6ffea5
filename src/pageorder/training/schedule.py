"""Training strategies: loss weighting and the length curriculum."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..corpus import MAX_PAGES, MIN_PAGES, LengthBucket, bucket_of
from ..errors import ConfigError

__all__ = ["Strategy", "CurriculumStage", "specialization_weight", "curriculum_schedule"]

FINAL_STAGE_LR_SCALE = 0.1
STAGE_EPOCH_SHARES = (0.15, 0.15, 0.50, 0.20)


class Strategy(str, Enum):
    UNIVERSAL = "universal"
    SPECIALIZED_DIRECT = "specialized_direct"
    SPECIALIZED_CURRICULUM = "specialized_curriculum"


@dataclass(frozen=True)
class CurriculumStage:
    min_len: int
    max_len: int
    epochs: int
    lr_scale: float

    def __post_init__(self):
        if not MIN_PAGES <= self.min_len <= self.max_len <= MAX_PAGES:
            raise ConfigError(f"stage range {self.min_len}-{self.max_len} invalid")
        if self.epochs < 1:
            raise ConfigError("every stage needs at least 1 epoch")

    def contains(self, length: int) -> bool:
        return self.min_len <= length <= self.max_len


def specialization_weight(doc_len: int, target_bucket: LengthBucket, factor: float) -> float:
    """Loss weight: ``factor`` inside the target bucket, 1.0 everywhere else."""
    return float(factor) if bucket_of(doc_len) is target_bucket else 1.0


def curriculum_schedule(target: LengthBucket, total_epochs: int) -> list[CurriculumStage]:
    """Four stages of growing length, ending in a reduced-rate focus phase.

    Stage 1 covers 2-5 pages, stage 2 a midpoint range interpolated
    between stage 1 and the target (4-7 when targeting 6-10), stage 3 the
    target range for the majority of epochs, stage 4 the target range at
    a tenth of the learning rate. Epochs split 15/15/50/20 percent. A
    2-5 page target collapses to the two target stages (80/20).
    """
    if total_epochs < 4:
        raise ConfigError(f"curriculum needs at least 4 epochs, got {total_epochs}")
    t_min, t_max = target.min_len, target.max_len
    if target is LengthBucket.B2_5:
        final = max(1, int(total_epochs * STAGE_EPOCH_SHARES[3]))
        return [
            CurriculumStage(t_min, t_max, total_epochs - final, 1.0),
            CurriculumStage(t_min, t_max, final, FINAL_STAGE_LR_SCALE),
        ]
    e1 = max(1, int(total_epochs * STAGE_EPOCH_SHARES[0]))
    e2 = max(1, int(total_epochs * STAGE_EPOCH_SHARES[1]))
    e4 = max(1, int(total_epochs * STAGE_EPOCH_SHARES[3]))
    e3 = total_epochs - e1 - e2 - e4
    if e3 < 1:
        raise ConfigError(f"{total_epochs} epochs leave no room for the target stage")
    mid_min = (MIN_PAGES + t_min) // 2
    mid_max = (LengthBucket.B2_5.max_len + t_max) // 2
    return [
        CurriculumStage(MIN_PAGES, LengthBucket.B2_5.max_len, e1, 1.0),
        CurriculumStage(mid_min, mid_max, e2, 1.0),
        CurriculumStage(t_min, t_max, e3, 1.0),
        CurriculumStage(t_min, t_max, e4, FINAL_STAGE_LR_SCALE),
    ]
