"""The training plan: strategies, the length curriculum and ``TrainConfig``, which resolves both."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..corpus import MAX_PAGES, MIN_PAGES, LengthBucket, bucket_of
from ..errors import ConfigError

__all__ = ["Strategy", "CurriculumStage", "TrainConfig", "curriculum_schedule"]

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


@dataclass(frozen=True)
class TrainConfig:
    """Training knobs and the strategy, which fixes the stages and batch weights; built only with a valid plan."""

    epochs: int = 30
    batch_size: int = 16
    lr: float = 1e-3
    clip_norm: float = 1.0
    strategy: Strategy = Strategy.UNIVERSAL
    target_bucket: LengthBucket | None = None
    weight_factor: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.weight_factor < 1.0:
            raise ConfigError("weight_factor must be >= 1")
        if self.strategy is not Strategy.UNIVERSAL and self.target_bucket is None:
            raise ConfigError(f"strategy {self.strategy.value} requires a target bucket")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        # a negative step or clip bound flips the gradient, and zero freezes training
        for name in ("lr", "clip_norm"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        self.stages()

    def stages(self) -> list[CurriculumStage]:
        """The curriculum under ``specialized_curriculum``, else one full-range stage."""
        if self.strategy is Strategy.SPECIALIZED_CURRICULUM:
            return curriculum_schedule(self.target_bucket, self.epochs)
        return [CurriculumStage(MIN_PAGES, MAX_PAGES, self.epochs, 1.0)]

    def stage_docs(self, docs: list) -> list[tuple[CurriculumStage, list]]:
        """Each stage with the ``docs`` (anything with ``n_pages``) in its length range; none is a ConfigError."""
        plan = []
        for stage in self.stages():
            members = [d for d in docs if stage.contains(d.n_pages)]
            if not members:
                raise ConfigError(f"no training documents with {stage.min_len}-{stage.max_len} pages")
            plan.append((stage, members))
        return plan

    def batch_weight(self, n_pages: int) -> float:
        """``weight_factor`` for a batch inside the ``specialized_direct`` target bucket, else 1.0."""
        if self.strategy is Strategy.SPECIALIZED_DIRECT and bucket_of(n_pages) is self.target_bucket:
            return float(self.weight_factor)
        return 1.0
