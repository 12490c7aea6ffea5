"""Seeded, deterministic training loops with per-epoch validation tau."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..corpus import Document, LengthBucket, ShuffledInstance, bucket_of, shuffle_instance
from ..errors import ConfigError, DomainError
from ..fileio import atomic_write
from ..metrics import BucketMeans, mean_tau
from ..models import Model
from ..numcore import RngStream, Tensor, TrainingDivergedError, adam_step, clip_global_norm, init_adam
from .schedule import TrainConfig

__all__ = [
    "FitResult",
    "SpecialistEnsemble",
    "fit",
    "evaluate",
    "write_training_log",
    "read_training_log",
]


def _float_or_none(cell: str) -> float | None:
    return float(cell) if cell else None


# The per-epoch record, column -> cell parser: ``fit`` builds one row of these
# columns per epoch, ``write_training_log`` writes it and ``read_training_log``
# parses it back.
_LOG_PARSERS = {
    **dict.fromkeys(["epoch", "stage", "stage_min_len", "stage_max_len"], int),
    **dict.fromkeys(["lr", "train_loss", "val_tau_overall"], float),
    **{f"val_tau_{b.label}": _float_or_none for b in LengthBucket},
}
LOG_COLUMNS = list(_LOG_PARSERS)


@dataclass
class FitResult:
    """``history`` holds one row per epoch: the ``LOG_COLUMNS`` values, ``None``
    for a bucket without validation documents, plus the ``lengths_seen`` in batches."""

    history: list[dict]
    val_tau_series: np.ndarray
    best_epoch: int


@dataclass
class SpecialistEnsemble:
    """One trained model per length bucket."""

    models: dict

    def __post_init__(self):
        missing = [b for b in LengthBucket if b not in self.models]
        if missing:
            raise ConfigError(f"ensemble is missing buckets: {[b.label for b in missing]}")

    def param_count(self) -> int:
        return sum(m.param_count() for m in self.models.values())

    def order_batch(self, pages) -> list[np.ndarray]:
        """Order documents of any lengths; each specialist orders its bucket's documents in one call."""
        docs = list(pages)
        if not docs:
            raise ConfigError("no documents to order")
        by_bucket: dict[LengthBucket, list[int]] = {}
        for i, doc in enumerate(docs):
            by_bucket.setdefault(bucket_of(len(doc)), []).append(i)
        orders: list = [None] * len(docs)
        for bucket, members in by_bucket.items():
            for i, order in zip(members, self.models[bucket].order_batch([docs[i] for i in members])):
                orders[i] = order
        return orders


def evaluate(model_or_ensemble, instances: list[ShuffledInstance]) -> BucketMeans:
    """Mean tau of greedy predictions, per bucket and overall, from one ``order_batch`` call."""
    return mean_tau(instances, model_or_ensemble.order_batch([inst.pages for inst in instances]))


def _batches(lengths: list[int], batch_size: int, order: np.ndarray) -> list[list[int]]:
    """Group the positions of same-length documents into batches, batch order seeded."""
    by_length: dict[int, list[int]] = {}
    for pos in order.tolist():
        by_length.setdefault(lengths[pos], []).append(pos)
    batches = []
    for length in sorted(by_length):
        group = by_length[length]
        for start in range(0, len(group), batch_size):
            batches.append(group[start : start + batch_size])
    return batches


def fit(model: Model, train_docs: list[Document], val_docs: list[Document], cfg: TrainConfig) -> FitResult:
    """Train through ``cfg``'s stages and batch weights; returns the best-validation snapshot.

    Validation tau is recorded after every epoch. Each stage sees only
    documents inside its length range, and each epoch's row keeps the set
    of lengths that actually entered batches for auditing.
    """
    if not train_docs or not val_docs:
        raise ConfigError("need non-empty train and validation splits")
    other_dims = sorted({doc.dim for doc in (*train_docs, *val_docs)} - {model.config.input_dim})
    if other_dims:
        raise ConfigError(f"embedding dim {other_dims[0]} != model input_dim {model.config.input_dim}")
    plan = cfg.stage_docs([shuffle_instance(d, cfg.seed) for d in train_docs])
    run_rng = RngStream(cfg.seed).split("fit")
    val_instances = [shuffle_instance(d, cfg.seed) for d in val_docs]

    flat = model.flat_parameters()
    flat_grad = np.zeros_like(flat)
    grads = model.param_views(flat_grad)
    for p, grad in zip(model.parameters(), grads):
        p.grad = grad  # backward accumulates into the view
    state = init_adam(flat, learning_rate=cfg.lr)
    best_flat: np.ndarray | None = None
    best_tau = -np.inf
    best_epoch = -1
    history: list[dict] = []

    epoch = 0
    for stage_idx, (stage, instances) in enumerate(plan):
        stage_lr = cfg.lr * stage.lr_scale
        state.learning_rate = stage_lr
        lengths = [inst.n_pages for inst in instances]
        for _ in range(stage.epochs):
            order = run_rng.split(f"order-ep{epoch}").permutation(len(instances))
            batches = _batches(lengths, cfg.batch_size, order)

            # train_loss: the per-document losses averaged with their batch's weight
            total_weighted_loss = 0.0
            total_weight = 0.0
            seen_lengths: set[int] = set()
            for batch in batches:
                insts = [instances[i] for i in batch]
                n = insts[0].n_pages
                seen_lengths.add(n)
                pages = Tensor(np.stack([inst.pages for inst in insts]).astype(model.dtype))
                truth = np.stack([inst.truth_rank for inst in insts])
                weight = cfg.batch_weight(n)
                flat_grad.fill(0)
                batch_loss = model.loss(pages, truth).mean() * weight
                loss_value = batch_loss.item()
                if not np.isfinite(loss_value):
                    raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
                # a loss recorded from a parameter reaches it, and every tensor that trains is a parameter
                if not batch_loss.requires_grad:
                    raise TrainingDivergedError(f"no parameter received a gradient at epoch {epoch}")
                batch_loss.backward()
                clip_global_norm(grads, cfg.clip_norm)
                adam_step(flat, flat_grad, state)
                total_weighted_loss += loss_value * len(batch)
                total_weight += weight * len(batch)

            val = evaluate(model, val_instances)
            row = {
                "epoch": epoch,
                "stage": stage_idx,
                "stage_min_len": stage.min_len,
                "stage_max_len": stage.max_len,
                "lr": stage_lr,
                "train_loss": total_weighted_loss / total_weight,
                "val_tau_overall": val.overall,
                **{f"val_tau_{b.label}": val.per_bucket.get(b) for b in LengthBucket},
                "lengths_seen": sorted(seen_lengths),
            }
            history.append(row)
            if val.overall > best_tau:
                best_tau = val.overall
                best_epoch = epoch
                best_flat = flat.copy()
            epoch += 1

    assert best_flat is not None
    model.zero_grad()
    flat[...] = best_flat
    series = np.array([r["val_tau_overall"] for r in history], dtype=np.float64)
    return FitResult(history=history, val_tau_series=series, best_epoch=best_epoch)


def write_training_log(history: list[dict], path: str | Path) -> None:
    """One CSV record per epoch (CRLF line ends) of the ``LOG_COLUMNS``; other keys are
    not logged and a ``None`` bucket stays empty. Written atomically."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(LOG_COLUMNS)
    for row in history:
        writer.writerow(["" if row[c] is None else repr(row[c]) for c in LOG_COLUMNS])
    atomic_write(path, buf.getvalue())


def read_training_log(path: str | Path) -> list[dict]:
    """Parse a training log back into its per-epoch rows (without ``lengths_seen``)."""
    with Path(path).open("r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != LOG_COLUMNS:
            raise DomainError(f"unexpected training log columns: {reader.fieldnames}")
        return [{c: parse(raw[c]) for c, parse in _LOG_PARSERS.items()} for raw in reader]
