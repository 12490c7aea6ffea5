"""End-to-end experiment orchestration.

Trains or loads every requested configuration, evaluates all of them on
bit-identical shuffled test instances, and assembles the report. Also
hosts the short-to-long transfer experiment and the attention-locality
comparison between short and long specialists.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

from ..corpus import Document, LengthBucket, ShuffledInstance, bucket_of, corpus_digest, shuffle_instance
from ..errors import ConfigError
from ..heuristics import order_greedy_nn, order_random, order_tsp_nn
from ..metrics import LocalityStats, attention_locality, mean_tau
from ..models import Arch, Model, PeVariant, build_model, desk_config
from ..numcore import RngStream
from ..training import SpecialistEnsemble, Strategy, TrainConfig, evaluate, fit
from .report import EvalReport, ReportRow

__all__ = [
    "MENU",
    "ARCH_ROWS",
    "BenchResult",
    "TransferResult",
    "LocalityComparison",
    "menu_rows",
    "locality_test_docs",
    "run_benchmark",
    "transfer_experiment",
    "locality_experiment",
]

HEURISTIC_ROWS = ("random", "greedy_nn", "tsp_nn")

# Row name -> (architecture, positional encoding); the encoding matters only for seq2seq.
ARCH_ROWS = {
    "bilstm_pos": (Arch.BILSTM_POS, PeVariant.LEARNED),
    "pointer_mlp": (Arch.POINTER_MLP, PeVariant.LEARNED),
    "pointer_lstm": (Arch.POINTER_LSTM, PeVariant.LEARNED),
    "seq2seq_learned": (Arch.SEQ2SEQ, PeVariant.LEARNED),
    "seq2seq_sinusoidal": (Arch.SEQ2SEQ, PeVariant.SINUSOIDAL),
    "seq2seq_none": (Arch.SEQ2SEQ, PeVariant.NONE),
    "pairwise": (Arch.PAIRWISE_RANK, PeVariant.LEARNED),
}

# A pairwise specialist ensemble per specialized strategy.
SPECIALIST_ROWS = tuple(s.value for s in Strategy if s is not Strategy.UNIVERSAL)
# Every row: the heuristics, one model per architecture row, then the specialist ensembles.
MENU = HEURISTIC_ROWS + tuple(ARCH_ROWS) + SPECIALIST_ROWS

REFERENCE_TRANSFER_IN_DOMAIN = 0.8817
REFERENCE_TRANSFER = 0.1618
REFERENCE_LOCAL_SHORT = LocalityStats(local_fraction=0.779, avg_distance=1.53)
REFERENCE_LOCAL_LONG = LocalityStats(local_fraction=0.208, avg_distance=7.59)
REFERENCE_LOCALITY_RATIO = 4.96


@dataclass
class BenchResult:
    report: EvalReport
    logs: dict
    models: dict


@dataclass
class TransferResult:
    tau_in_domain: float
    tau_transfer: float
    n_train_docs: int


@dataclass
class LocalityComparison:
    short: LocalityStats
    long: LocalityStats
    ratio: float


def _config_seed(name: str, base: int) -> int:
    return (zlib.crc32(name.encode("utf-8")) ^ base) & 0x7FFFFFFF


def _heuristic_predict(name: str, inst: ShuffledInstance, eval_seed: int) -> np.ndarray:
    if name == "random":
        return order_random(inst.n_pages, RngStream(eval_seed).split("random-baseline").split(inst.doc_id))
    if name == "greedy_nn":
        return order_greedy_nn(inst.pages, RngStream(eval_seed).split("greedy-start").split(inst.doc_id))
    # tsp_nn, the last of HEURISTIC_ROWS
    return order_tsp_nn(inst.pages)


def _train(row: tuple[Arch, PeVariant], splits, train_cfg: TrainConfig, seed: int):
    arch, pe = row
    model = build_model(desk_config(arch, splits[0][0].dim, seed=seed, pe_variant=pe))
    result = fit(model, splits[0], splits[1], train_cfg)
    return model, result.history


def menu_rows(menu) -> list[str]:
    """The row names of a bench menu, ``["all"]`` standing for every ``MENU`` row.

    An unknown name, or a name given twice, is a ConfigError.
    """
    names = list(MENU) if list(menu) == ["all"] else list(menu)
    unknown = [n for n in names if n not in MENU]
    if unknown:
        raise ConfigError(f"unknown benchmark configurations: {unknown}")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ConfigError(f"benchmark configurations named more than once: {repeated}")
    return names


def run_benchmark(
    splits: tuple[list[Document], list[Document], list[Document]],
    menu: tuple[str, ...],
    train_cfg: TrainConfig,
    *,
    eval_seed: int,
    model_seed: int = 1,
    progress=None,
) -> BenchResult:
    """Train and evaluate every configuration named in ``menu``.

    Every specialist's plan is checked before the first row trains. Every
    configuration sees the same shuffled test instances, fixed by
    ``eval_seed``. Returns the report plus per-configuration training
    logs keyed by row name (specialists get one log per bucket).
    """
    names = menu_rows(menu)
    plans = {
        name: [replace(train_cfg, strategy=Strategy(name), target_bucket=b) for b in LengthBucket]
        for name in names
        if name in SPECIALIST_ROWS
    }
    for cfgs in plans.values():
        for cfg in cfgs:
            cfg.stage_docs(splits[0])
    test_instances = [shuffle_instance(d, eval_seed) for d in splits[2]]

    rows: list[ReportRow] = []
    logs: dict = {}
    models: dict = {}
    for name in names:
        if progress:
            progress(f"configuration {name}")
        if name in HEURISTIC_ROWS:
            model = None
            result = mean_tau(test_instances, [_heuristic_predict(name, i, eval_seed) for i in test_instances])
        else:
            if name in ARCH_ROWS:
                model, logs[name] = _train(ARCH_ROWS[name], splits, train_cfg, _config_seed(name, model_seed))
            else:
                specialists = {}
                for cfg in plans[name]:
                    key = f"{name}.{cfg.target_bucket.label}"
                    specialists[cfg.target_bucket], logs[key] = _train(
                        ARCH_ROWS["pairwise"], splits, cfg, _config_seed(key, model_seed)
                    )
                model = SpecialistEnsemble(models=specialists)
            result = evaluate(model, test_instances)
        models[name] = model
        rows.append(
            ReportRow(
                name=name,
                tau_by_bucket=dict(result.per_bucket),
                tau_overall=result.overall,
                param_count=0 if model is None else model.param_count(),
                docs_by_bucket=dict(result.counts),
            )
        )
    report = EvalReport(
        rows=rows,
        corpus_digest=corpus_digest(splits[0] + splits[1] + splits[2]),
        seeds={"eval": eval_seed, "model": model_seed, "train": train_cfg.seed},
    )
    return BenchResult(report=report, logs=logs, models=models)


def transfer_experiment(
    splits: tuple[list[Document], list[Document], list[Document]],
    train_cfg: TrainConfig,
    *,
    eval_seed: int,
    model_seed: int = 1,
) -> TransferResult:
    """Train the pairwise model on 2-5 page documents only, test both extremes."""
    short = LengthBucket.B2_5
    long_b = LengthBucket.B21_25
    short_train = [d for d in splits[0] if bucket_of(d.n_pages) is short]
    short_val = [d for d in splits[1] if bucket_of(d.n_pages) is short]
    if not short_train or not short_val:
        raise ConfigError("corpus has no short documents to train on")
    test_short = [shuffle_instance(d, eval_seed) for d in splits[2] if bucket_of(d.n_pages) is short]
    test_long = [shuffle_instance(d, eval_seed) for d in splits[2] if bucket_of(d.n_pages) is long_b]
    if not test_short or not test_long:
        raise ConfigError("corpus is missing 2-5 or 21-25 page test documents")
    model = build_model(desk_config(Arch.PAIRWISE_RANK, short_train[0].dim, seed=_config_seed("transfer", model_seed)))
    fit(model, short_train, short_val, train_cfg)
    tau_in = evaluate(model, test_short).overall
    tau_out = evaluate(model, test_long).overall
    return TransferResult(tau_in_domain=tau_in, tau_transfer=tau_out, n_train_docs=len(short_train))


def locality_test_docs(test_docs: list[Document]) -> tuple[list[Document], list[Document]]:
    """The 2-5 and the 21-25 page test documents that ``locality_experiment`` probes; neither may be empty."""
    short = [d for d in test_docs if bucket_of(d.n_pages) is LengthBucket.B2_5]
    long_docs = [d for d in test_docs if bucket_of(d.n_pages) is LengthBucket.B21_25]
    if not short or not long_docs:
        raise ConfigError("need test documents in both the 2-5 and 21-25 buckets")
    return short, long_docs


def locality_experiment(
    short_model: Model,
    long_model: Model,
    test_docs: list[Document],
    *,
    eval_seed: int,
) -> LocalityComparison:
    """Compare encoder attention locality of a short vs a long specialist.

    Each specialist is probed on the test documents of its own bucket;
    rows of every layer and head weigh equally. The ratio is the long
    specialist's average attention distance over the short one's.
    """
    short_docs, long_docs = locality_test_docs(test_docs)
    stats_short, stats_long = (
        attention_locality([model.encoder_attention(shuffle_instance(d, eval_seed).pages) for d in docs])
        for model, docs in ((short_model, short_docs), (long_model, long_docs))
    )
    ratio = stats_long.avg_distance / stats_short.avg_distance if stats_short.avg_distance > 0 else float("inf")
    return LocalityComparison(short=stats_short, long=stats_long, ratio=ratio)
