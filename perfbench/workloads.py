"""The three workloads: set-up, one timed pass, and correctness checks.

Each workload is a closed loop with one client: the benchmark makes one
call into the package's public entry points, waits for it, and makes the
next. A pass is a fixed list of such calls; the benchmark repeats passes
over the same inputs and reports the median pass wall time.

Why these workloads:

- ``train_mix`` fits all five architectures on a default-length-mix
  corpus. Mostly short documents, so small-op dispatch in the autodiff
  write path (graph recording, backward, clipping, Adam) dominates.
- ``decode_long`` greedily orders long (16-25 page) documents with all
  five architectures at their seeded initial weights: the no-grad read
  path, where batched or incremental decoding must show. Decode work has
  fixed trip counts, so untrained weights time the same as trained ones.
- ``bench_cli`` runs the user-facing ``pageorder bench`` command in
  process. It is the only workload that loads a corpus file, runs the
  heuristics, specialist routing and the locality experiment, and writes
  the report, logs and figures.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import defaultdict
from pathlib import Path

import numpy as np

import pageorder.cli
from gate import Tally, check_models
from pageorder.bench import read_report_csv
from pageorder.corpus import (
    DEFAULT_LENGTH_WEIGHTS,
    CorpusConfig,
    LengthBucket,
    bucket_of,
    generate_corpus,
    save_corpus,
    shuffle_instance,
    split_corpus,
)
from pageorder.models import Arch, build_model, desk_config
from pageorder.training import TrainConfig, evaluate, fit, read_training_log

DIM = 64
BATCH = 16

TRAIN_DOCS = 120
TRAIN_EPOCHS = 1

DECODE_DOCS = 24
DECODE_LENGTH_WEIGHTS = (0, 0, 0, 1, 1)

BENCH_DOCS = 60
# The gate requires every training log's last-epoch loss below its first.
# On 42 training documents two epochs are too few for that: on some corpora
# the loss is still at its starting level (about ln 2 for pairwise) after
# the first epoch and can rise in the second. Four epochs keep the last
# epoch's loss at most 0.77 of the first on every seed tried.
BENCH_EPOCHS = 4
BENCH_MENU = ("random", "greedy_nn", "tsp_nn", "pointer_mlp", "pairwise", "specialized_direct")
NEURAL_ROWS = ("pointer_mlp", "pairwise", "specialized_direct")

GATE_DOCS = 60

# Document lengths come from the generator at this fixed seed, and splits use
# a fixed seed, so every benchmark seed gets the same length profile in every
# split: seeds change the content of the inputs, not the amount of work.
PROFILE_SEED = 0
SPLIT_SEED = 0
# bench runs the locality experiment on the specialists, which needs test
# documents at both length extremes; this split of the bench_cli profile has them.
BENCH_SPLIT_SEED = 4


def profiled_corpus(n_docs: int, seed: int, length_weights=DEFAULT_LENGTH_WEIGHTS) -> list:
    """``n_docs`` documents of the seeded generator, with the length at each position fixed.

    The lengths are those the generator draws at ``PROFILE_SEED``; each
    position takes the next unused document of its length from a pool
    generated at ``seed``.
    """

    def corpus(n: int, corpus_seed: int):
        return generate_corpus(CorpusConfig(n_docs=n, dim=DIM, length_weights=length_weights, seed=corpus_seed))

    lengths = [d.n_pages for d in corpus(n_docs, PROFILE_SEED)]
    pool_size = 8 * n_docs
    while True:
        pool: defaultdict[int, list] = defaultdict(list)
        for doc in corpus(pool_size, seed):
            pool[doc.n_pages].append(doc)
        if all(len(pool[n]) >= lengths.count(n) for n in set(lengths)):
            break
        pool_size *= 2
    for docs in pool.values():
        docs.reverse()
    return [pool[n].pop() for n in lengths]


def gate_instances(seed: int):
    """A fixed sample of shuffled default-mix documents (2-25 pages) for the consistency checks."""
    docs = generate_corpus(CorpusConfig(n_docs=GATE_DOCS, dim=DIM, seed=seed + 50_000))
    return [shuffle_instance(d, seed) for d in docs]


def _build_models(seed: int) -> dict:
    return {arch: build_model(desk_config(arch, DIM, seed=seed)) for arch in Arch}


class TrainMix:
    name = "train_mix"

    def setup(self, seed: int, tracer, workdir: Path) -> None:
        with tracer.span("corpus.generate"):
            docs = profiled_corpus(TRAIN_DOCS, seed)
        self.train, self.val, _ = split_corpus(docs, seed=SPLIT_SEED)
        self.models = _build_models(seed)
        self.initial = {arch: m.state_arrays() for arch, m in self.models.items()}
        self.cfg = TrainConfig(epochs=TRAIN_EPOCHS, batch_size=BATCH, seed=seed)
        self.best_tau: dict = {}

    def reset(self) -> None:
        for arch, model in self.models.items():
            model.load_state_arrays(self.initial[arch])

    def operations(self):
        def fit_one(arch):
            series = fit(self.models[arch], self.train, self.val, self.cfg).val_tau_series
            self.best_tau[arch] = float(series.max())
            return series.tolist()

        return [(f"training.fit.{arch.value}", lambda arch=arch: fit_one(arch)) for arch in Arch]

    def summary(self, pass_s: float) -> dict:
        docs = len(self.train) * TRAIN_EPOCHS * len(Arch)
        return {
            "train_docs_per_s": (docs / pass_s, "1/s"),
            "val_tau": (float(np.mean(list(self.best_tau.values()))), "tau"),
        }

    def gate(self, tally: Tally, seed: int) -> None:
        for arch, model in self.models.items():
            changed = any(not np.array_equal(model.params[k].data, v) for k, v in self.initial[arch].items())
            tally.check(f"{arch.value}: fit left every weight unchanged", changed)
        check_models(tally, self.models, gate_instances(seed))


class DecodeLong:
    name = "decode_long"

    def setup(self, seed: int, tracer, workdir: Path) -> None:
        with tracer.span("corpus.generate"):
            docs = profiled_corpus(DECODE_DOCS, seed, DECODE_LENGTH_WEIGHTS)
        self.instances = [shuffle_instance(d, seed) for d in docs]
        self.models = _build_models(seed)

    def reset(self) -> None:
        pass

    def operations(self):
        def evaluate_one(arch):
            result = evaluate(self.models[arch], self.instances)
            return result.overall, sorted((b.label, v) for b, v in result.per_bucket.items())

        return [("training.evaluate", lambda arch=arch: evaluate_one(arch)) for arch in Arch]

    def summary(self, pass_s: float) -> dict:
        return {"order_docs_per_s": (len(self.instances) * len(Arch) / pass_s, "1/s")}

    def gate(self, tally: Tally, seed: int) -> None:
        check_models(tally, self.models, gate_instances(seed))


class BenchCli:
    name = "bench_cli"

    def setup(self, seed: int, tracer, workdir: Path) -> None:
        with tracer.span("corpus.generate"):
            docs = profiled_corpus(BENCH_DOCS, seed)
        test_buckets = {bucket_of(d.n_pages) for d in split_corpus(docs, seed=BENCH_SPLIT_SEED)[2]}
        if not {LengthBucket.B2_5, LengthBucket.B21_25} <= test_buckets:
            raise RuntimeError("the bench_cli length profile lacks 2-5 or 21-25 page test documents")
        workdir.mkdir(parents=True, exist_ok=True)
        self.corpus_path = workdir / "corpus.jsonl"
        with tracer.span("corpus.save"):
            save_corpus(docs, self.corpus_path)
        config = {
            "seed": BENCH_SPLIT_SEED,
            "corpus": {"n_docs": BENCH_DOCS, "dim": DIM, "seed": seed},
            "model": {"seed": seed},
            "train": {"epochs": BENCH_EPOCHS, "batch_size": BATCH, "seed": seed},
            "bench": {"eval_seed": seed},
        }
        self.config_path = workdir / "bench_config.json"
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        self.out = workdir / "bench_out"
        self.argv = [
            "bench",
            "--config", str(self.config_path),
            "--corpus", str(self.corpus_path),
            "--models", ",".join(BENCH_MENU),
            "--jobs", "1",
            "--out", str(self.out),
        ]  # fmt: skip

    def reset(self) -> None:
        pass

    def operations(self):
        def bench():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = pageorder.cli.main(self.argv)
            if code != 0:
                raise RuntimeError(f"pageorder bench exited with {code}: {sink.getvalue()[-2000:]}")
            return (self.out / "report.csv").read_bytes()

        return [("cli.main", bench)]

    def summary(self, pass_s: float) -> dict:
        report = read_report_csv(self.out / "report.csv")
        tau = np.mean([row.tau_overall for row in report.rows if row.name in NEURAL_ROWS])
        return {"bench_wall_s": (pass_s, "s"), "test_tau": (float(tau), "tau")}

    def gate(self, tally: Tally, seed: int) -> None:
        report = tally.run("read report.csv", lambda: read_report_csv(self.out / "report.csv"))
        tally.check(
            "report.csv holds every menu row", report is not None and [r.name for r in report.rows] == list(BENCH_MENU)
        )
        logs = sorted((self.out / "logs").glob("*.csv"))
        tally.check("one training log per neural row and specialist", len(logs) == 2 + len(LengthBucket))
        for path in logs:
            rows = tally.run(f"read {path.name}", lambda: read_training_log(path))
            tally.check(
                f"{path.name}: last-epoch train_loss below the first",
                bool(rows) and rows[-1]["train_loss"] < rows[0]["train_loss"],
            )
        tally.check("locality.csv written", (self.out / "locality.csv").is_file())


WORKLOADS = {w.name: w for w in (TrainMix, DecodeLong, BenchCli)}
