"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The expensive resources (default corpus, 30-epoch training run) come from
session fixtures in conftest.py and are shared across criteria.
"""

import csv
import itertools
import json
import time

import numpy as np
import pytest

from pageorder.bench import FIGURE_FILES, MENU, read_report_csv
from pageorder.bench.run import REFERENCE_TRANSFER, REFERENCE_TRANSFER_IN_DOMAIN
from pageorder.cli import main as cli_main
from pageorder.corpus import CorpusConfig, LengthBucket, generate_corpus, split_corpus
from pageorder.gradgate import run_gradient_gate
from pageorder.metrics import attention_locality, kendall_tau, require_permutation
from pageorder.models import (
    Arch,
    ModelConfig,
    PairwiseScores,
    aggregate_scores,
    build_model,
    desk_config,
)
from pageorder.numcore import Tensor, no_grad
from pageorder.training import Strategy, TrainConfig, evaluate, fit
from tests.conftest import ACCEPT_EVAL_SEED

BUCKET_ORDER = list(LengthBucket)


def _verdict(number: int, name: str, ok: bool, started: float, detail: str = "") -> None:
    elapsed = time.time() - started
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status} [{elapsed:.1f}s]{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def pairwise_score_matrix(model, pages: np.ndarray) -> np.ndarray:
    """The pairwise model's (n, n) score matrix of one (n, dim) document."""
    with no_grad():
        s, _ = model.score_matrix(Tensor(pages[None]))
    return s.data[0]


def brute_force_tau(pred, truth_rank):
    n = len(pred)
    pred_rank = [0] * n
    for position, slot in enumerate(pred):
        pred_rank[slot] = position
    concordant = discordant = 0
    for a in range(n):
        for b in range(a + 1, n):
            if (pred_rank[a] - pred_rank[b]) * (truth_rank[a] - truth_rank[b]) > 0:
                concordant += 1
            else:
                discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)


class TestAcceptance:
    def test_c01_tau_oracle_equivalence(self):
        started = time.time()
        rng = np.random.default_rng(17)
        exact = True
        for _ in range(1000):
            n = int(rng.integers(2, 11))
            pred = rng.permutation(n)
            truth = rng.permutation(n)
            if kendall_tau(pred, truth) != brute_force_tau(pred, truth):
                exact = False
                break
        identity = kendall_tau(np.argsort(rng.permutation(8)), np.arange(8)[::-1].copy())
        truth = rng.permutation(9)
        ordered = np.argsort(truth)
        ok = (
            exact
            and kendall_tau(ordered, truth) == 1.0
            and kendall_tau(ordered[::-1].copy(), truth) == -1.0
            and time.time() - started < 5.0
        )
        _verdict(1, "tau-oracle-equivalence", ok, started, "1000 pairs, n in [2,10]")

    def test_c02_gradient_gate(self):
        started = time.time()
        reports = run_gradient_gate(tolerance=1e-3).values()
        ok = all(r.passed for r in reports) and time.time() - started < 60.0
        _verdict(2, "gradient-gate", ok, started, f"max rel err {max(r.max_rel_error for r in reports):.2e}")

    def test_c03_permutation_validity(self):
        started = time.time()
        dim = 16
        rng = np.random.default_rng(23)
        train_docs = generate_corpus(CorpusConfig(n_docs=90, dim=dim, chrono_dim=4, seed=41))
        train, val, _ = split_corpus(train_docs, seed=41)
        checked = 0
        for arch in Arch:
            cfg = ModelConfig(arch=arch, input_dim=dim, hidden_dim=32, layers=1, heads=2, seed=3)
            untrained = build_model(cfg)
            for _ in range(500):
                n = int(rng.integers(2, 26))
                require_permutation(untrained.order(rng.normal(size=(n, dim)).astype(np.float32)), n)
                checked += 1
            trained = build_model(cfg)
            fit(trained, train, val, TrainConfig(epochs=2, batch_size=8, seed=5))
            for _ in range(500):
                n = int(rng.integers(2, 26))
                require_permutation(trained.order(rng.normal(size=(n, dim)).astype(np.float32)), n)
                checked += 1
        ok = checked == 5000 and time.time() - started < 60.0
        _verdict(3, "permutation-validity", ok, started, f"{checked} decodes across 5 architectures")

    def test_c04_aggregation_oracle(self):
        started = time.time()
        rng = np.random.default_rng(29)
        ok = True
        for n in range(2, 26):
            for _ in range(100):
                truth = rng.permutation(n)
                s = np.where(truth[None, :] > truth[:, None], 1.0, -1.0)
                _, ordering = aggregate_scores(PairwiseScores(n=n, s=s))
                if not np.array_equal(truth[ordering], np.arange(n)):
                    ok = False
                    break
        ok = ok and time.time() - started < 5.0
        _verdict(4, "aggregation-oracle", ok, started, "100 random truths per n in [2,25]")

    def test_c05_equivariance(self):
        started = time.time()
        cfg = ModelConfig(arch=Arch.PAIRWISE_RANK, input_dim=16, hidden_dim=32, layers=1, heads=2, seed=7)
        model = build_model(cfg, dtype=np.float64)
        ok = True
        for n in (3, 4):
            pages = np.random.default_rng(n).normal(size=(n, 16)).astype(np.float64)
            base = pairwise_score_matrix(model, pages)
            for perm in itertools.permutations(range(n)):
                perm = np.asarray(perm)
                permuted = pairwise_score_matrix(model, pages[perm])
                if not np.allclose(permuted, base[np.ix_(perm, perm)], atol=1e-9):
                    ok = False
        ok = ok and time.time() - started < 30.0
        _verdict(5, "pairwise-equivariance", ok, started, "exhaustive at n=3 and n=4")

    def test_c06_heuristic_failure(self, default_heuristics):
        started = time.time()
        full, _ = default_heuristics
        worst = max(
            max(result.per_bucket.values()) for result in full.values()
        )
        ok = all(
            tau < 0.3 for result in full.values() for tau in result.per_bucket.values()
        )
        _verdict(6, "heuristic-failure", ok, started, f"worst bucket tau {worst:.3f} < 0.3 on 2000 docs")

    def test_c07_learnability(self, trained_pairwise_default, default_heuristics, default_test_instances):
        started = time.time()
        model, _ = trained_pairwise_default
        result = evaluate(model, default_test_instances)
        _, test_heur = default_heuristics
        short_tau = result.per_bucket[LengthBucket.B2_5]
        beats = all(
            result.per_bucket[b] > max(test_heur["greedy_nn"].per_bucket[b], test_heur["tsp_nn"].per_bucket[b])
            for b in result.per_bucket
        )
        ok = short_tau >= 0.85 and beats
        _verdict(
            7,
            "learnability",
            ok,
            started,
            f"B2_5 tau {short_tau:.3f} >= 0.85, beats heuristics on every bucket: {beats}",
        )

    def test_c08_strategy_reduction(self):
        started = time.time()
        docs = generate_corpus(CorpusConfig(n_docs=250, seed=3))
        train, val, _ = split_corpus(docs, seed=3)
        base = dict(epochs=4, batch_size=16, seed=11)
        model_u = build_model(desk_config(Arch.PAIRWISE_RANK, 64, seed=2))
        series_u = fit(model_u, train, val, TrainConfig(**base)).val_tau_series
        model_s = build_model(desk_config(Arch.PAIRWISE_RANK, 64, seed=2))
        series_s = fit(
            model_s,
            train,
            val,
            TrainConfig(
                strategy=Strategy.SPECIALIZED_DIRECT,
                target_bucket=LengthBucket.B11_15,
                weight_factor=1.0,
                **base,
            ),
        ).val_tau_series
        ok = np.array_equal(series_u, series_s) and time.time() - started < 300.0
        _verdict(8, "strategy-reduction", ok, started, "bit-exact tau series at weight factor 1.0")

    def test_c09_transfer_directionality(self, default_corpus):
        started = time.time()
        from pageorder.bench import transfer_experiment

        _, _, splits = default_corpus
        result = transfer_experiment(
            splits,
            TrainConfig(epochs=30, batch_size=16, seed=7),
            eval_seed=ACCEPT_EVAL_SEED,
            model_seed=1,
        )
        ok = (
            result.tau_in_domain >= 0.8
            and result.tau_transfer <= 0.5 * result.tau_in_domain
            and time.time() - started < 900.0
        )
        _verdict(
            9,
            "transfer-directionality",
            ok,
            started,
            f"in-domain {result.tau_in_domain:.3f} -> transfer {result.tau_transfer:.3f} "
            f"(reference values {REFERENCE_TRANSFER_IN_DOMAIN} -> {REFERENCE_TRANSFER} attached, not asserted)",
        )

    def test_c10_locality_metric(self):
        started = time.time()
        identity = attention_locality([np.eye(5)[None]])
        uniform = attention_locality([np.full((1, 3, 3), 1.0 / 3.0)])
        far = np.zeros((1, 10, 10))
        for i in range(10):
            far[0, i, 9 - i] = 1.0
        farthest = attention_locality([far])
        ok = (
            identity.local_fraction == 1.0
            and identity.avg_distance == 0.0
            and uniform.local_fraction == pytest.approx(1.0)
            and uniform.avg_distance == pytest.approx(8.0 / 9.0)
            and farthest.local_fraction == pytest.approx(0.2)
            and farthest.avg_distance == pytest.approx(np.mean([9, 7, 5, 3, 1, 1, 3, 5, 7, 9]))
            and time.time() - started < 1.0
        )
        _verdict(10, "locality-metric", ok, started, "identity, uniform 3x3 (8/9), farthest one-hot")

    def test_c11_cli_determinism(self, tmp_path):
        started = time.time()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "corpus": {"n_docs": 100, "dim": 16, "chrono_dim": 4, "seed": 13},
                    "train": {"epochs": 2, "batch_size": 8},
                }
            )
        )
        assert cli_main(["gen", "--config", str(cfg), "--out", str(tmp_path / "gen")]) == 0
        corpus = str(tmp_path / "gen" / "corpus.jsonl")
        menu = "random,pairwise,seq2seq_learned,seq2seq_sinusoidal,seq2seq_none"
        for out in ("run1", "run2"):
            code = cli_main(
                ["bench", "--config", str(cfg), "--corpus", corpus, "--models", menu, "--out", str(tmp_path / out)]
            )
            assert code == 0
        identical = True
        compared = 0
        for rel in ["report.csv", "report.txt"] + [f"figures/{name}" for name in FIGURE_FILES]:
            a = (tmp_path / "run1" / rel).read_bytes()
            b = (tmp_path / "run2" / rel).read_bytes()
            compared += 1
            if a != b:
                identical = False
        _verdict(11, "cli-determinism", identical, started, f"{compared} files byte-identical")

    def test_c12_schema_fidelity(self, tmp_path):
        started = time.time()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "corpus": {"n_docs": 240, "dim": 16, "chrono_dim": 4, "seed": 17},
                    "train": {"epochs": 4, "batch_size": 8},
                }
            )
        )
        assert cli_main(["gen", "--config", str(cfg), "--out", str(tmp_path / "gen")]) == 0
        code = cli_main(
            [
                "bench",
                "--config",
                str(cfg),
                "--corpus",
                str(tmp_path / "gen" / "corpus.jsonl"),
                "--models",
                "all",
                "--out",
                str(tmp_path / "bench"),
            ]
        )
        assert code == 0
        report = read_report_csv(tmp_path / "bench" / "report.csv")
        names = [r.name for r in report.rows]
        twelve_rows = names == list(MENU) and len(names) == 12
        per_bucket_columns = all(
            set(r.docs_by_bucket) == set(LengthBucket) for r in report.rows
        )
        figures_ok = True
        for name in FIGURE_FILES:
            with (tmp_path / "bench" / "figures" / name).open(newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            if name.startswith("figure1"):
                by_model: dict = {}
                for row in rows:
                    by_model.setdefault(row["model"], {})[row["bucket"]] = float(row["tau"])
                for r in report.rows:
                    for bucket, tau in r.tau_by_bucket.items():
                        if by_model[r.name][bucket.label] != tau:
                            figures_ok = False
            elif not rows:
                figures_ok = False
        ok = twelve_rows and per_bucket_columns and figures_ok
        _verdict(
            12,
            "schema-fidelity",
            ok,
            started,
            f"12 rows: {twelve_rows}, bucket columns: {per_bucket_columns}, figures round-trip: {figures_ok}",
        )
