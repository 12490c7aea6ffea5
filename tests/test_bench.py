import csv

import numpy as np
import pytest

from pageorder.bench import (
    MENU,
    REFERENCE_TABLE,
    EvalReport,
    ReportRow,
    emit_figures,
    locality_experiment,
    read_report_csv,
    render_report_text,
    run_benchmark,
    transfer_experiment,
    write_report_csv,
)
from pageorder.bench.run import (
    REFERENCE_LOCAL_LONG,
    REFERENCE_LOCAL_SHORT,
    REFERENCE_LOCALITY_RATIO,
    REFERENCE_TRANSFER,
    REFERENCE_TRANSFER_IN_DOMAIN,
)
from pageorder.corpus import CorpusConfig, LengthBucket, generate_corpus, split_corpus
from pageorder.errors import ConfigError
from pageorder.models import Arch, ModelConfig, build_model
from pageorder.training import TrainConfig

DIM = 16


def figure_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def report_row(bench, name: str):
    return next(r for r in bench.report.rows if r.name == name)


@pytest.fixture(scope="module")
def tiny_splits():
    docs = generate_corpus(CorpusConfig(n_docs=150, dim=DIM, chrono_dim=4, seed=31))
    return split_corpus(docs, seed=31)


@pytest.fixture(scope="module")
def small_bench(tiny_splits):
    splits = tiny_splits
    return run_benchmark(
        splits,
        ("random", "tsp_nn", "pairwise"),
        TrainConfig(epochs=2, batch_size=8, seed=5),
        eval_seed=42,
        model_seed=1,
    )


class TestRunBenchmark:
    def test_report_has_requested_rows(self, small_bench):
        assert [r.name for r in small_bench.report.rows] == ["random", "tsp_nn", "pairwise"]

    def test_param_counts_are_computed(self, small_bench):
        assert report_row(small_bench, "random").param_count == 0
        pairwise = report_row(small_bench, "pairwise")
        assert pairwise.param_count == small_bench.models["pairwise"].param_count()

    def test_docs_per_bucket_match_test_split(self, small_bench, tiny_splits):
        splits = tiny_splits
        total = sum(small_bench.report.rows[0].docs_by_bucket.values())
        assert total == len(splits[2])

    def test_random_row_near_zero(self, small_bench):
        assert abs(report_row(small_bench, "random").tau_overall) < 0.25  # tiny test split

    def test_unknown_config_rejected(self, tiny_splits):
        splits = tiny_splits
        with pytest.raises(ConfigError):
            run_benchmark(
                splits,
                ("nonsense",),
                TrainConfig(epochs=1),
                eval_seed=1,
            )

    def test_rerun_is_deterministic(self, tiny_splits, small_bench):
        splits = tiny_splits
        again = run_benchmark(
            splits,
            ("random", "tsp_nn", "pairwise"),
            TrainConfig(epochs=2, batch_size=8, seed=5),
            eval_seed=42,
            model_seed=1,
        )
        for a, b in zip(small_bench.report.rows, again.report.rows):
            assert a.tau_by_bucket == b.tau_by_bucket
            assert a.tau_overall == b.tau_overall


class TestReportSerialization:
    def test_csv_round_trip(self, small_bench, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(small_bench.report, path)
        loaded = read_report_csv(path)
        assert loaded.corpus_digest == small_bench.report.corpus_digest
        assert loaded.seeds == small_bench.report.seeds
        for a, b in zip(small_bench.report.rows, loaded.rows):
            assert a.name == b.name
            assert a.tau_by_bucket == b.tau_by_bucket
            assert a.tau_overall == b.tau_overall
            assert a.param_count == b.param_count
            assert a.docs_by_bucket == b.docs_by_bucket

    def test_text_rendering_contains_reference_rows(self, small_bench):
        text = render_report_text(small_bench.report)
        assert "tsp_nn" in text
        assert "[reference]" in text

    def test_paper_table_covers_full_menu(self):
        assert set(REFERENCE_TABLE) == set(MENU)


@pytest.fixture(scope="module")
def figure_dir(small_bench, tmp_path_factory):
    out = tmp_path_factory.mktemp("figures")
    emit_figures(small_bench.report, small_bench.logs, out)
    return out


class TestFigures:

    def test_four_files_emitted(self, figure_dir):
        files = sorted(p.name for p in figure_dir.iterdir())
        assert files == [
            "figure1_tau_by_method_and_length.csv",
            "figure2_short_vs_long.csv",
            "figure3_pe_ablation.csv",
            "figure4_training_stability.csv",
        ]

    def test_grouped_bar_data_round_trips_report(self, small_bench, figure_dir):
        rows = figure_rows(figure_dir / "figure1_tau_by_method_and_length.csv")
        by_model: dict = {}
        for row in rows:
            by_model.setdefault(row["model"], {})[row["bucket"]] = float(row["tau"])
        for report_row in small_bench.report.rows:
            for bucket, tau in report_row.tau_by_bucket.items():
                assert by_model[report_row.name][bucket.label] == tau

    def test_scatter_rows_and_diagonal_flag(self, small_bench, figure_dir):
        rows = figure_rows(figure_dir / "figure2_short_vs_long.csv")
        assert {r["model"] for r in rows} <= {r.name for r in small_bench.report.rows}
        for row in rows:
            expected = int(float(row["tau_long"]) < float(row["tau_short"]))
            assert int(row["below_diagonal"]) == expected

    def test_ablation_relative_to_learned(self, tmp_path):
        taus = {
            "seq2seq_learned": (0.9, 0.8, 0.3, 0.1, 0.014),
            "seq2seq_sinusoidal": (0.89, 0.76, 0.4, 0.2, 0.061),
            "seq2seq_none": (0.87, 0.77, 0.37, 0.05, 0.026),
        }
        rows = []
        for name, values in taus.items():
            rows.append(
                ReportRow(
                    name=name,
                    tau_by_bucket={b: v for b, v in zip(LengthBucket, values)},
                    tau_overall=float(np.mean(values)),
                    param_count=1,
                    docs_by_bucket={b: 1 for b in LengthBucket},
                )
            )
        report = EvalReport(rows=rows, corpus_digest="x", seeds={})
        emit_figures(report, {}, tmp_path)
        parsed = figure_rows(tmp_path / "figure3_pe_ablation.csv")
        learned = [r for r in parsed if r["variant"] == "seq2seq_learned"]
        assert all(float(r["relative_improvement"]) == 0.0 for r in learned)
        sin_last = [
            r for r in parsed if r["variant"] == "seq2seq_sinusoidal" and r["bucket"] == "21-25"
        ][0]
        assert float(sin_last["relative_improvement"]) == pytest.approx((0.061 - 0.014) / 0.014)

    def test_training_curve_rows_flag_negative_epochs(self, tmp_path):
        taus = [0.1, -0.05, 0.3]
        history = [{"epoch": i, "val_tau_overall": tau} for i, tau in enumerate(taus)]
        report = EvalReport(rows=[], corpus_digest="x", seeds={})
        emit_figures(report, {"seq2seq_learned": history}, tmp_path)
        rows = figure_rows(tmp_path / "figure4_training_stability.csv")
        assert [(r["variant"], int(r["epoch"]), float(r["val_tau"])) for r in rows] == [
            ("seq2seq_learned", 0, 0.1),
            ("seq2seq_learned", 1, -0.05),
            ("seq2seq_learned", 2, 0.3),
        ]
        # epochs with negative validation tau are flagged worse-than-random
        assert [int(r["worse_than_random"]) for r in rows] == [0, 1, 0]


class TestTransferExperiment:
    def test_outputs_and_direction(self, tiny_splits):
        splits = tiny_splits
        result = transfer_experiment(
            splits,
            TrainConfig(epochs=3, batch_size=8, seed=5),
            eval_seed=42,
            model_seed=2,
        )
        assert result.n_train_docs > 0
        assert -1.0 <= result.tau_transfer <= 1.0
        assert result.tau_transfer < result.tau_in_domain
        # the paper's reference values are module constants, written beside the result
        assert (REFERENCE_TRANSFER_IN_DOMAIN, REFERENCE_TRANSFER) == (0.8817, 0.1618)


class TestLocalityExperiment:
    def test_schema_and_ratio(self, tiny_splits):
        splits = tiny_splits
        cfg_short = ModelConfig(arch=Arch.PAIRWISE_RANK, input_dim=DIM, hidden_dim=16, layers=1, heads=2, seed=1)
        cfg_long = ModelConfig(arch=Arch.PAIRWISE_RANK, input_dim=DIM, hidden_dim=16, layers=1, heads=2, seed=2)
        comparison = locality_experiment(
            build_model(cfg_short), build_model(cfg_long), splits[2], eval_seed=42
        )
        assert 0.0 <= comparison.short.local_fraction <= 1.0
        assert 0.0 <= comparison.long.local_fraction <= 1.0
        assert comparison.ratio == pytest.approx(
            comparison.long.avg_distance / comparison.short.avg_distance
        )
        assert REFERENCE_LOCAL_SHORT.local_fraction == 0.779
        assert REFERENCE_LOCAL_LONG.avg_distance == 7.59
        assert REFERENCE_LOCALITY_RATIO == 4.96
