import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pageorder.corpus import (
    CorpusConfig,
    Document,
    LengthBucket,
    bucket_of,
    generate_corpus,
    shuffle_instance,
    split_corpus,
)
from pageorder.metrics import mean_tau
from pageorder.errors import ConfigError, DomainError
from pageorder.models import Arch, Model, ModelConfig, build_model, load_checkpoint, save_checkpoint
from pageorder.numcore import Tensor, TrainingDivergedError, grad_check, no_grad
from pageorder.training import (
    ConsistencyError,
    CurriculumStage,
    Strategy,
    TrainConfig,
    curriculum_schedule,
    evaluate,
    fit,
    loss_pairwise,
    loss_pointer,
    loss_position,
    make_pairwise_targets,
    read_training_log,
    write_training_log,
)
from pageorder.training.loop import SpecialistEnsemble

DIM = 12


def tiny(arch, seed=3, dtype=np.float32, **kw):
    defaults = dict(input_dim=DIM, hidden_dim=8, layers=1, heads=2, seed=seed)
    defaults.update(kw)
    return build_model(ModelConfig(arch=arch, **defaults), dtype=dtype)


class TestPairwiseTargets:
    def test_identity_truth(self):
        (y,) = make_pairwise_targets(np.array([[0, 1]]))
        assert y[0, 1] and not y[1, 0] and not y[0, 0]

    def test_swapped_truth(self):
        (y,) = make_pairwise_targets(np.array([[1, 0]]))
        assert y[1, 0] and not y[0, 1]

    def test_antisymmetric_off_diagonal(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            (y,) = make_pairwise_targets(rng.permutation(n)[None])
            assert not y.diagonal().any()
            off = ~np.eye(n, dtype=bool)
            assert (y ^ y.T)[off].all()

    def test_batch_row_per_document(self):
        truth = np.array([[0, 1, 2], [2, 0, 1]])
        y = make_pairwise_targets(truth)
        assert y.shape == (2, 3, 3)
        for b in range(2):
            assert np.array_equal(y[b], truth[b][None, :] > truth[b][:, None])


class TestLossPairwise:
    def test_zero_scores_give_ln2(self):
        s = Tensor(np.zeros((1, 3, 3), dtype=np.float64))
        y = make_pairwise_targets(np.array([[0, 1, 2]]))
        assert loss_pairwise(s, y).item() == pytest.approx(np.log(2.0))

    def test_confident_correct_scores_vanish(self):
        y = make_pairwise_targets(np.array([[0, 1, 2]]))
        s = np.where(y, 50.0, -50.0).astype(np.float64)
        loss = loss_pairwise(Tensor(s), y)
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_target_shape_must_match_scores(self):
        s = Tensor(np.zeros((1, 3, 3), dtype=np.float64))
        with pytest.raises(DomainError):
            loss_pairwise(s, np.zeros((3, 3), dtype=bool))

    def test_gradient_against_finite_differences(self):
        model = tiny(Arch.PAIRWISE_RANK, dtype=np.float64)
        pages = np.random.default_rng(1).normal(size=(1, 3, DIM))
        y = make_pairwise_targets(np.array([[2, 0, 1]]))

        def f():
            s, _ = model.score_matrix(Tensor(pages))
            return loss_pairwise(s, y).sum()

        report = grad_check(f, model.named_parameters(), epsilon=1e-5, tolerance=1e-3)
        assert report.passed, report.summary()


class TestLossPointer:
    def test_uniform_logits_give_log_k(self):
        n = 4
        logits = Tensor(np.zeros((1, n, n), dtype=np.float64))
        sel = np.arange(n)[None, :]
        valid = np.ones((1, n, n), dtype=bool)
        for t in range(1, n):
            valid[0, t, :t] = False
        expected = np.mean([np.log(n - t) for t in range(n)])
        assert loss_pointer(logits, sel, valid).item() == pytest.approx(expected)

    def test_perfect_logits_vanish(self):
        n = 3
        raw = np.full((1, n, n), -60.0)
        for t in range(n):
            raw[0, t, t] = 60.0
        valid = np.ones((1, n, n), dtype=bool)
        for t in range(1, n):
            valid[0, t, :t] = False
        loss = loss_pointer(Tensor(raw.astype(np.float64)), np.arange(n)[None], valid)
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_masked_label_is_inconsistent(self):
        logits = Tensor(np.zeros((1, 2, 2), dtype=np.float64))
        valid = np.array([[[True, True], [True, False]]])
        with pytest.raises(ConsistencyError):
            loss_pointer(logits, np.array([[1, 1]]), valid)

    @pytest.mark.parametrize("arch", [Arch.POINTER_MLP, Arch.POINTER_LSTM, Arch.SEQ2SEQ])
    def test_gradient_through_each_decoder(self, arch):
        model = tiny(arch, dtype=np.float64)
        rng = np.random.default_rng(2)
        pages = rng.normal(size=(1, 4, DIM))
        truth = rng.permutation(4)[None, :]

        def f():
            logits, sel, valid = model.teacher_logits(Tensor(pages), truth)
            return loss_pointer(logits, sel, valid).sum()

        report = grad_check(f, model.named_parameters(), epsilon=1e-5, tolerance=1e-3)
        assert report.passed, report.summary()


class TestLossPosition:
    def test_exact_scores_give_zero(self):
        truth = np.array([[1, 0, 2]])
        scores = Tensor(truth.astype(np.float64) / 2.0)
        assert loss_position(scores, truth).item() == pytest.approx(0.0)

    def test_flat_half_scores_two_pages(self):
        scores = Tensor(np.full((1, 2), 0.5, dtype=np.float64))
        assert loss_position(scores, np.array([[0, 1]])).item() == pytest.approx(0.25)

    def test_too_few_pages(self):
        with pytest.raises(DomainError):
            loss_position(Tensor(np.zeros((1, 1))), np.array([[0]]))

    def test_gradient_through_bilstm(self):
        model = tiny(Arch.BILSTM_POS, dtype=np.float64)
        rng = np.random.default_rng(3)
        pages = rng.normal(size=(1, 3, DIM))
        truth = rng.permutation(3)[None, :]

        def f():
            return loss_position(model.position_scores(Tensor(pages)), truth).sum()

        report = grad_check(f, model.named_parameters(), epsilon=1e-5, tolerance=1e-3)
        assert report.passed, report.summary()


class TestBatchWeight:
    @staticmethod
    def direct(factor=5.0):
        return TrainConfig(strategy=Strategy.SPECIALIZED_DIRECT, target_bucket=LengthBucket.B11_15, weight_factor=factor)

    def test_target_bucket_upweighted(self):
        assert [self.direct().batch_weight(n) for n in (11, 12, 15)] == [5.0, 5.0, 5.0]

    def test_other_buckets_unit_weight(self):
        assert [self.direct().batch_weight(n) for n in (3, 10, 16, 25)] == [1.0, 1.0, 1.0, 1.0]

    def test_factor_one_is_universal(self):
        assert all(self.direct(1.0).batch_weight(n) == 1.0 for n in range(2, 26))

    @pytest.mark.parametrize(
        "cfg",
        [
            TrainConfig(),
            TrainConfig(epochs=8, strategy=Strategy.SPECIALIZED_CURRICULUM, target_bucket=LengthBucket.B11_15),
        ],
        ids=["universal", "specialized_curriculum"],
    )
    def test_other_strategies_weigh_every_batch_alike(self, cfg):
        assert all(cfg.batch_weight(n) == 1.0 for n in range(2, 26))


class TestStages:
    @pytest.mark.parametrize("strategy", [Strategy.UNIVERSAL, Strategy.SPECIALIZED_DIRECT], ids=lambda s: s.value)
    def test_one_full_range_stage(self, strategy):
        target = None if strategy is Strategy.UNIVERSAL else LengthBucket.B6_10
        stages = TrainConfig(epochs=7, strategy=strategy, target_bucket=target).stages()
        assert stages == [CurriculumStage(2, 25, 7, 1.0)]

    def test_curriculum_is_the_schedule(self):
        cfg = TrainConfig(epochs=20, strategy=Strategy.SPECIALIZED_CURRICULUM, target_bucket=LengthBucket.B16_20)
        assert cfg.stages() == curriculum_schedule(LengthBucket.B16_20, 20)


class TestCurriculumSchedule:
    def test_b6_10_hundred_epochs(self):
        stages = curriculum_schedule(LengthBucket.B6_10, 100)
        assert [(s.min_len, s.max_len, s.epochs, s.lr_scale) for s in stages] == [
            (2, 5, 15, 1.0),
            (4, 7, 15, 1.0),
            (6, 10, 50, 1.0),
            (6, 10, 20, 0.1),
        ]

    def test_b2_5_collapses_to_two_stages(self):
        stages = curriculum_schedule(LengthBucket.B2_5, 100)
        assert [(s.min_len, s.max_len, s.epochs, s.lr_scale) for s in stages] == [
            (2, 5, 80, 1.0),
            (2, 5, 20, 0.1),
        ]

    @pytest.mark.parametrize("bucket", list(LengthBucket))
    def test_stage_lengths_never_exceed_target(self, bucket):
        for stages in (curriculum_schedule(bucket, 20), curriculum_schedule(bucket, 100)):
            assert all(s.max_len <= bucket.max_len for s in stages)
            assert sum(s.epochs for s in stages) in (20, 100)

    def test_epochs_below_four_rejected(self):
        with pytest.raises(ConfigError):
            curriculum_schedule(LengthBucket.B6_10, 3)

    def test_stage_validation(self):
        with pytest.raises(ConfigError):
            CurriculumStage(5, 3, 10, 1.0)
        with pytest.raises(ConfigError):
            CurriculumStage(2, 5, 0, 1.0)


class TestTrainConfig:
    def test_specialized_requires_target(self):
        with pytest.raises(ConfigError):
            TrainConfig(strategy=Strategy.SPECIALIZED_DIRECT)

    def test_curriculum_too_short_is_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="at least 4 epochs"):
            TrainConfig(epochs=3, strategy=Strategy.SPECIALIZED_CURRICULUM, target_bucket=LengthBucket.B6_10)

    def test_weight_factor_floor(self):
        with pytest.raises(ConfigError):
            TrainConfig(weight_factor=0.5)

    @pytest.mark.parametrize(
        "knob",
        [
            {"lr": -1e-3},
            {"lr": 0.0},
            {"clip_norm": -1.0},
            {"clip_norm": 0.0},
        ],
        ids=lambda knob: "{}={}".format(*next(iter(knob.items()))),
    )
    def test_non_positive_step_knob_is_rejected(self, knob):
        with pytest.raises(ConfigError, match=next(iter(knob))):
            TrainConfig(**knob)


@pytest.fixture(scope="module")
def small_corpus():
    docs = generate_corpus(CorpusConfig(n_docs=120, dim=DIM, chrono_dim=4, seed=21))
    return split_corpus(docs, seed=21)


class TestFit:
    def test_deterministic_tau_series(self, small_corpus):
        train, val, _ = small_corpus
        runs = []
        for _ in range(2):
            model = tiny(Arch.PAIRWISE_RANK, seed=8)
            result = fit(model, train, val, TrainConfig(epochs=2, batch_size=8, seed=5))
            runs.append(result.val_tau_series)
        assert np.array_equal(runs[0], runs[1])

    def test_bit_identical_parameter_trajectories(self, small_corpus):
        train, val, _ = small_corpus
        states = []
        for _ in range(2):
            model = tiny(Arch.BILSTM_POS, seed=8)
            fit(model, train, val, TrainConfig(epochs=1, batch_size=8, seed=5))
            states.append(model.state_arrays())
        for name in states[0]:
            assert np.array_equal(states[0][name], states[1][name]), name

    def test_strategy_reduction_bit_exact(self, small_corpus):
        train, val, _ = small_corpus
        universal = tiny(Arch.PAIRWISE_RANK, seed=8)
        res_u = fit(universal, train, val, TrainConfig(epochs=2, batch_size=8, seed=5))
        specialized = tiny(Arch.PAIRWISE_RANK, seed=8)
        res_s = fit(
            specialized,
            train,
            val,
            TrainConfig(
                epochs=2,
                batch_size=8,
                seed=5,
                strategy=Strategy.SPECIALIZED_DIRECT,
                target_bucket=LengthBucket.B6_10,
                weight_factor=1.0,
            ),
        )
        assert np.array_equal(res_u.val_tau_series, res_s.val_tau_series)

    def test_specialist_weight_scales_the_target_bucket_gradient(self, small_corpus, monkeypatch):
        import pageorder.training.loop as loop

        train, val, _ = small_corpus
        clip = loop.clip_global_norm

        def pre_clip_norms(cfg):
            norms = []

            def recording_clip(grads, max_norm):
                norms.append(clip(grads, max_norm))
                return norms[-1]

            monkeypatch.setattr(loop, "clip_global_norm", recording_clip)
            fit(tiny(Arch.PAIRWISE_RANK, seed=8), train, val, cfg)
            return norms

        base = dict(epochs=1, batch_size=8, seed=5)
        universal = pre_clip_norms(TrainConfig(**base))
        specialized = pre_clip_norms(
            TrainConfig(
                **base, strategy=Strategy.SPECIALIZED_DIRECT, target_bucket=LengthBucket.B6_10, weight_factor=5.0
            )
        )
        # batches run shortest first: the 2-5 page steps match bit for bit, the first 6-10 page step is 5x
        first = next(i for i, (u, s) in enumerate(zip(universal, specialized)) if u != s)
        assert first > 0
        assert specialized[first] == pytest.approx(5.0 * universal[first], rel=1e-5)

    def test_curriculum_respects_stage_ranges(self, small_corpus):
        train, val, _ = small_corpus
        model = tiny(Arch.PAIRWISE_RANK, seed=9)
        cfg = TrainConfig(
            epochs=8,
            batch_size=8,
            seed=6,
            strategy=Strategy.SPECIALIZED_CURRICULUM,
            target_bucket=LengthBucket.B6_10,
        )
        result = fit(model, train, val, cfg)
        stages = curriculum_schedule(LengthBucket.B6_10, 8)
        bounds = []
        for idx, stage in enumerate(stages):
            bounds.extend([(stage.min_len, stage.max_len)] * stage.epochs)
        assert len(result.history) == 8
        for record, (lo, hi) in zip(result.history, bounds):
            assert record["stage_min_len"] == lo and record["stage_max_len"] == hi
            assert all(lo <= length <= hi for length in record["lengths_seen"])

    def test_returns_best_validation_snapshot(self, small_corpus):
        train, val, _ = small_corpus
        model = tiny(Arch.PAIRWISE_RANK, seed=10)
        result = fit(model, train, val, TrainConfig(epochs=3, batch_size=8, seed=7))
        assert result.best_epoch == int(np.argmax(result.val_tau_series))

    def test_a_stage_without_documents_fails_before_the_first_epoch(self, small_corpus):
        train, val, _ = small_corpus
        # stage 1 (2-5 pages) could train, but stage 3 (21-25 pages) has nothing
        train = [d for d in train if d.n_pages <= 15]
        model = tiny(Arch.PAIRWISE_RANK, seed=9)
        before = model.state_arrays()
        cfg = TrainConfig(
            epochs=8, batch_size=8, seed=6, strategy=Strategy.SPECIALIZED_CURRICULUM, target_bucket=LengthBucket.B21_25
        )
        with pytest.raises(ConfigError, match="no training documents with 21-25 pages"):
            fit(model, train, val, cfg)
        assert all(np.array_equal(before[k], v) for k, v in model.state_arrays().items())

    @pytest.mark.parametrize("arch", list(Arch), ids=lambda a: a.value)
    def test_returns_the_model_without_gradients(self, small_corpus, arch):
        train, val, _ = small_corpus
        model = tiny(arch, seed=8)
        fit(model, train[:16], val[:8], TrainConfig(epochs=1, batch_size=8, seed=5))
        assert all(p.grad is None for p in model.parameters())

    def test_no_gradient_is_an_error(self, small_corpus):
        train, val, _ = small_corpus
        model = tiny(Arch.POINTER_MLP, seed=12)
        with no_grad(), pytest.raises(TrainingDivergedError, match="epoch 0"):
            fit(model, train, val, TrainConfig(epochs=1, batch_size=8, seed=7))

    def test_nan_gradient_raises_before_any_step(self, small_corpus, monkeypatch):
        # a finite loss with one NaN gradient entry: the clipping norm is NaN, so the first step never runs
        train, val, _ = small_corpus
        model = tiny(Arch.PAIRWISE_RANK, seed=12)
        before = model.state_arrays()
        backward = Tensor.backward

        def poisoned_backward(self):
            backward(self)
            next(p for p in model.parameters() if p.grad is not None).grad.flat[0] = np.nan

        monkeypatch.setattr(Tensor, "backward", poisoned_backward)
        with pytest.raises(TrainingDivergedError, match="non-finite gradient"):
            fit(model, train, val, TrainConfig(epochs=1, batch_size=8, seed=7))
        assert all(np.array_equal(before[k], v) for k, v in model.state_arrays().items())

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_training_log_round_trip(self, small_corpus, tmp_path, strategy):
        train, val, _ = small_corpus
        # no 21-25 page validation documents, so that bucket's cells are empty
        val = [d for d in val if bucket_of(d.n_pages) is not LengthBucket.B21_25]
        target = None if strategy is Strategy.UNIVERSAL else LengthBucket.B6_10
        cfg = TrainConfig(epochs=4, batch_size=8, seed=7, strategy=strategy, target_bucket=target)
        history = fit(tiny(Arch.BILSTM_POS, seed=11), train, val, cfg).history
        path = tmp_path / "log.csv"
        write_training_log(history, path)
        assert [r["epoch"] for r in history] == [0, 1, 2, 3]
        assert all(r["val_tau_21-25"] is None and r["val_tau_6-10"] is not None for r in history)
        rows = [{k: v for k, v in r.items() if k != "lengths_seen"} for r in history]
        assert read_training_log(path) == rows
        # keys outside the log columns are not written
        write_training_log(rows, tmp_path / "rows.csv")
        assert (tmp_path / "rows.csv").read_bytes() == path.read_bytes()

    def test_failed_log_write_keeps_the_earlier_log(self, small_corpus, tmp_path):
        train, val, _ = small_corpus
        model = tiny(Arch.BILSTM_POS, seed=11)
        history = fit(model, train, val, TrainConfig(epochs=2, batch_size=8, seed=7)).history
        path = tmp_path / "log.csv"
        write_training_log(history, path)
        before = path.read_bytes()

        class Unwritable(float):
            def __repr__(self):
                raise OSError("disk full")

        # the second record fails after the header and the first record are formatted
        broken = {**history[1], "train_loss": Unwritable(1.0)}
        with pytest.raises(OSError, match="disk full"):
            write_training_log([history[0], broken], path)
        assert path.read_bytes() == before


class TestEvaluate:
    def _predictions(self, monkeypatch, model_or_ensemble, instances):
        """The predictions evaluate hands to mean_tau, and its result."""
        import pageorder.training.loop as loop

        seen = []
        original = loop.mean_tau

        def recording_mean_tau(insts, preds):
            seen.extend(preds)
            return original(insts, preds)

        monkeypatch.setattr(loop, "mean_tau", recording_mean_tau)
        result = evaluate(model_or_ensemble, instances)
        return [p.tolist() for p in seen], result

    @pytest.mark.parametrize("arch", list(Arch), ids=lambda a: a.value)
    def test_mixed_lengths_match_per_document_orders(self, small_corpus, monkeypatch, arch):
        _, val, test = small_corpus
        instances = [shuffle_instance(d, 4) for d in val + test]
        lengths = {i.n_pages for i in instances}
        assert 3 < len(lengths) < len(instances)  # several lengths, some shared
        model = tiny(arch)
        predictions, result = self._predictions(monkeypatch, model, instances)
        expected = [model.order(inst.pages).tolist() for inst in instances]
        assert predictions == expected
        assert result == mean_tau(instances, [np.asarray(p) for p in expected])

    def test_ensemble_routes_each_length_to_its_specialist(self, small_corpus, monkeypatch):
        _, val, test = small_corpus
        instances = [shuffle_instance(d, 4) for d in val + test]
        assert len({bucket_of(i.n_pages) for i in instances}) > 2
        models = {b: tiny(Arch.POINTER_MLP, seed=i) for i, b in enumerate(LengthBucket)}
        predictions, _ = self._predictions(monkeypatch, SpecialistEnsemble(models=models), instances)
        assert predictions == [models[bucket_of(inst.n_pages)].order(inst.pages).tolist() for inst in instances]

    @pytest.mark.parametrize("arch", list(Arch), ids=lambda a: a.value)
    def test_one_order_batch_call_per_model(self, small_corpus, monkeypatch, arch):
        _, val, test = small_corpus
        instances = [shuffle_instance(d, 4) for d in val + test]
        model = tiny(arch)
        calls = []
        order_batch = type(model).order_batch

        def counted(self, pages):
            calls.append([len(doc) for doc in pages])
            return order_batch(self, pages)

        monkeypatch.setattr(type(model), "order_batch", counted)
        evaluate(model, instances)
        assert calls == [[inst.n_pages for inst in instances]]

    def test_ensemble_hands_each_specialist_its_bucket_in_one_call(self, small_corpus, monkeypatch):
        # one order_batch call on a mixed-length list, 1-document lengths included, equals per-document order
        _, val, test = small_corpus
        instances = [shuffle_instance(d, 4) for d in val + test]
        models = {b: tiny(Arch.SEQ2SEQ, seed=i) for i, b in enumerate(LengthBucket)}
        expected = [models[bucket_of(inst.n_pages)].order(inst.pages).tolist() for inst in instances]
        calls = []
        for bucket, model in models.items():
            original = model.order_batch

            def counted(pages, bucket=bucket, original=original):
                calls.append((bucket, [len(doc) for doc in pages]))
                return original(pages)

            monkeypatch.setattr(model, "order_batch", counted)
        orders = SpecialistEnsemble(models=models).order_batch([inst.pages for inst in instances])
        assert [o.tolist() for o in orders] == expected
        assert len(calls) == len(LengthBucket)
        assert dict(calls) == {b: [i.n_pages for i in instances if bucket_of(i.n_pages) is b] for b in LengthBucket}


class LinearScorer(Model):
    """The model protocol at its smallest: one linear layer scores each page, trained by position regression."""

    def __init__(self, input_dim: int):
        super().__init__(ModelConfig(arch=Arch.BILSTM_POS, input_dim=input_dim, seed=4))
        self._glorot("w", (input_dim, 1))

    def _scores(self, pages: Tensor) -> Tensor:
        out = pages @ self.params["w"]
        return out.reshape(out.shape[0], out.shape[1])

    def loss(self, pages: Tensor, truth_rank: np.ndarray) -> Tensor:
        return loss_position(self._scores(pages), truth_rank)

    def order_padded(self, stack: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
        scores = self._scores(Tensor(stack)).data
        return [np.argsort(row[:n], kind="stable") for row, n in zip(scores, lengths)]


class TestModelProtocol:
    def test_loss_and_order_padded_are_all_fit_and_evaluate_need(self, small_corpus):
        train, val, test = small_corpus
        model = LinearScorer(DIM)
        start = model.params["w"].data.copy()
        assert model.flat is None  # built directly, not by build_model: the first fit builds the flat array
        result = fit(model, train, val, TrainConfig(epochs=3, batch_size=8, seed=7))
        assert_views_of_flat(model)
        assert len(result.history) == 3
        assert np.isfinite([r["train_loss"] for r in result.history]).all()
        assert not np.array_equal(model.params["w"].data, start)
        tau = evaluate(model, [shuffle_instance(d, 4) for d in test]).overall
        assert np.isfinite(tau)

    @pytest.mark.parametrize("arch", list(Arch), ids=lambda a: a.value)
    def test_loss_is_one_value_per_document(self, arch):
        model = tiny(arch, dtype=np.float64)
        rng = np.random.default_rng(5)
        pages = rng.normal(size=(3, 5, DIM))
        truth = np.stack([rng.permutation(5) for _ in range(3)])
        batched = model.loss(Tensor(pages), truth).data
        alone = [model.loss(Tensor(pages[b : b + 1]), truth[b : b + 1]).item() for b in range(3)]
        assert batched.shape == (3,)
        assert np.allclose(batched, alone, rtol=1e-12, atol=0.0)


def assert_views_of_flat(model: Model) -> None:
    """Every parameter's ``.data`` is its stretch of ``model.flat``, in registry order, and they fill it."""
    offset = 0
    for name, p in model.params.items():
        assert p.data.base is model.flat and p.data.ctypes.data == model.flat[offset:].ctypes.data, name
        offset += p.data.size
    assert offset == model.flat.size


class TestFlatParameters:
    @pytest.mark.parametrize("arch", list(Arch), ids=lambda a: a.value)
    def test_parameters_stay_views_of_the_flat_array(self, small_corpus, tmp_path, arch):
        train, val, _ = small_corpus
        model = tiny(arch, seed=8)
        assert_views_of_flat(model)
        other = tiny(arch, seed=9)
        model.load_state_arrays(other.state_arrays())
        assert_views_of_flat(model)
        assert np.array_equal(model.flat, other.flat)
        save_checkpoint(model, tmp_path / "m.ckpt")
        restored = load_checkpoint(tmp_path / "m.ckpt")
        assert_views_of_flat(restored)
        assert np.array_equal(restored.flat, other.flat)
        fit(restored, train[:16], val[:8], TrainConfig(epochs=1, batch_size=8, seed=5))
        assert_views_of_flat(restored)
        assert not np.array_equal(restored.flat, other.flat)

    @pytest.mark.parametrize("arch", list(Arch), ids=lambda a: a.value)
    def test_a_fit_after_reloading_the_initial_weights_repeats_a_fresh_fit(self, small_corpus, arch):
        # the benchmark's reset between passes: fit, load_state_arrays(initial), fit again
        train, val, _ = small_corpus
        cfg = TrainConfig(epochs=2, batch_size=8, seed=5)

        def fitted(model):
            series = fit(model, train[:24], val[:8], cfg).val_tau_series
            return series, model.flat.copy()

        model = tiny(arch, seed=8)
        initial = model.state_arrays()
        reloaded = []
        for _ in range(2):
            model.load_state_arrays(initial)
            reloaded.append(fitted(model))
        fresh = [fitted(tiny(arch, seed=8)) for _ in range(2)]
        for (series, weights), (fresh_series, fresh_weights) in zip(reloaded, fresh):
            assert np.array_equal(series, fresh_series)
            assert np.array_equal(weights, fresh_weights)

    def test_a_model_without_parameters_is_an_error(self, small_corpus):
        # an empty flat array, and a loss that needs no gradient: the fit refuses it before any step
        class Constant(Model):
            def loss(self, pages: Tensor, truth_rank: np.ndarray) -> Tensor:
                return Tensor(np.zeros(len(truth_rank), dtype=np.float32))

        train, val, _ = small_corpus
        model = Constant(ModelConfig(arch=Arch.BILSTM_POS, input_dim=DIM))
        with pytest.raises(TrainingDivergedError, match="no parameter received a gradient at epoch 0"):
            fit(model, train, val, TrainConfig(epochs=1, batch_size=8, seed=7))
        assert model.flat.size == 0


@pytest.mark.parametrize("first", ["pageorder.models", "pageorder.training"])
def test_either_package_imports_first(first):
    """The models own the losses and training imports them, so neither import order can cycle."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = f"import {first}; import pageorder.models, pageorder.training; print(pageorder.training.loss_pointer.__module__)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "pageorder.models.losses"


class TestRouting:
    @pytest.mark.parametrize("n, bucket", [(7, LengthBucket.B6_10), (25, LengthBucket.B21_25)])
    def test_order_batch_by_length(self, n, bucket):
        models = {b: tiny(Arch.PAIRWISE_RANK, seed=i) for i, b in enumerate(LengthBucket)}
        ensemble = SpecialistEnsemble(models=models)
        pages = np.random.default_rng(n).normal(size=(3, n, DIM)).astype(np.float32)
        expected = np.stack(models[bucket].order_batch(pages))
        assert np.array_equal(np.stack(ensemble.order_batch(pages)), expected)
        others = [np.stack(models[b].order_batch(pages)) for b in models if b is not bucket]
        assert all(not np.array_equal(other, expected) for other in others)

    def test_no_documents_rejected(self):
        # an evaluation of nothing is an error, not a nan mean, for a model and an ensemble alike
        models = {b: tiny(Arch.POINTER_MLP, seed=i) for i, b in enumerate(LengthBucket)}
        for orderer in (models[LengthBucket.B2_5], SpecialistEnsemble(models=models)):
            with pytest.raises(ConfigError, match="no documents to order"):
                evaluate(orderer, [])

    def test_missing_bucket_rejected(self):
        models = {b: tiny(Arch.PAIRWISE_RANK) for b in list(LengthBucket)[:-1]}
        with pytest.raises(ConfigError):
            SpecialistEnsemble(models=models)

    def test_out_of_range_length_rejected(self):
        with pytest.raises(DomainError):
            Document(doc_id="too-big", pages=np.zeros((26, DIM), dtype=np.float32))
