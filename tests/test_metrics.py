import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pageorder.corpus import LengthBucket, ShuffledInstance
from pageorder.errors import DomainError
from pageorder.metrics import (
    LOCALITY_WINDOW,
    LocalityStats,
    attention_locality,
    kendall_tau,
    mean_tau,
    require_permutation,
)


def brute_force_tau(pred, truth_rank):
    """O(n^2) pair-count oracle, independent of the production path."""
    pred = list(pred)
    truth_rank = list(truth_rank)
    n = len(pred)
    pred_rank = [0] * n
    for position, slot in enumerate(pred):
        pred_rank[slot] = position
    concordant = discordant = 0
    for a in range(n):
        for b in range(a + 1, n):
            d_pred = pred_rank[a] - pred_rank[b]
            d_true = truth_rank[a] - truth_rank[b]
            if d_pred * d_true > 0:
                concordant += 1
            else:
                discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)


class TestKendallTau:
    def test_perfect_agreement(self):
        truth = np.array([2, 0, 1, 3])
        pred = np.argsort(truth)  # visit slots in true-rank order
        assert kendall_tau(pred, truth) == 1.0

    def test_perfect_reversal(self):
        truth = np.array([2, 0, 1, 3])
        pred = np.argsort(truth)[::-1].copy()
        assert kendall_tau(pred, truth) == -1.0

    def test_three_page_example(self):
        # swap of the first two slots: 2 concordant, 1 discordant
        assert kendall_tau(np.array([1, 0, 2]), np.array([0, 1, 2])) == pytest.approx(1 / 3)

    def test_rejects_tiny_input(self):
        with pytest.raises(DomainError):
            kendall_tau(np.array([0]), np.array([0]))

    def test_rejects_non_permutation(self):
        with pytest.raises(DomainError):
            kendall_tau(np.array([0, 0, 2]), np.array([0, 1, 2]))

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 11))
            pred = rng.permutation(n)
            truth = rng.permutation(n)
            assert kendall_tau(pred, truth) == brute_force_tau(pred, truth)

    def test_reversal_negates(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 15))
            pred = rng.permutation(n)
            truth = rng.permutation(n)
            assert kendall_tau(pred[::-1].copy(), truth) == pytest.approx(-kendall_tau(pred, truth))

    @given(st.integers(2, 8), st.randoms())
    @settings(max_examples=50, deadline=None)
    def test_relabeling_invariance(self, n, pyrandom):
        pred = list(range(n))
        pyrandom.shuffle(pred)
        truth = list(range(n))
        pyrandom.shuffle(truth)
        relabel = list(range(n))
        pyrandom.shuffle(relabel)
        relabel = np.asarray(relabel)
        pred = np.asarray(pred)
        truth = np.asarray(truth)
        # apply one consistent slot relabeling to both arguments
        pred2 = relabel[pred]
        truth2 = np.empty(n, dtype=np.int64)
        truth2[relabel] = truth
        assert kendall_tau(pred2, truth2) == pytest.approx(kendall_tau(pred, truth))


def _instance(n, seed, dim=4):
    rng = np.random.default_rng(seed)
    return ShuffledInstance(
        doc_id=f"d{seed}", pages=rng.normal(size=(n, dim)).astype(np.float32), truth_rank=rng.permutation(n)
    )


class TestRequirePermutation:
    def test_returns_int64(self):
        out = require_permutation([2, 0, 1])
        assert out.dtype == np.int64
        assert out.tolist() == [2, 0, 1]

    def test_rejects_2d(self):
        with pytest.raises(DomainError, match="1-D"):
            require_permutation(np.array([[0, 1], [1, 0]]))

    def test_rejects_wrong_length(self):
        with pytest.raises(DomainError, match="not a permutation of 0..3"):
            require_permutation([2, 0, 1], 4)


class TestLocalityStats:
    @pytest.mark.parametrize(
        "fraction, distance",
        [(1.5, 0.0), (-0.1, 0.0), (0.5, -1.0)],
        ids=["fraction_above_one", "negative_fraction", "negative_distance"],
    )
    def test_out_of_domain_rejected(self, fraction, distance):
        with pytest.raises(DomainError):
            LocalityStats(local_fraction=fraction, avg_distance=distance)


class TestMeanTau:
    def test_single_document(self):
        inst = _instance(4, 0)
        pred = np.argsort(inst.truth_rank)
        result = mean_tau([inst], [pred])
        assert result.per_bucket == {LengthBucket.B2_5: 1.0}
        assert result.overall == 1.0

    def test_mixed_bucket_average(self):
        # tau values 1.0 and 0.0 inside one bucket average to 0.5
        pages = np.zeros((4, 4), dtype=np.float32)
        insts = [
            ShuffledInstance(doc_id="a", pages=pages, truth_rank=np.arange(4)),
            ShuffledInstance(doc_id="b", pages=pages, truth_rank=np.arange(4)),
        ]
        preds = [np.arange(4), np.array([3, 0, 1, 2])]
        assert kendall_tau(preds[1], insts[1].truth_rank) == 0.0
        result = mean_tau(insts, preds)
        assert result.per_bucket[LengthBucket.B2_5] == pytest.approx(0.5)
        assert result.counts[LengthBucket.B2_5] == 2

    def test_empty_buckets_absent(self):
        result = mean_tau([_instance(3, 3)], [np.arange(3)])
        assert LengthBucket.B21_25 not in result.per_bucket

    def test_random_orderings_near_zero(self):
        rng = np.random.default_rng(4)
        insts, preds = [], []
        for i in range(1000):
            n = int(rng.integers(2, 26))
            insts.append(_instance(n, 100 + i))
            preds.append(rng.permutation(n))
        assert abs(mean_tau(insts, preds).overall) < 0.05

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(DomainError):
            mean_tau([_instance(3, 5)], [])

    def test_no_instances_give_nan_overall(self):
        result = mean_tau([], [])
        assert result.per_bucket == {} and result.counts == {}
        assert np.isnan(result.overall)


class TestAttentionLocality:
    def test_identity_attention(self):
        stats = attention_locality([np.eye(5)[None, :, :]])
        assert stats.local_fraction == 1.0
        assert stats.avg_distance == 0.0

    def test_uniform_3x3(self):
        stats = attention_locality([np.full((1, 3, 3), 1.0 / 3.0)])
        assert stats.local_fraction == pytest.approx(1.0)
        # rows average (0+1+2)/3, (1+0+1)/3, (2+1+0)/3 = 8/9 overall
        assert stats.avg_distance == pytest.approx(8.0 / 9.0)

    def test_farthest_one_hot(self):
        n = 10
        attn = np.zeros((1, n, n))
        for i in range(n):
            attn[0, i, n - 1 - i] = 1.0
        stats = attention_locality([attn])
        assert stats.local_fraction == pytest.approx(2.0 / 10.0)  # only middle rows are near
        assert stats.avg_distance > 4.0

    def test_window_covering_everything(self):
        # no two of 3 positions are more than LOCALITY_WINDOW = 2 apart
        assert LOCALITY_WINDOW == 2
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(3, 3, 3))
        attn = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        stats = attention_locality([attn])
        assert stats.local_fraction == pytest.approx(1.0)

    @pytest.mark.parametrize("shape", [(4,), (1, 3, 4)], ids=["1d", "not_square"])
    def test_stack_not_ending_in_square_rejected(self, shape):
        with pytest.raises(DomainError, match=r"must end in \(n, n\)"):
            attention_locality([np.full(shape, 0.25)])

    def test_non_stochastic_rows_rejected(self):
        with pytest.raises(DomainError):
            attention_locality([np.ones((1, 3, 3))])

    def test_multiple_layer_stacks(self):
        layer1 = np.eye(4)[None]
        layer2 = np.full((2, 4, 4), 0.25)
        stats = attention_locality([layer1, layer2])
        # layer2's end rows put a quarter of their mass 3 positions away: (4 + 2 * (3/4 + 1 + 1 + 3/4)) / 12 rows
        assert stats.local_fraction == pytest.approx(11.0 / 12.0)
