import tracemalloc

import numpy as np
import pytest

from pageorder.models import Arch, build_model, desk_config
from pageorder.numcore import (
    RngStream,
    ShapeError,
    Tensor,
    TrainingDivergedError,
    adam_step,
    clip_global_norm,
    global_norm,
    grad_check,
    init_adam,
)
from pageorder.numcore.optim import BETA1, BETA2, BLOCK, EPSILON


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = np.array([1.0, -2.0], dtype=np.float32)
        state = init_adam(p, learning_rate=0.1)
        before = p.copy()
        adam_step(p, np.zeros(2, dtype=np.float32), state)
        assert np.array_equal(p, before)
        assert state.step_count == 1

    def test_constant_positive_gradient_decreases_parameter(self):
        p = np.array([0.5], dtype=np.float32)
        state = init_adam(p, learning_rate=0.01)
        values = [p.copy()]
        for _ in range(5):
            adam_step(p, np.ones(1, dtype=np.float32), state)
            values.append(p.copy())
        diffs = np.diff(np.concatenate(values))
        assert (diffs < 0).all()

    def test_first_step_is_bias_corrected(self):
        # one step with g=1, lr=0.1: m_hat = v_hat = 1, delta = -0.1 / (1 + eps)
        p = np.array([0.0], dtype=np.float64)
        state = init_adam(p, learning_rate=0.1)
        adam_step(p, np.ones(1, dtype=np.float64), state)
        assert p[0] == pytest.approx(-0.1, rel=1e-6)

    def test_gradient_of_another_dtype_is_rejected(self):
        # a float64 gradient for a float32 parameter: the step would round in two dtypes
        p = np.zeros(2, dtype=np.float32)
        state = init_adam(p)
        with pytest.raises(ShapeError, match="dtype"):
            adam_step(p, np.ones(2, dtype=np.float64), state)
        assert state.step_count == 0 and not p.any()

    @pytest.mark.parametrize("shapes", [((2,), (3,)), ((2, 1), (2, 1))], ids=["longer_gradient", "not_flat"])
    def test_arrays_that_are_not_one_flat_length_are_rejected(self, shapes):
        p = np.zeros(shapes[0], dtype=np.float32)
        state = init_adam(p)
        with pytest.raises(ShapeError, match="flat arrays"):
            adam_step(p, np.ones(shapes[1], dtype=np.float32), state)
        assert state.step_count == 0 and not p.any()

    def test_step_count_increments_per_update(self):
        p = np.zeros(3, dtype=np.float32)
        state = init_adam(p)
        for expected in range(1, 4):
            adam_step(p, np.ones(3, dtype=np.float32), state)
            assert state.step_count == expected

    def test_a_sweep_across_blocks_is_elementwise(self):
        # a partial last block: the same values stepped alone, one element each, give the same bits
        rng = np.random.default_rng(2)
        p = rng.normal(size=BLOCK + 5).astype(np.float32)
        g = rng.normal(size=p.size).astype(np.float32)
        alone = p.copy()
        state = init_adam(p, learning_rate=0.01)
        adam_step(p, g, state)
        for i in (0, BLOCK - 1, BLOCK, p.size - 1):
            one = alone[i : i + 1]
            adam_step(one, g[i : i + 1], init_adam(one, learning_rate=0.01))
            assert one[0] == p[i]


def reference_adam_step(data, grads, first, second, step_count, learning_rate) -> int:
    """Kingma & Ba's update written as plain expressions, one temporary each, in ``adam_step``'s order."""
    step_count += 1
    correction1 = 1.0 - BETA1**step_count
    correction2 = 1.0 - BETA2**step_count
    for p, g, m, v in zip(data, grads, first, second):
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / correction1
        v_hat = v / correction2
        p -= (learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)).astype(p.dtype)
    return step_count


class TestAdamMatchesReference:
    SHAPES = [(3, 5), (7,), (1,), (2, 3, 4), (), (11, 13)]

    def _gradients(self, rng, step: int, dtype) -> list[np.ndarray]:
        if step == 1:
            return [np.zeros(shape, dtype=dtype) for shape in self.SHAPES]
        grads = [rng.normal(scale=3.0, size=shape).astype(dtype) for shape in self.SHAPES]
        if step >= 3:
            assert clip_global_norm(grads, 0.5) > 0.5  # clipped in place, as fit does
        return grads

    @staticmethod
    def _flat(arrays: list[np.ndarray]) -> np.ndarray:
        return np.concatenate([a.reshape(-1) for a in arrays])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_five_steps_are_bitwise_the_expression_form(self, dtype):
        # the six shapes concatenated into one flat array, against the reference applied tensor by tensor
        rng = np.random.default_rng(12)
        data = [rng.normal(size=shape).astype(dtype) for shape in self.SHAPES]
        params = self._flat(data)
        state = init_adam(params, learning_rate=3e-3)
        first = [np.zeros_like(d) for d in data]
        second = [np.zeros_like(d) for d in data]
        step_count = 0
        for step in range(5):
            grads = self._gradients(rng, step, dtype)
            flat_grads = self._flat(grads)
            kept = flat_grads.copy()
            adam_step(params, flat_grads, state)
            step_count = reference_adam_step(data, grads, first, second, step_count, 3e-3)
            assert np.array_equal(flat_grads, kept), "adam_step wrote into a gradient"
        assert state.step_count == step_count == 5
        for got, want in [(params, data), (state.first_moment, first), (state.second_moment, second)]:
            assert got.dtype == dtype
            assert np.array_equal(got, self._flat(want))

    def test_one_step_peaks_below_three_blocks(self):
        # two scratch buffers of one block each, not one temporary per expression nor per parameter
        params = build_model(desk_config(Arch.POINTER_LSTM, 64, seed=0)).flat_parameters()
        assert params.size > 3 * BLOCK
        grads = np.random.default_rng(0).normal(size=params.size).astype(params.dtype)
        state = init_adam(params)
        block_bytes = BLOCK * params.itemsize
        tracemalloc.start()
        try:
            adam_step(params, grads, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * block_bytes, f"peak {peak / block_bytes:.2f}x one block"


class TestClipping:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_gradient_raises(self, bad):
        # the norm is a training step's one finiteness check: it raises before scaling anything
        grads = [np.array([3.0, bad], dtype=np.float32), np.full(4, 5.0, dtype=np.float32)]
        kept = [g.copy() for g in grads]
        with pytest.raises(TrainingDivergedError, match="non-finite gradient"):
            clip_global_norm(grads, 1.0)
        assert all(np.array_equal(g, k, equal_nan=True) for g, k in zip(grads, kept))

    def test_largest_float32_gradients_have_a_finite_norm(self):
        # float32 squares summed in float64 cannot overflow, so a finite norm rules out only non-finite entries
        largest = np.finfo(np.float32).max
        grads = [np.full(1000, largest, dtype=np.float32), np.full(3, -largest, dtype=np.float32)]
        assert np.isfinite(clip_global_norm(grads, 1.0))
        assert all(np.isfinite(g).all() for g in grads)

    def test_subnormal_scale_keeps_its_digits(self):
        # max_norm / norm is about 9.3e-41, subnormal in float32: a float32 multiply would leave a norm of 1.0000072
        largest = np.finfo(np.float32).max
        grads = [np.full(1000, largest, dtype=np.float32), np.full(3, -largest, dtype=np.float32)]
        clip_global_norm(grads, 1.0)
        assert all(g.dtype == np.float32 for g in grads)
        assert abs(global_norm(grads) - 1.0) < 1e-6

    def test_normal_scale_is_the_float32_multiply(self):
        rng = np.random.default_rng(4)
        grads = [rng.normal(size=(7, 5)).astype(np.float32) * 50, rng.normal(size=3).astype(np.float32)]
        scale = 0.5 / global_norm(grads)
        expected = [g * np.float32(scale) for g in grads]
        clip_global_norm(grads, 0.5)
        assert all(np.array_equal(g, e) for g, e in zip(grads, expected))

    def test_norm_below_threshold_untouched(self):
        g = [np.array([0.6, 0.0]), np.array([0.8])]
        assert global_norm(g) == pytest.approx(1.0)
        clip_global_norm(g, 1.0)
        assert np.allclose(g[0], [0.6, 0.0])

    def test_norm_above_threshold_scaled(self):
        g = [np.array([3.0, 4.0])]
        clip_global_norm(g, 1.0)
        assert np.allclose(g[0], [0.6, 0.8])
        assert global_norm(g) == pytest.approx(1.0)

    def test_global_norm_is_bitwise_the_float64_sum_of_squares(self):
        rng = np.random.default_rng(3)
        grads = [rng.normal(size=(17, 9)).astype(np.float32), rng.normal(size=(5,)), rng.normal(size=(4, 3, 2))]
        kept = [g.copy() for g in grads]
        total = 0.0
        for g in grads:
            total += float(np.sum(g.astype(np.float64) ** 2))
        assert global_norm(grads) == float(np.sqrt(total))
        assert all(np.array_equal(g, k) for g, k in zip(grads, kept)), "global_norm wrote into a gradient"


class TestRngStream:
    def test_same_path_same_values(self):
        a = RngStream(42).split("init").split("layer0").normal((4, 4))
        b = RngStream(42).split("init").split("layer0").normal((4, 4))
        assert np.array_equal(a, b)

    def test_distinct_names_decorrelate(self):
        a = RngStream(42).split("x").normal(128)
        b = RngStream(42).split("y").normal(128)
        assert not np.allclose(a, b)

    def test_parent_unaffected_by_split(self):
        root = RngStream(7)
        root.split("child").normal(10)
        first = root.normal(5)
        again = RngStream(7).normal(5)
        assert np.array_equal(first, again)


class TestGradCheck:
    def test_analytic_quadratic(self):
        x = Tensor(np.random.default_rng(0).normal(size=6), requires_grad=True)
        x.data = x.data.astype(np.float64)
        report = grad_check(lambda: (x * x).sum(), [("x", x)], epsilon=1e-6, tolerance=1e-6)
        assert report.passed
        assert report.max_rel_error < 1e-6

    def test_corrupted_backward_is_caught(self):
        x = Tensor(np.random.default_rng(1).normal(size=4).astype(np.float64), requires_grad=True)

        class SignFlipped(Tensor):
            def tanh(self):
                out = super().tanh()
                original = out._backward

                def flipped(g):
                    original(-g)  # deliberate sign corruption

                if original is not None:
                    out._backward = flipped
                return out

        bad = SignFlipped(x.data, requires_grad=True)
        report = grad_check(lambda: bad.tanh().sum(), [("x", bad)], epsilon=1e-6, tolerance=1e-3)
        assert not report.passed

    def test_report_carries_failures_not_exceptions(self):
        x = Tensor(np.ones(2, dtype=np.float64), requires_grad=True)
        report = grad_check(lambda: (x * x).sum(), [("x", x)], epsilon=1e-6, tolerance=0.0)
        assert not report.passed
        assert report.params[0].failures
