import threading
import tracemalloc

import numpy as np
import pytest

from pageorder.numcore import (
    ShapeError,
    Tensor,
    concat,
    grad_check,
    grad_enabled,
    log_softmax,
    no_grad,
)
from pageorder.numcore.tensor import sigmoid_array


def t64(arr, requires_grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


class TestMatmul:
    def test_identity_times_anything(self):
        a = np.array([[2.0, -1.0], [0.5, 3.0]])
        out = Tensor(np.eye(2)) @ Tensor(a)
        assert np.allclose(out.data, a)

    def test_hand_product(self):
        out = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])) @ Tensor(np.array([[1.0], [1.0]]))
        assert np.array_equal(out.data, np.array([[3.0], [7.0]]))

    def test_zeros_annihilate(self):
        out = Tensor(np.zeros((2, 3))) @ Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        assert np.array_equal(out.data, np.zeros((2, 4)))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))

    def test_gradients_flow_to_both_sides(self):
        a = t64([[1.0, 2.0], [3.0, 4.0]])
        b = t64([[1.0], [1.0]])
        (a @ b).sum().backward()
        assert np.allclose(a.grad, np.ones((2, 2)))
        assert np.allclose(b.grad, np.array([[4.0], [6.0]]))

    def test_batched_against_per_item(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 4, 5))
        w = rng.normal(size=(5, 2))
        out = Tensor(a) @ Tensor(w)
        for i in range(3):
            assert np.allclose(out.data[i], a[i] @ w)

    def test_shared_weight_gradient_sums_over_batch(self):
        rng = np.random.default_rng(2)
        a = t64(rng.normal(size=(3, 4, 5)))
        w = t64(rng.normal(size=(5, 2)))
        (a @ w).sum().backward()
        expected = sum(a.data[i].T @ np.ones((4, 2)) for i in range(3))
        assert np.allclose(w.grad, expected)


class TestAdoptedGradients:
    """GEMM gradients become ``.grad`` without a copy; adoption must never alias or change a result."""

    def test_weight_shared_by_two_flat_products_sums_both_gradients(self):
        rng = np.random.default_rng(40)
        w = Tensor(rng.normal(size=(5, 3)).astype(np.float32), requires_grad=True)
        xs = [Tensor(rng.normal(size=shape).astype(np.float32)) for shape in [(2, 4, 5), (3, 1, 5)]]
        rs = [rng.normal(size=x.shape[:-1] + (3,)).astype(np.float32) for x in xs]
        alone = []
        for x, r in zip(xs, rs):
            w.zero_grad()
            ((x @ w) * Tensor(r)).sum().backward()
            alone.append(w.grad.copy())
        w.zero_grad()
        (((xs[0] @ w) * Tensor(rs[0])).sum() + ((xs[1] @ w) * Tensor(rs[1])).sum()).backward()
        assert np.array_equal(w.grad, alone[0] + alone[1])

    def test_float32_weight_keeps_float32_grad_from_float64_activation(self):
        rng = np.random.default_rng(41)
        w = Tensor(rng.normal(size=(4, 2)).astype(np.float32), requires_grad=True)
        x = t64(rng.normal(size=(3, 5, 4)))
        (x @ w).sum().backward()
        assert w.grad.dtype == np.float32
        assert np.array_equal(w.grad, (x.data.reshape(-1, 4).T @ np.ones((15, 2))).astype(np.float32))
        assert x.grad.dtype == np.float64

    def test_adopt_copies_what_it_cannot_own(self):
        t = Tensor(np.zeros((3, 4), dtype=np.float32), requires_grad=True)
        strided = np.ones((4, 3), dtype=np.float32).T
        t._adopt(strided)
        assert t.grad.flags.c_contiguous and not np.shares_memory(t.grad, strided)
        other = Tensor(np.zeros((3, 4), dtype=np.float32), requires_grad=True)
        wide = np.ones((3, 4), dtype=np.float64)
        other._adopt(wide)
        assert other.grad.dtype == np.float32
        fresh = np.ones((3, 4), dtype=np.float32)
        t._adopt(fresh)  # a second gradient adds into the first, never replaces it
        assert np.array_equal(t.grad, np.full((3, 4), 2.0, dtype=np.float32))
        assert not np.shares_memory(t.grad, fresh)


def _composite_relu(a: Tensor) -> Tensor:
    """The separate ReLU node that ``linear(relu=True)`` folds in, kept as the reference."""
    return Tensor._result(np.maximum(a.data, 0.0), (a,), lambda g: a._accumulate(g * (a.data > 0)))


class TestLinear:
    """``linear`` is one node, bitwise equal to the matmul, add and ReLU nodes it replaces."""

    @staticmethod
    def _bytes(*arrays) -> list[bytes]:
        return [a.dtype.str.encode() + a.tobytes() for a in arrays]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("shape", [(7, 5), (2, 3, 4, 5)])
    def test_bitwise_equal_to_composite(self, shape, relu, dtype):
        rng = np.random.default_rng(50)
        arrays = [rng.normal(size=s).astype(dtype) for s in (shape, (5, 6), (6,))]
        weights = Tensor(rng.normal(size=shape[:-1] + (6,)).astype(dtype))

        def run(fused: bool) -> list[bytes]:
            x, w, b = (Tensor(a, requires_grad=True) for a in arrays)
            if fused:
                out = x.linear(w, b, relu=relu)
            else:
                out = x @ w + b
                out = _composite_relu(out) if relu else out
            (out * weights).sum().backward()
            return self._bytes(out.data, x.grad, w.grad, b.grad)

        assert run(fused=True) == run(fused=False)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weight_shared_by_two_layers_adds_into_the_adopted_gradient(self, dtype):
        rng = np.random.default_rng(51)
        arrays = [rng.normal(size=s).astype(dtype) for s in ((3, 4, 5), (5, 5), (5,))]
        weights = Tensor(rng.normal(size=(3, 4, 5)).astype(dtype))

        def run(fused: bool) -> list[bytes]:
            x, w, b = (Tensor(a, requires_grad=True) for a in arrays)
            if fused:
                hidden = x.linear(w, b, relu=True)
                out = hidden.linear(w, b)
            else:
                hidden = _composite_relu(x @ w + b)
                out = hidden @ w + b
            (out * weights).sum().backward()
            return self._bytes(out.data, hidden.grad, x.grad, w.grad, b.grad)

        assert run(fused=True) == run(fused=False)

    @pytest.mark.parametrize("form", ["x @ w", "linear(w)", "linear(w, relu)", "linear(w, b)", "linear(w, b, relu)"])
    @pytest.mark.parametrize("shape", [(7, 5), (2, 3, 4, 5)])
    def test_against_numpy_oracle(self, shape, form):
        """Every form of the one dense node, ``@`` with a 2-D weight included, against plain numpy."""
        rng = np.random.default_rng(53)
        x, w, b = (rng.normal(size=s) for s in (shape, (5, 6), (6,)))
        weights = rng.normal(size=shape[:-1] + (6,))
        bias, relu = "b" in form, "relu" in form
        named = {"x": t64(x), "w": t64(w), **({"b": t64(b)} if bias else {})}
        if form == "x @ w":
            out = named["x"] @ named["w"]
        else:
            out = named["x"].linear(named["w"], named.get("b"), relu=relu)
        (out * Tensor(weights)).sum().backward()

        x2 = x.reshape(-1, 5)
        y = x2 @ w + (b if bias else 0.0)
        g = weights.reshape(-1, 6)
        if relu:
            y = np.maximum(y, 0.0)
            g = g * (y > 0)
        expected = {"out": y.reshape(weights.shape), "x": (g @ w.T).reshape(shape), "w": x2.T @ g, "b": g.sum(axis=0)}
        np.testing.assert_allclose(out.data, expected["out"], rtol=1e-12, atol=1e-12)
        for name, tensor in named.items():
            np.testing.assert_allclose(tensor.grad, expected[name], rtol=1e-12, atol=1e-12, err_msg=name)

    def test_weight_rows_must_match_the_input_width(self):
        with pytest.raises(ValueError):
            Tensor(np.ones((2, 6))).linear(Tensor(np.ones((3, 4))), Tensor(np.ones(4)))

    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4)])
    def test_against_finite_differences(self, shape, relu):
        rng = np.random.default_rng(52)
        x, w, b = t64(rng.normal(size=shape)), t64(rng.normal(size=(4, 3))), t64(rng.normal(size=3))
        named = [("x", x), ("w", w), ("b", b)]

        def f():
            out = x.linear(w, b, relu=relu)
            return (out * out).sum()

        report = grad_check(f, named, epsilon=1e-6, tolerance=1e-7)
        assert report.passed, report.summary()


class TestElementwiseGradients:
    """Every primitive's backward pass against central differences."""

    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: (x * x).sum(),
            lambda x: (x + 2.0 * x).mean(),
            lambda x: (x - x * 0.3).sum(),
            lambda x: x.tanh().sum(),
            lambda x: x.softplus().sum(),
            lambda x: (x * x * x).sum(),
            lambda x: x.reshape(6).sum(),
            lambda x: x.transpose((1, 0)).sum(axis=0).sum(),
            lambda x: x[1:, :].sum(),
            lambda x: (log_softmax(x) * 0.25).sum(),
        ],
    )
    def test_against_finite_differences(self, fn):
        x = t64(np.random.default_rng(5).normal(size=(2, 3)))
        report = grad_check(lambda: fn(x), [("x", x)], epsilon=1e-6, tolerance=1e-7)
        assert report.passed, report.summary()

    def test_concat_gradients(self):
        a = t64(np.random.default_rng(6).normal(size=(2, 3)))
        b = t64(np.random.default_rng(7).normal(size=(2, 3)))

        def f():
            return (concat([a, b], axis=-1) * 0.5).sum()

        report = grad_check(f, [("a", a), ("b", b)], epsilon=1e-6, tolerance=1e-7)
        assert report.passed, report.summary()

    def test_embedding_lookup_gradient_scatters(self):
        table = t64(np.random.default_rng(8).normal(size=(5, 3)))
        idx = np.array([0, 2, 2, 4])
        out = table[idx]
        out.sum().backward()
        expected = np.zeros((5, 3))
        for i in idx:
            expected[i] += 1.0
        assert np.allclose(table.grad, expected)


def _where_logistic(x):
    """The logistic function as a select between two quotients: the form ``sigmoid_array`` must match bit for bit."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _bits(a):
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


# signed zeros, infinities and NaNs, and the edges of exp: float32 exp(-88.7) is near the smallest normal,
# exp(-103.9) the smallest subnormal, and exp(-104) underflows to 0
LOGISTIC_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 88.7, -88.7, -103.9, -104.0]


def _float32_patterns():
    """Every 4099th of the 2**32 float32 bit patterns, the smallest subnormals of both signs and the specials."""
    bits = np.arange(0, 2**32, 4099, dtype=np.uint64).astype(np.uint32)
    smallest = np.array([1, 2, 0x80000001, 0x80000002], dtype=np.uint32)
    return np.concatenate([np.concatenate([bits, smallest]).view(np.float32), np.float32(LOGISTIC_SPECIALS)])


def _signalling(x):
    # a float32 NaN whose quiet bit is clear
    return np.isnan(x) & ((x.view(np.uint32) & 0x00400000) == 0)


class TestLogistic:
    """``sigmoid_array`` and the ``softplus`` gradient against the ``np.where`` form, bit for bit, no tolerance."""

    def test_float32_bit_patterns(self):
        x = _float32_patterns()
        x = x[~_signalling(x)]
        got = sigmoid_array(x)
        assert got.dtype == np.float32
        assert np.array_equal(_bits(got), _bits(_where_logistic(x)))

    def test_float32_signalling_nans(self):
        # exp raises the invalid flag on a signalling NaN, in either form; the results still agree bit for bit
        x = _float32_patterns()
        x = x[_signalling(x)]
        assert x.size > 1000
        with pytest.warns(RuntimeWarning, match="invalid value encountered in exp"):
            got = sigmoid_array(x)
        with pytest.warns(RuntimeWarning, match="invalid value encountered in exp"):
            want = _where_logistic(x)
        assert np.array_equal(_bits(got), _bits(want))

    def test_float64_values(self):
        rng = np.random.default_rng(11)
        scaled = [rng.normal(size=20_000) * scale for scale in (0.01, 0.1, 1.0, 10.0, 200.0)]
        smallest = np.array([1, 2, 0x8000000000000001], dtype=np.uint64).view(np.float64)
        x = np.concatenate(scaled + [smallest, np.float64(LOGISTIC_SPECIALS)])
        got = sigmoid_array(x)
        assert got.dtype == np.float64
        assert np.array_equal(_bits(got), _bits(_where_logistic(x)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softplus_gradient(self, dtype):
        rng = np.random.default_rng(12)
        data = np.concatenate([rng.normal(size=5_000) * 30.0, LOGISTIC_SPECIALS])
        x = Tensor(data.astype(dtype), requires_grad=True)
        x.softplus().sum().backward()
        g = np.ones_like(x.data)
        assert x.grad.dtype == dtype
        assert np.array_equal(_bits(x.grad), _bits(g * _where_logistic(x.data)))


class TestIndexGradients:
    def test_overlapping_slices_add_up(self):
        x = t64(np.arange(4.0))
        (x[0:3].sum() + x[1:].sum() + x[-1] * 2.0 + x[None, ..., 2].sum()).backward()
        assert np.array_equal(x.grad, [1.0, 2.0, 3.0, 3.0])

    def test_boolean_mask(self):
        x = t64(np.arange(3.0))
        x[np.array([True, False, True])].sum().backward()
        assert np.array_equal(x.grad, [1.0, 0.0, 1.0])


class TestScalarOperands:
    """Python numbers round as a 0-d array of the tensor's dtype; a product skips the operand tensor."""

    @pytest.mark.parametrize(
        "fast,reference",
        [
            (lambda x: x * 0.1, lambda x, s: x * s(0.1)),
            (lambda x: 0.1 * x, lambda x, s: x * s(0.1)),
            (lambda x: x + 0.1, lambda x, s: x + s(0.1)),
            (lambda x: 0.1 + x, lambda x, s: x + s(0.1)),
            (lambda x: x - 0.1, lambda x, s: x + (s(0.1) * s(-1.0))),
            (lambda x: 0.1 - x, lambda x, s: s(0.1) + x * s(-1.0)),
            (lambda x: -x, lambda x, s: x * s(-1.0)),
            (lambda x: x / 3, lambda x, s: x * s(1.0 / 3.0)),
        ],
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_tensor_operand(self, fast, reference, dtype):
        data = np.random.default_rng(9).normal(size=(3, 4)).astype(dtype)
        weights = Tensor(np.random.default_rng(10).normal(size=(3, 4)).astype(dtype))

        def run(fn):
            x = Tensor(data.copy(), requires_grad=True)
            out = fn(x)
            (out * out * weights).sum().backward()
            return out, x.grad

        out, grad = run(fast)
        want, want_grad = run(lambda x: reference(x, lambda v: Tensor(np.asarray(v, dtype=dtype))))
        assert out.data.dtype == dtype and grad.dtype == dtype
        assert np.array_equal(out.data, want.data)
        assert np.array_equal(grad, want_grad)


class TestGraphMechanics:
    def test_no_grad_blocks_recording(self):
        x = t64([1.0, 2.0])
        with no_grad():
            y = (x * 3.0).sum()
        assert not y.requires_grad
        assert y._backward is None

    def test_grad_mode_is_per_thread(self):
        # contexts overlap across threads and close in the order opened: A in, B in, A out, B out
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def inference():
            with no_grad():
                a_in.set()
                assert b_in.wait(timeout=10)
            a_out.set()
            seen["inference_after"] = grad_enabled()

        def training():
            assert a_in.wait(timeout=10)
            seen["graph_while_other_in_no_grad"] = (t64([1.0, 2.0]) * 3.0).sum().requires_grad
            with no_grad():
                b_in.set()
                assert a_out.wait(timeout=10)
            seen["graph_after"] = (t64([1.0, 2.0]) * 3.0).sum().requires_grad
            seen["training_after"] = grad_enabled()

        threads = [threading.Thread(target=inference), threading.Thread(target=training)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert seen == {
            "graph_while_other_in_no_grad": True,
            "inference_after": True,
            "graph_after": True,
            "training_after": True,
        }
        assert grad_enabled()

    def test_gradient_accumulates_across_uses(self):
        x = t64([2.0])
        y = x * 3.0 + x * 4.0
        y.sum().backward()
        assert np.allclose(x.grad, [7.0])

    def test_first_gradient_is_copied_not_aliased(self):
        # reshape hands x a view of y.grad; x's later accumulation must not write through it
        x = t64(np.arange(6.0).reshape(2, 3))
        y = x.reshape(6)
        w = np.arange(1.0, 7.0)
        ((y * Tensor(w)).sum() + (x * 2.0).sum() + x.sum()).backward()
        assert np.array_equal(y.grad, w)
        assert np.array_equal(x.grad, w.reshape(2, 3) + 3.0)

    def test_second_sweep_through_a_swept_graph_raises(self):
        x = t64([1.0, 2.0])
        h = x * 3.0
        loss = h.sum()
        loss.backward()
        assert np.array_equal(h.grad, [1.0, 1.0])  # a tensor the caller holds keeps its gradient
        with pytest.raises(RuntimeError, match="already swept"):
            loss.backward()
        with pytest.raises(RuntimeError, match="already swept"):
            (h * 2.0).sum().backward()  # a new graph on a swept node: never treated as a leaf
        assert np.array_equal(x.grad, [3.0, 3.0])  # nothing reached x twice

    def test_sweep_frees_each_node_once_passed(self):
        """Over a chain of k dense layers the sweep holds about k activations, not k activations plus k gradients."""
        k, rows, width = 16, 4096, 16
        rng = np.random.default_rng(9)
        layers = [
            (
                Tensor(rng.normal(size=(width, width)).astype(np.float32), requires_grad=True),
                Tensor(np.zeros(width, dtype=np.float32), requires_grad=True),
            )
            for _ in range(k)
        ]
        x = Tensor(rng.normal(size=(rows, width)).astype(np.float32))
        activation = rows * width * 4
        tracemalloc.start()
        try:
            h = x
            for w, b in layers:
                h = h.linear(w, b, relu=True)
            loss = h.sum()
            del h
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(w.grad is not None and b.grad is not None for w, b in layers)
        assert peak < 1.5 * k * activation  # about (k + 3) activations; 2k + 2 when the graph lives to the end

    def test_backward_requires_scalar(self):
        x = t64([1.0, 2.0])
        with pytest.raises(ShapeError):
            (x * 2.0).backward()

    def test_values_stay_finite(self):
        x = Tensor(np.array([60.0, -60.0], dtype=np.float32), requires_grad=True)
        for out in (x.softplus(), x.tanh()):
            assert np.isfinite(out.data).all()
