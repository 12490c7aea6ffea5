import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pageorder.errors import ConfigError
from pageorder.models import Arch, build_model, desk_config
from pageorder.numcore import (
    DegenerateMaskError,
    LstmParams,
    RngStream,
    Tensor,
    bidirectional_encode,
    concat,
    glorot_uniform,
    grad_check,
    layer_norm,
    lstm_sequence,
    multi_head_attention,
    no_grad,
    pair_differences,
    sinusoidal_positions,
)
from pageorder.numcore.tensor import _unbroadcast, _valid_mask, sigmoid_array


def t64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


class TestMultiHeadAttention:
    def test_single_element_attends_to_itself(self):
        q = Tensor(np.random.default_rng(0).normal(size=(1, 8)).astype(np.float32))
        _, attn = multi_head_attention(q, q, q, heads=2)
        assert np.allclose(attn.data, np.ones((2, 1, 1)))

    def test_identical_keys_give_uniform_rows(self):
        rng = np.random.default_rng(1)
        q = Tensor(rng.normal(size=(4, 8)).astype(np.float32))
        k = Tensor(np.tile(rng.normal(size=(1, 8)).astype(np.float32), (4, 1)))
        v = Tensor(rng.normal(size=(4, 8)).astype(np.float32))
        _, attn = multi_head_attention(q, k, v, heads=2)
        assert np.allclose(attn.data, 0.25, atol=1e-6)

    @pytest.mark.parametrize("n,d,heads", [(2, 8, 2), (5, 12, 4), (7, 16, 1)])
    def test_output_shape(self, n, d, heads):
        rng = np.random.default_rng(2)
        q = Tensor(rng.normal(size=(n, d)).astype(np.float32))
        out, attn = multi_head_attention(q, q, q, heads=heads)
        assert out.shape == (n, d)
        assert attn.shape == (heads, n, n)

    def test_indivisible_heads_rejected(self):
        q = Tensor(np.zeros((3, 10), dtype=np.float32))
        with pytest.raises(ConfigError):
            multi_head_attention(q, q, q, heads=4)

    def test_key_mask_zeroes_attention(self):
        rng = np.random.default_rng(3)
        q = Tensor(rng.normal(size=(3, 8)).astype(np.float32))
        mask = np.array([True, True, False])
        _, attn = multi_head_attention(q, q, q, heads=2, mask=mask)
        assert (attn.data[:, :, 2] == 0.0).all()

    def test_gradients(self):
        rng = np.random.default_rng(4)
        q, k, v = (t64(rng.normal(size=(3, 4))) for _ in range(3))
        out_weights = Tensor(rng.normal(size=(3, 4)))

        def f():
            out, _ = multi_head_attention(q, k, v, heads=2)
            return (out * out).sum() + (out * out_weights).sum()

        report = grad_check(f, [("q", q), ("k", k), ("v", v)], epsilon=1e-6, tolerance=1e-6)
        assert report.passed, report.summary()


def attention_weights(logits, mask=None) -> np.ndarray:
    """Weights of one-head, width-1 attention whose scores are ``logits (rows, m)``: the softmax of each row.

    Every query is 1 and the keys are the logits, so with a scale of
    1/sqrt(1) the scores are the logits themselves.
    """
    logits = np.atleast_2d(logits)
    q = Tensor(np.ones((len(logits), 1, 1), dtype=logits.dtype))
    k = Tensor(logits[..., None])
    mask = None if mask is None else np.atleast_2d(mask)[:, None, None, :]
    _, attn = multi_head_attention(q, k, k, heads=1, mask=mask)
    return attn.data[:, 0, 0]


class TestAttentionSoftmax:
    """The masked softmax inside attention, seen through its weights."""

    def test_no_overflow_on_huge_logits(self):
        weights = attention_weights(np.array([1000.0, 0.0]))[0]
        assert np.isfinite(weights).all()
        assert weights[0] == pytest.approx(1.0)
        assert weights[1] == pytest.approx(0.0, abs=1e-30)

    def test_single_survivor_mask(self):
        weights = attention_weights(np.array([3.0, 5.0]), mask=np.array([True, False]))[0]
        assert weights[0] == 1.0
        assert weights[1] == 0.0

    def test_fully_masked_row_rejected(self):
        with pytest.raises(DegenerateMaskError):
            attention_weights(np.zeros((2, 3)), mask=np.array([[True, True, True], [False, False, False]]))

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one(self, logits):
        weights = attention_weights(np.array(logits, dtype=np.float32))
        assert abs(weights.sum() - 1.0) < 1e-6

    def test_masked_entries_exactly_zero(self):
        logits = np.random.default_rng(3).normal(size=(4, 6)).astype(np.float32)
        mask = np.random.default_rng(4).random((4, 6)) > 0.4
        mask[:, 0] = True
        weights = attention_weights(logits, mask=mask)
        assert (weights[~mask] == 0.0).all()
        assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-6)

    def test_masked_gradients(self):
        rng = np.random.default_rng(8)
        q, k, v = (t64(rng.normal(size=(2, 3, 4))) for _ in range(3))
        mask = np.array([[True, False, True], [False, True, True], [True, True, False]])

        def f():
            out, _ = multi_head_attention(q, k, v, heads=2, mask=mask)
            return (out * out).sum() + (out * 0.25).sum()

        report = grad_check(f, [("q", q), ("k", k), ("v", v)], epsilon=1e-6, tolerance=1e-7)
        assert report.passed, report.summary()


def _softmax(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """The masked softmax as one Tensor op over the last axis, masked entries exactly 0."""
    valid = _valid_mask(mask, x.shape)
    logits = x.data if valid is None else np.where(valid, x.data, -np.inf)
    expd = np.exp(logits - logits.max(axis=-1, keepdims=True))
    out_data = (expd / expd.sum(axis=-1, keepdims=True)).astype(x.data.dtype, copy=False)

    def _bwd(g: np.ndarray) -> None:
        x._accumulate(out_data * (g - (g * out_data).sum(axis=-1, keepdims=True)))

    return Tensor._result(out_data, (x,), _bwd)


def _composite_attention(q: Tensor, k: Tensor, v: Tensor, heads: int, mask=None) -> tuple[Tensor, Tensor]:
    """The reference: attention built from Tensor reshapes, transposes, matmuls and ``_softmax``."""
    d = q.shape[-1]
    dh = d // heads

    def head_axes(lead: int) -> tuple[int, ...]:
        return tuple(range(lead)) + (lead + 1, lead, lead + 2)

    def split_heads(t: Tensor) -> Tensor:
        lead = t.shape[:-2]
        return t.reshape(*lead, t.shape[-2], heads, dh).transpose(head_axes(len(lead)))

    qh, kh, vh = split_heads(q), split_heads(k), split_heads(v)
    scores = (qh @ kh.transpose(tuple(range(kh.ndim - 2)) + (kh.ndim - 1, kh.ndim - 2))) * (1.0 / np.sqrt(dh))
    attn = _softmax(scores, mask=mask)
    lead = q.shape[:-2]
    merged = (attn @ vh).transpose(head_axes(len(lead))).reshape(*lead, q.shape[-2], d)
    return merged, attn


def _rsqrt(a: Tensor) -> Tensor:
    """``a ** -0.5`` as one Tensor node: the power and its derivative ``-0.5 * a ** -1.5``."""
    return Tensor._result(a.data**-0.5, (a,), lambda g: a._accumulate(g * -0.5 * a.data**-1.5))


def _composite_layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """The reference: layer norm built from Tensor mean, subtraction and ``_rsqrt``."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * _rsqrt(var + eps) * gain + bias


def _input_grads(out: Tensor, inputs: list[Tensor], weights: np.ndarray) -> list[np.ndarray]:
    """Gradients of a weighted loss on ``out`` with respect to ``inputs``, accumulated from zero."""
    for t in inputs:
        t.zero_grad()
    (out * Tensor(weights) + out * out).sum().backward()
    return [t.grad.copy() for t in inputs]


# (q lead shape, n_q, n_k, heads, mask): unbatched, batched, a key mask,
# and a causal mask with fewer queries than keys (a cached decoder step)
ATTENTION_CASES = {
    "unbatched_1head": ((), 4, 4, 1, None),
    "unbatched_4heads": ((), 5, 5, 4, None),
    "batched_1head": ((3,), 4, 4, 1, None),
    "batched_4heads": ((3,), 4, 4, 4, None),
    "key_mask": ((3,), 4, 4, 4, np.array([True, True, False, True])),
    "causal_cached_step": ((2,), 2, 5, 4, np.tril(np.ones((2, 5), dtype=bool), k=3)),
}


class TestFusedAttentionMatchesComposite:
    @pytest.mark.parametrize("case", list(ATTENTION_CASES))
    def test_float64_outputs_and_gradients(self, case):
        lead, n_q, n_k, heads, mask = ATTENTION_CASES[case]
        rng = RngStream(41).split(case)
        q = t64(rng.split("q").normal((*lead, n_q, 8), dtype=np.float64))
        k = t64(rng.split("k").normal((*lead, n_k, 8), dtype=np.float64))
        v = t64(rng.split("v").normal((*lead, n_k, 8), dtype=np.float64))
        weights = rng.split("loss").normal((*lead, n_q, 8), dtype=np.float64)
        out, attn = multi_head_attention(q, k, v, heads, mask=mask)
        want_out, want_attn = _composite_attention(q, k, v, heads, mask=mask)
        np.testing.assert_allclose(out.data, want_out.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(attn.data, want_attn.data, rtol=0, atol=1e-12)
        grads, want_grads = (_input_grads(o, [q, k, v], weights) for o in (out, want_out))
        for name, got, want in zip("qkv", grads, want_grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("case", list(ATTENTION_CASES))
    def test_float32_forward_is_bitwise_the_composite(self, case):
        lead, n_q, n_k, heads, mask = ATTENTION_CASES[case]
        rng = RngStream(42).split(case)
        q = Tensor(rng.split("q").normal((*lead, n_q, 8)), requires_grad=True)
        k = Tensor(rng.split("k").normal((*lead, n_k, 8)), requires_grad=True)
        v = Tensor(rng.split("v").normal((*lead, n_k, 8)), requires_grad=True)
        out, attn = multi_head_attention(q, k, v, heads, mask=mask)
        want_out, want_attn = _composite_attention(q, k, v, heads, mask=mask)
        assert out.dtype == np.float32
        assert np.array_equal(out.data, want_out.data)
        assert np.array_equal(attn.data, want_attn.data)

    def test_weights_carry_no_gradient(self):
        q = Tensor(np.ones((3, 4), dtype=np.float32), requires_grad=True)
        out, attn = multi_head_attention(q, q, q, heads=2)
        assert out.requires_grad
        assert not attn.requires_grad


class TestFusedLayerNormMatchesComposite:
    @pytest.mark.parametrize("shape", [(4, 8), (3, 4, 8)], ids=["unbatched", "batched"])
    def test_float64_outputs_and_gradients(self, shape):
        rng = RngStream(43).split(str(shape))
        x = t64(rng.split("x").normal(shape, std=2.0, dtype=np.float64))
        gain = t64(rng.split("g").normal(8, dtype=np.float64))
        bias = t64(rng.split("b").normal(8, dtype=np.float64))
        weights = rng.split("loss").normal(shape, dtype=np.float64)
        out, want_out = layer_norm(x, gain, bias), _composite_layer_norm(x, gain, bias)
        np.testing.assert_allclose(out.data, want_out.data, rtol=0, atol=1e-12)
        grads, want_grads = (_input_grads(o, [x, gain, bias], weights) for o in (out, want_out))
        for name, got, want in zip(("x", "g", "b"), grads, want_grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("shape", [(4, 8), (3, 4, 8)], ids=["unbatched", "batched"])
    def test_float32_forward_is_bitwise_the_composite(self, shape):
        rng = RngStream(44).split(str(shape))
        x = Tensor(rng.split("x").normal(shape, std=2.0), requires_grad=True)
        gain = Tensor(rng.split("g").normal(8), requires_grad=True)
        bias = Tensor(rng.split("b").normal(8), requires_grad=True)
        out = layer_norm(x, gain, bias)
        assert out.dtype == np.float32
        assert np.array_equal(out.data, _composite_layer_norm(x, gain, bias).data)


class TestPairDifferencesMatchesComposite:
    """The factored first scorer layer against the dense layer on every pair's difference."""

    @staticmethod
    def _inputs(batch: int, n: int, seed: int, dtype):
        rng = RngStream(seed)
        enc = Tensor(rng.split("enc").normal((batch, n, 8), dtype=dtype), requires_grad=True)
        w = Tensor(rng.split("w").normal((8, 8), dtype=dtype), requires_grad=True)
        b = Tensor(rng.split("b").normal(8, dtype=dtype), requires_grad=True)
        return enc, w, b

    @staticmethod
    def _both(enc: Tensor, w: Tensor, b: Tensor) -> tuple[Tensor, Tensor]:
        batch, n, h = enc.shape
        composite = (enc.reshape(batch, 1, n, h) - enc.reshape(batch, n, 1, h)).linear(w, b, relu=True)
        return pair_differences(enc @ w, b), composite

    @given(st.integers(1, 4), st.integers(2, 25), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_float64_outputs_and_gradients(self, batch, n, seed):
        enc, w, b = self._inputs(batch, n, seed, np.float64)
        out, want = self._both(enc, w, b)
        np.testing.assert_allclose(out.data, want.data, rtol=0, atol=1e-12)
        weights = RngStream(seed).split("loss").normal(out.shape, dtype=np.float64)
        grads, want_grads = (_input_grads(o, [enc, w, b], weights) for o in (out, want))
        for name, got, expected in zip(("enc", "w", "b"), grads, want_grads):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10, err_msg=name)

    @given(st.integers(1, 4), st.integers(2, 25), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_float32_outputs(self, batch, n, seed):
        out, want = self._both(*self._inputs(batch, n, seed, np.float32))
        assert out.dtype == np.float32
        np.testing.assert_allclose(out.data, want.data, rtol=0, atol=1e-5 * np.abs(want.data).max())


class TestAdoptedNormAndAttentionGradients:
    """The gradients the layer-norm and attention backwards adopt alias nothing and change no bit.

    Each input feeds two nodes, so the gradient adopted from the first has
    the second added into it; the outputs' own gradients are checked too.
    """

    @staticmethod
    def _check(monkeypatch, inputs: list[Tensor], outputs) -> None:
        def grads() -> list[np.ndarray]:
            for t in inputs:
                t.zero_grad()
            outs = outputs()
            sum((o * o).sum() for o in outs).backward()
            return [t.grad for t in inputs + outs]

        adopted = grads()
        for i, g in enumerate(adopted):
            assert not any(np.shares_memory(g, other) for other in adopted[i + 1 :]), i
        monkeypatch.setattr(Tensor, "_adopt", Tensor._accumulate)
        for got, want in zip(adopted, grads()):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(7,), (3, 7), (2, 3, 7)])
    def test_layer_norm(self, shape, monkeypatch):
        # at (7,) the bias gradient has no axis to sum, so ``_unbroadcast`` hands back the output's own gradient
        rng = np.random.default_rng(60)
        x, gain, bias = (Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True) for s in (shape, 7, 7))
        self._check(monkeypatch, [x, gain, bias], lambda: [layer_norm(x, gain, bias), layer_norm(x * 2.0, gain, bias)])

    @pytest.mark.parametrize("shape,heads", [((4, 8), 2), ((2, 4, 8), 1), ((2, 4, 8), 2)])
    def test_attention(self, shape, heads, monkeypatch):
        rng = np.random.default_rng(61)
        q, k, v = (Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True) for _ in range(3))
        causal = np.tril(np.ones((4, 4), dtype=bool))

        def outputs() -> list[Tensor]:
            return [multi_head_attention(q, k, v, heads)[0], multi_head_attention(q, k, v, heads, mask=causal)[0]]

        self._check(monkeypatch, [q, k, v], outputs)


class TestLstm:
    def test_zero_weights_zero_input_give_zero_state(self):
        params = LstmParams(
            wx=Tensor(np.zeros((3, 16))), wh=Tensor(np.zeros((4, 16))), b=Tensor(np.zeros(16))
        )
        states, (h, c) = lstm_sequence(Tensor(np.zeros((1, 2, 3))), params)
        assert np.allclose(states.data, 0.0)
        assert np.allclose(h, 0.0)
        assert np.allclose(c, 0.0)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_bidirectional_output_dim(self, n):
        rng = RngStream(0)
        fwd = _lstm_params(rng.split("f"), 5, 7)
        bwd = _lstm_params(rng.split("b"), 5, 7)
        seq = Tensor(rng.split("x").normal((n, 5))[None])
        out = bidirectional_encode(seq, fwd, bwd)
        assert out.shape == (1, n, 14)

    def test_reversed_input_swaps_direction_channels(self):
        # with both directions sharing one set of weights, running the
        # reversed sequence swaps forward/backward channels at mirrored
        # positions; verified against explicit per-step recurrence
        rng = RngStream(7)
        shared = _lstm_params(rng.split("cell"), 4, 3)
        x = rng.split("seq").normal((3, 4), dtype=np.float32)
        enc = bidirectional_encode(Tensor(x[None]), shared, shared).data[0]
        enc_rev = bidirectional_encode(Tensor(x[::-1].copy()[None]), shared, shared).data[0]
        n, hidden = 3, 3
        for s in range(n):
            assert np.allclose(enc_rev[s, :hidden], enc[n - 1 - s, hidden:], atol=1e-6)
            assert np.allclose(enc_rev[s, hidden:], enc[n - 1 - s, :hidden], atol=1e-6)

        # and explicitly recompute the forward scan as the oracle
        h = c = Tensor(np.zeros((1, 3), dtype=np.float32))
        for t in range(n):
            h, c = _cell(Tensor(x[t : t + 1]), h, c, shared)
            assert np.allclose(enc[t, :hidden], h.data[0], atol=1e-6)


class TestLayerNorm:
    def test_normalizes_mean_and_scale(self):
        x = Tensor(np.random.default_rng(5).normal(loc=3.0, scale=2.0, size=(4, 16)).astype(np.float32))
        out = layer_norm(x, Tensor(np.ones(16, dtype=np.float32)), Tensor(np.zeros(16, dtype=np.float32)))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-5)
        assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-2)

    def test_gradients(self):
        rng = np.random.default_rng(6)
        x = t64(rng.normal(size=(2, 5)))
        gain = t64(rng.normal(size=5))
        bias = t64(rng.normal(size=5))

        def f():
            out = layer_norm(x, gain, bias)
            return (out * out).sum()

        report = grad_check(f, [("x", x), ("g", gain), ("b", bias)], epsilon=1e-6, tolerance=1e-6)
        assert report.passed, report.summary()


class TestSinusoidalPositions:
    def test_position_zero_alternates_zero_one(self):
        table = sinusoidal_positions(5, 8)
        assert np.allclose(table[0, 0::2], 0.0)
        assert np.allclose(table[0, 1::2], 1.0)

    def test_closed_form(self):
        d = 16
        table = sinusoidal_positions(25, d, dtype=np.float64)
        for pos in range(25):
            for i in range(d // 2):
                angle = pos / 10000 ** (2 * i / d)
                assert table[pos, 2 * i] == pytest.approx(np.sin(angle), abs=1e-6)
                assert table[pos, 2 * i + 1] == pytest.approx(np.cos(angle), abs=1e-6)

    def test_positions_up_to_25_are_pairwise_distinct(self):
        table = sinusoidal_positions(25, 128, dtype=np.float64)
        gaps = np.linalg.norm(table[:, None, :] - table[None, :, :], axis=-1)
        gaps[np.diag_indices(25)] = np.inf
        assert gaps.min() > 0.0


def _lstm_params(rng: RngStream, d: int, hidden: int) -> LstmParams:
    """A float32 cell initialised as ``Model._lstm`` does: Glorot weights and an open forget gate."""
    bias = np.zeros(4 * hidden, dtype=np.float32)
    bias[hidden : 2 * hidden] = 1.0
    return LstmParams(
        wx=Tensor(glorot_uniform(rng.split("wx"), (d, 4 * hidden)), requires_grad=True),
        wh=Tensor(glorot_uniform(rng.split("wh"), (hidden, 4 * hidden)), requires_grad=True),
        b=Tensor(bias, requires_grad=True),
    )


def _lstm_params64(rng: RngStream, d: int, hidden: int) -> LstmParams:
    return LstmParams(
        wx=t64(rng.split("wx").normal((d, 4 * hidden), std=0.5, dtype=np.float64)),
        wh=t64(rng.split("wh").normal((hidden, 4 * hidden), std=0.5, dtype=np.float64)),
        b=t64(rng.split("b").normal(4 * hidden, std=0.5, dtype=np.float64)),
    )


def _cell(x: Tensor, h: Tensor, c: Tensor, params: LstmParams) -> tuple[Tensor, Tensor]:
    """One gated-recurrence step built from Tensor ops, gate order i, f, g, o; σ(z) is written (tanh(z/2) + 1)/2."""

    def sigmoid(z: Tensor) -> Tensor:
        return (z * 0.5).tanh() * 0.5 + 0.5

    hidden = params.hidden
    z = x @ params.wx + h @ params.wh + params.b
    i = sigmoid(z[..., :hidden])
    f = sigmoid(z[..., hidden : 2 * hidden])
    g = z[..., 2 * hidden : 3 * hidden].tanh()
    o = sigmoid(z[..., 3 * hidden :])
    c_next = f * c + i * g
    h_next = o * c_next.tanh()
    return h_next, c_next


def _stepped_lstm(seq: Tensor, params: LstmParams, reverse: bool, state) -> tuple[Tensor, tuple]:
    """The reference: _cell stepped over the positions from ``state`` (zeros if None), one graph per step."""
    batch, n = seq.shape[0], seq.shape[1]
    if state is None:
        state = (np.zeros((batch, params.hidden)),) * 2
    h, c = (Tensor(s) for s in state)
    outputs = [None] * n
    for t in range(n - 1, -1, -1) if reverse else range(n):
        h, c = _cell(seq[:, t, :], h, c, params)
        outputs[t] = h
    return concat([o.reshape(batch, 1, params.hidden) for o in outputs], axis=1), (h.data, c.data)


def _fused(seq: Tensor, params: LstmParams, reverse: bool, state) -> tuple[Tensor, tuple | None]:
    """``lstm_sequence``, or for ``reverse`` the backward half of ``bidirectional_encode``, which returns no final state.

    Both halves share ``params``; the forward half gets no gradient, so it adds exact zeros to the weight gradients.
    """
    if not reverse:
        return lstm_sequence(seq, params, state)
    return bidirectional_encode(seq, params, params)[..., params.hidden :], None


class TestLstmSequence:
    def _compare_with_stepped_cell(self, n, reverse, state):
        rng = RngStream(31)
        params = _lstm_params64(rng.split("cell"), 5, 4)
        x = t64(rng.split("x").normal((3, n, 5), dtype=np.float64))
        weights = rng.split("loss").normal((3, n, 4), dtype=np.float64)
        named = [("x", x), ("wx", params.wx), ("wh", params.wh), ("b", params.b)]

        def run(fn):
            for _, tensor in named:
                tensor.zero_grad()
            out, final = fn(x, params, reverse, state)
            (out * Tensor(weights) + out * out).sum().backward()
            return out.data, final, [tensor.grad.copy() for _, tensor in named]

        fused, fused_final, fused_grads = run(_fused)
        stepped, stepped_final, stepped_grads = run(_stepped_lstm)
        np.testing.assert_allclose(fused, stepped, rtol=0, atol=1e-12)
        for name, got, want in zip(("h", "c"), fused_final or (), stepped_final):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=f"final {name}")
        for (name, _), got, want in zip(named, fused_grads, stepped_grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_matches_stepped_cell_outputs_and_gradients(self, n, reverse):
        self._compare_with_stepped_cell(n, reverse, state=None)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_continues_from_given_state(self, n):
        # the recurrence and its backward both start from (h0, c0), not zeros
        rng = RngStream(32)
        state = (rng.split("h0").normal((3, 4), dtype=np.float64), rng.split("c0").normal((3, 4), dtype=np.float64))
        self._compare_with_stepped_cell(n, False, state)


def _per_direction_lstm(seq: Tensor, params: LstmParams, reverse: bool = False, lengths=None) -> Tensor:
    """One direction as its own step loop and graph node, after the input projection: the form ``_scan`` must match.

    A row of ``lengths`` holds its zero initial state through its padding when running in reverse.
    """
    batch, n = seq.shape[0], seq.shape[1]
    hidden = params.hidden
    wh, bias = params.wh.data, params.b.data
    xz = seq @ params.wx
    dtype = xz.data.dtype
    gates = np.empty((batch, n, 4 * hidden), dtype=dtype)
    cells = np.empty((batch, n, hidden), dtype=dtype)
    tanh_cells = np.empty_like(cells)
    states = np.empty_like(cells)
    order = range(n - 1, -1, -1) if reverse else range(n)
    h0 = c0 = h = c = np.zeros((batch, hidden), dtype=dtype)
    held = {}
    if reverse and lengths is not None:
        held = {t: np.flatnonzero(lengths <= t) for t in range(lengths.min(), n)}

    def blocks(act):
        return act[:, :hidden], act[:, hidden : 2 * hidden], act[:, 2 * hidden : 3 * hidden], act[:, 3 * hidden :]

    for t in order:
        z = xz.data[:, t] + h @ wh + bias
        act = gates[:, t]
        act[:] = sigmoid_array(z)
        act[:, 2 * hidden : 3 * hidden] = np.tanh(z[:, 2 * hidden : 3 * hidden])
        i, f, g, o = blocks(act)
        c = cells[:, t] = f * c + i * g
        tanh_cells[:, t] = np.tanh(c)
        h = states[:, t] = o * tanh_cells[:, t]
        if t in held:
            rows = held[t]
            h[rows], c[rows] = h0[rows], c0[rows]
            states[rows, t], cells[rows, t] = h0[rows], c0[rows]

    def _bwd(grad: np.ndarray) -> None:
        prev_states, prev_cells = np.empty_like(states), np.empty_like(cells)
        prev_states[:, order[0]], prev_cells[:, order[0]] = h0, c0
        into, outof = (slice(None, -1), slice(1, None)) if reverse else (slice(1, None), slice(None, -1))
        prev_states[:, into] = states[:, outof]
        prev_cells[:, into] = cells[:, outof]
        dz = np.empty_like(gates)
        dh = dc = np.zeros((batch, hidden), dtype=dtype)
        for t in reversed(order):
            i, f, g, o = blocks(gates[:, t])
            tc = tanh_cells[:, t]
            dh = dh + grad[:, t]
            dc = dc + dh * o * (1.0 - tc * tc)
            d = dz[:, t]
            d[:, :hidden] = dc * g * i * (1.0 - i)
            d[:, hidden : 2 * hidden] = dc * prev_cells[:, t] * f * (1.0 - f)
            d[:, 2 * hidden : 3 * hidden] = dc * i * (1.0 - g * g)
            d[:, 3 * hidden :] = dh * tc * o * (1.0 - o)
            if t in held:
                d[held[t]] = 0.0
            dc = dc * f
            dh = d @ wh.T
        dz_flat = dz.reshape(batch * n, 4 * hidden)
        if xz.requires_grad:
            xz._adopt(dz)
        if params.wh.requires_grad:
            params.wh._adopt(prev_states.reshape(batch * n, hidden).T @ dz_flat)
        if params.b.requires_grad:
            params.b._adopt(dz_flat.sum(axis=0))

    return Tensor._result(states, (xz, params.wh, params.b), _bwd)


def _per_direction_encode(seq: Tensor, forward: LstmParams, backward: LstmParams, lengths=None) -> Tensor:
    """Each direction in its own loop, then ``concat``: five graph nodes where ``bidirectional_encode`` records three."""
    return concat([_per_direction_lstm(seq, forward), _per_direction_lstm(seq, backward, True, lengths)], axis=-1)


class TestBidirectionalMatchesPerDirection:
    """``bidirectional_encode`` against two per-direction loops and ``concat``, bit for bit, no tolerance."""

    @staticmethod
    def _inputs(batch, n, hidden, seed, padded, shared):
        rng = RngStream(seed)
        d = 3 + seed % 6
        x = Tensor(rng.split("x").normal((batch, n, d)), requires_grad=True)
        directions = [_lstm_params(rng.split("fwd"), d, hidden)]
        directions.append(directions[0] if shared else _lstm_params(rng.split("bwd"), d, hidden))
        for p in directions:  # a nonzero bias everywhere, so every gate block sees it
            p.b.data += rng.split("b").normal(4 * hidden, std=0.5)
        lengths = None
        if padded:
            lengths = np.sort(rng.split("lengths").integers(1, n + 1, size=batch))[::-1].copy()
            lengths[0] = n
        weights = rng.split("w").normal((batch, n, 2 * hidden))
        return x, directions, lengths, weights

    @staticmethod
    def _run(encode, x, directions, lengths, weights):
        tensors = [x] + [t for p in directions for t in (p.wx, p.wh, p.b)]
        for t in tensors:
            t.zero_grad()
        out = encode(x, *directions, lengths)
        (out * Tensor(weights) + out * out).sum().backward()
        return [out.data] + [t.grad.copy() for t in tensors]

    @given(
        st.integers(1, 20), st.integers(1, 25), st.sampled_from([1, 2, 5, 16]), st.integers(0, 2**16),
        st.booleans(), st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_float32_outputs_and_gradients_are_bitwise(self, batch, n, hidden, seed, padded, shared):
        inputs = self._inputs(batch, n, hidden, seed, padded, shared)
        got = self._run(bidirectional_encode, *inputs)
        want = self._run(_per_direction_encode, *inputs)
        names = ["out", "x"] + [f"{d}.{k}" for d in ("fwd", "bwd") for k in ("wx", "wh", "b")]
        for name, g, w in zip(names, got, want):
            assert g.dtype == np.float32
            assert np.array_equal(g, w), name

    def test_hidden_size_one_is_bitwise(self):
        # with H = 1 the recurrent gradient product ``d @ wh.T`` is a matrix-vector product, whose BLAS kernel can
        # round differently for another row stride of ``d``: the fused backward must hand it the same strides
        for seed in range(40):
            inputs = self._inputs((3, 8, 16)[seed % 3], 1 + seed % 25, 1, seed, seed % 2 == 0, seed % 3 == 0)
            got = self._run(bidirectional_encode, *inputs)
            want = self._run(_per_direction_encode, *inputs)
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), seed

    @pytest.mark.parametrize("padded", [False, True], ids=["full", "padded"])
    def test_no_grad_output_is_the_grad_mode_output_and_records_nothing(self, padded):
        x, directions, lengths, _ = self._inputs(6, 9, 16, 3, padded, shared=False)
        recorded = bidirectional_encode(x, *directions, lengths)
        with no_grad():
            bare = bidirectional_encode(x, *directions, lengths)
        assert recorded._parents and not bare._parents and not bare.requires_grad
        assert np.array_equal(bare.data, recorded.data)

    def test_one_recurrence_node_after_the_two_projections(self, monkeypatch):
        x, directions, _, _ = self._inputs(2, 4, 3, 5, padded=False, shared=False)
        calls = []
        record = Tensor._result
        monkeypatch.setattr(Tensor, "_result", staticmethod(lambda *a: calls.append(a[1]) or record(*a)))
        bidirectional_encode(x, *directions)
        assert len(calls) == 3  # seq @ wx for each direction, then the recurrence
        assert len(calls[-1]) == 6  # both projections, both wh and both b


class TestPaddedEncoders:
    def test_padded_bidirectional_encode_matches_each_document_alone(self):
        # both directions, outputs and gradients, at every real position of a zero-padded batch
        rng = RngStream(40)
        fwd, bwd = _lstm_params64(rng.split("fwd"), 5, 4), _lstm_params64(rng.split("bwd"), 5, 4)
        params = [t for cell in (fwd, bwd) for t in (cell.wx, cell.wh, cell.b)]
        lengths = np.array([6, 2, 4])
        docs = [rng.split(f"doc{i}").normal((n, 5), dtype=np.float64) for i, n in enumerate(lengths)]
        weights = [rng.split(f"w{i}").normal((n, 8), dtype=np.float64) for i, n in enumerate(lengths)]

        def encode(x, w, lengths=None):
            for t in params:
                t.zero_grad()
            x = t64(x)
            out = bidirectional_encode(x, fwd, bwd, lengths)
            (out * Tensor(w) + out * out * Tensor(w != 0)).sum().backward()
            return out.data, x.grad, [t.grad.copy() for t in params]

        padded, padded_w = np.zeros((3, 6, 5)), np.zeros((3, 6, 8))
        for i, (doc, w) in enumerate(zip(docs, weights)):
            padded[i, : len(doc)], padded_w[i, : len(doc)] = doc, w
        out, x_grad, grads = encode(padded, padded_w, lengths)
        alone_grads = [np.zeros_like(g) for g in grads]
        for i, (doc, w) in enumerate(zip(docs, weights)):
            want, want_x_grad, doc_grads = encode(doc[None], w[None])
            n = len(doc)
            np.testing.assert_allclose(out[i, :n, :4], want[0, :, :4], rtol=0, atol=1e-12, err_msg="forward")
            np.testing.assert_allclose(out[i, :n, 4:], want[0, :, 4:], rtol=0, atol=1e-12, err_msg="backward")
            np.testing.assert_allclose(x_grad[i, :n], want_x_grad[0], rtol=0, atol=1e-12)
            alone_grads = [a + g for a, g in zip(alone_grads, doc_grads)]
        for got, want in zip(grads, alone_grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_key_padding_mask_gives_real_slots_the_unpadded_outputs(self):
        from pageorder.models.transformer import run_encoder

        model = build_model(desk_config(Arch.PAIRWISE_RANK, 8), dtype=np.float64)
        rng = np.random.default_rng(41)
        doc = rng.normal(size=(4, 128))
        padded = np.concatenate([doc, 10.0 * rng.normal(size=(3, 128))])[None]  # padding that would dominate
        mask = np.arange(7) < np.array([[4]])
        want, want_attns = run_encoder(model, "enc", Tensor(doc[None]))
        got, attns = run_encoder(model, "enc", Tensor(padded), mask)
        np.testing.assert_allclose(got.data[0, :4], want.data[0], rtol=0, atol=1e-12)
        for a, w in zip(attns, want_attns):
            assert np.all(a.data[..., 4:] == 0.0)  # no slot attends to the padding
            np.testing.assert_allclose(a.data[0, :, :4, :4], w.data[0], rtol=0, atol=1e-12)


class TestFlattenedMatmul:
    # the last case is a batched product of two activations, the one kind that does not run as ``linear``
    @pytest.mark.parametrize("a_shape,b_shape", [((3, 4, 5), (5, 6)), ((2, 4, 4, 5), (5, 5)), ((2, 3, 5), (2, 5, 4))])
    def test_matches_batched_matmul_and_unbroadcast(self, a_shape, b_shape):
        rng = np.random.default_rng(33)
        a, b = t64(rng.normal(size=a_shape)), t64(rng.normal(size=b_shape))
        g = rng.normal(size=a_shape[:-1] + b_shape[-1:])
        out = a @ b
        (out * Tensor(g)).sum().backward()
        np.testing.assert_allclose(out.data, np.matmul(a.data, b.data), rtol=0, atol=1e-12)
        want_ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a_shape)
        want_gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b_shape)
        np.testing.assert_allclose(a.grad, want_ga, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.grad, want_gb, rtol=0, atol=1e-12)


@pytest.mark.parametrize("arch", list(Arch), ids=lambda a: a.value)
def test_parameter_grads_own_their_memory_and_match_copied_grads(arch, monkeypatch):
    """Adopted GEMM and LSTM gradients alias no other gradient or weight, and change no bit."""
    model = build_model(desk_config(arch, 12, seed=2))
    rng = np.random.default_rng(6)
    pages = rng.normal(size=(3, 6, 12)).astype(np.float32)
    truth = np.stack([rng.permutation(6) for _ in range(3)])

    def grads() -> list[np.ndarray]:
        model.zero_grad()
        model.loss(Tensor(pages), truth).mean().backward()
        return [p.grad for p in model.params.values()]

    adopted = grads()
    arrays = [p.data for p in model.params.values()]
    assert all(g is not None for g in adopted)
    for i, g in enumerate(adopted):
        assert not any(np.shares_memory(g, other) for other in adopted[i + 1 :] + arrays), i
    monkeypatch.setattr(Tensor, "_adopt", Tensor._accumulate)
    for got, want in zip(adopted, grads()):
        assert np.array_equal(got, want)
