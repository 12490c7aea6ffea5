import itertools

import numpy as np
import pytest

from pageorder.errors import ConfigError, DomainError
from pageorder.metrics import require_permutation
from pageorder.models import (
    Arch,
    CheckpointDigestError,
    CheckpointVersionError,
    LengthError,
    ModelConfig,
    PairwiseScores,
    PeVariant,
    aggregate_scores,
    build_model,
    desk_config,
    load_checkpoint,
    save_checkpoint,
)
from pageorder.models.base import DOCS_PER_PASS, length_chunks
from pageorder.models.pointer import greedy_decode
from pageorder.numcore import Tensor

DIM = 16


def score_matrix(model, pages: np.ndarray) -> np.ndarray:
    """The pairwise model's (n, n) score matrix of one (n, dim) document."""
    from pageorder.numcore import no_grad

    with no_grad():
        s, _ = model.score_matrix(Tensor(pages[None]))
    return s.data[0]


def tiny_config(arch, **kw):
    defaults = dict(input_dim=DIM, hidden_dim=16, layers=1, heads=2, seed=5)
    defaults.update(kw)
    return ModelConfig(arch=arch, **defaults)


class TestModelConfig:
    def test_heads_must_divide_hidden(self):
        with pytest.raises(ConfigError):
            ModelConfig(arch=Arch.SEQ2SEQ, input_dim=8, hidden_dim=10, heads=4)

    def test_max_len_floor(self):
        with pytest.raises(ConfigError):
            ModelConfig(arch=Arch.SEQ2SEQ, input_dim=8, hidden_dim=8, heads=2, max_len=10)

    def test_round_trip_dict(self):
        cfg = desk_config(Arch.POINTER_LSTM, 64, seed=9)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("field, value", [("heads", 0), ("heads", -2), ("hidden_dim", 0), ("hidden_dim", -4)])
    def test_non_positive_width_or_heads_is_config_error(self, field, value):
        # a checkpoint's config JSON reaches the check through from_dict
        kw = {**desk_config(Arch.SEQ2SEQ, 8).to_dict(), field: value}
        with pytest.raises(ConfigError, match="hidden_dim and heads must be positive"):
            ModelConfig.from_dict(kw)
        with pytest.raises(ConfigError, match="hidden_dim and heads must be positive"):
            ModelConfig(**{**kw, "arch": Arch.SEQ2SEQ, "pe_variant": PeVariant.LEARNED})


# Every parameter's name and shape in registration order, at input_dim 12,
# hidden_dim 8 and two layers. Checkpoint layout and the order of Adam and
# global-norm updates follow this order.
REGISTRY = {
    Arch.BILSTM_POS: [
        ("layer0.fwd.wx", (12, 32)), ("layer0.fwd.wh", (8, 32)), ("layer0.fwd.b", (32,)),
        ("layer0.bwd.wx", (12, 32)), ("layer0.bwd.wh", (8, 32)), ("layer0.bwd.b", (32,)),
        ("layer1.fwd.wx", (16, 32)), ("layer1.fwd.wh", (8, 32)), ("layer1.fwd.b", (32,)),
        ("layer1.bwd.wx", (16, 32)), ("layer1.bwd.wh", (8, 32)), ("layer1.bwd.b", (32,)), ("head.w", (16, 1)),
        ("head.b", (1,)),
    ],
    Arch.POINTER_MLP: [
        ("enc.w0", (12, 8)), ("enc.b0", (8,)), ("enc.w1", (8, 8)), ("enc.b1", (8,)), ("update.w0", (8, 8)),
        ("update.b0", (8,)), ("update.w1", (8, 8)), ("update.b1", (8,)),
    ],
    Arch.POINTER_LSTM: [
        ("enc.fwd.wx", (12, 32)), ("enc.fwd.wh", (8, 32)), ("enc.fwd.b", (32,)), ("enc.bwd.wx", (12, 32)),
        ("enc.bwd.wh", (8, 32)), ("enc.bwd.b", (32,)), ("dec.wx", (16, 64)), ("dec.wh", (16, 64)), ("dec.b", (64,)),
        ("dec.start", (16,)), ("attn.w_enc", (16, 8)), ("attn.w_dec", (16, 8)), ("attn.b", (8,)), ("attn.v", (8, 1)),
    ],
    Arch.SEQ2SEQ: [
        ("input.w", (12, 8)), ("input.b", (8,)), ("pe.table", (25, 8)), ("enc.layer0.ln1.g", (8,)),
        ("enc.layer0.ln1.b", (8,)), ("enc.layer0.wq", (8, 8)), ("enc.layer0.wk", (8, 8)), ("enc.layer0.wv", (8, 8)),
        ("enc.layer0.wo", (8, 8)), ("enc.layer0.ln2.g", (8,)), ("enc.layer0.ln2.b", (8,)),
        ("enc.layer0.ffn.w1", (8, 32)), ("enc.layer0.ffn.b1", (32,)), ("enc.layer0.ffn.w2", (32, 8)),
        ("enc.layer0.ffn.b2", (8,)), ("enc.layer1.ln1.g", (8,)), ("enc.layer1.ln1.b", (8,)),
        ("enc.layer1.wq", (8, 8)), ("enc.layer1.wk", (8, 8)), ("enc.layer1.wv", (8, 8)), ("enc.layer1.wo", (8, 8)),
        ("enc.layer1.ln2.g", (8,)), ("enc.layer1.ln2.b", (8,)), ("enc.layer1.ffn.w1", (8, 32)),
        ("enc.layer1.ffn.b1", (32,)), ("enc.layer1.ffn.w2", (32, 8)), ("enc.layer1.ffn.b2", (8,)),
        ("enc.ln_out.g", (8,)), ("enc.ln_out.b", (8,)), ("dec.layer0.ln1.g", (8,)), ("dec.layer0.ln1.b", (8,)),
        ("dec.layer0.self.wq", (8, 8)), ("dec.layer0.self.wk", (8, 8)), ("dec.layer0.self.wv", (8, 8)),
        ("dec.layer0.self.wo", (8, 8)), ("dec.layer0.ln2.g", (8,)), ("dec.layer0.ln2.b", (8,)),
        ("dec.layer0.cross.wq", (8, 8)), ("dec.layer0.cross.wk", (8, 8)), ("dec.layer0.cross.wv", (8, 8)),
        ("dec.layer0.cross.wo", (8, 8)), ("dec.layer0.ln3.g", (8,)), ("dec.layer0.ln3.b", (8,)),
        ("dec.layer0.ffn.w1", (8, 32)), ("dec.layer0.ffn.b1", (32,)), ("dec.layer0.ffn.w2", (32, 8)),
        ("dec.layer0.ffn.b2", (8,)), ("dec.layer1.ln1.g", (8,)), ("dec.layer1.ln1.b", (8,)),
        ("dec.layer1.self.wq", (8, 8)), ("dec.layer1.self.wk", (8, 8)), ("dec.layer1.self.wv", (8, 8)),
        ("dec.layer1.self.wo", (8, 8)), ("dec.layer1.ln2.g", (8,)), ("dec.layer1.ln2.b", (8,)),
        ("dec.layer1.cross.wq", (8, 8)), ("dec.layer1.cross.wk", (8, 8)), ("dec.layer1.cross.wv", (8, 8)),
        ("dec.layer1.cross.wo", (8, 8)), ("dec.layer1.ln3.g", (8,)), ("dec.layer1.ln3.b", (8,)),
        ("dec.layer1.ffn.w1", (8, 32)), ("dec.layer1.ffn.b1", (32,)), ("dec.layer1.ffn.w2", (32, 8)),
        ("dec.layer1.ffn.b2", (8,)), ("dec.ln_out.g", (8,)), ("dec.ln_out.b", (8,)), ("dec.start", (8,)),
        ("ptr.wq", (8, 8)), ("ptr.wk", (8, 8)),
    ],
    Arch.PAIRWISE_RANK: [
        ("input.w", (12, 8)), ("input.b", (8,)), ("enc.layer0.ln1.g", (8,)), ("enc.layer0.ln1.b", (8,)),
        ("enc.layer0.wq", (8, 8)), ("enc.layer0.wk", (8, 8)), ("enc.layer0.wv", (8, 8)), ("enc.layer0.wo", (8, 8)),
        ("enc.layer0.ln2.g", (8,)), ("enc.layer0.ln2.b", (8,)), ("enc.layer0.ffn.w1", (8, 32)),
        ("enc.layer0.ffn.b1", (32,)), ("enc.layer0.ffn.w2", (32, 8)), ("enc.layer0.ffn.b2", (8,)),
        ("enc.layer1.ln1.g", (8,)), ("enc.layer1.ln1.b", (8,)), ("enc.layer1.wq", (8, 8)), ("enc.layer1.wk", (8, 8)),
        ("enc.layer1.wv", (8, 8)), ("enc.layer1.wo", (8, 8)), ("enc.layer1.ln2.g", (8,)), ("enc.layer1.ln2.b", (8,)),
        ("enc.layer1.ffn.w1", (8, 32)), ("enc.layer1.ffn.b1", (32,)), ("enc.layer1.ffn.w2", (32, 8)),
        ("enc.layer1.ffn.b2", (8,)), ("enc.ln_out.g", (8,)), ("enc.ln_out.b", (8,)), ("scorer.w0", (8, 8)),
        ("scorer.b0", (8,)), ("scorer.w1", (8, 8)), ("scorer.b1", (8,)), ("scorer.w2", (8, 8)), ("scorer.b2", (8,)),
        ("scorer.w3", (8, 1)), ("scorer.b3", (1,)),
    ],
}


class TestParameterRegistry:
    @pytest.mark.parametrize("arch, pe", [(a, PeVariant.LEARNED) for a in Arch] + [(Arch.SEQ2SEQ, PeVariant.NONE)])
    def test_names_shapes_and_order(self, arch, pe):
        model = build_model(ModelConfig(arch=arch, input_dim=12, hidden_dim=8, layers=2, heads=2, pe_variant=pe))
        expected = [entry for entry in REGISTRY[arch] if pe is PeVariant.LEARNED or entry[0] != "pe.table"]
        assert [(name, p.data.shape) for name, p in model.params.items()] == expected

    def test_a_duplicate_lstm_prefix_is_refused(self):
        # a second cell under one prefix would push the first cell's tensors out of the registry
        model = build_model(tiny_config(Arch.POINTER_LSTM))
        with pytest.raises(ConfigError, match="duplicate parameter name enc.fwd.wx"):
            model._lstm("enc.fwd", DIM, 16)


class TestOrderingContracts:
    @pytest.mark.parametrize("arch", list(Arch))
    def test_valid_permutations_all_lengths(self, arch):
        model = build_model(tiny_config(arch))
        rng = np.random.default_rng(0)
        for n in (2, 3, 9, 25):
            order = model.order(rng.normal(size=(n, DIM)).astype(np.float32))
            require_permutation(order, n)

    def test_bilstm_sorts_ascending_by_score(self):
        model = build_model(tiny_config(Arch.BILSTM_POS))
        scores = np.array([0.9, 0.1, 0.5])
        assert np.argsort(scores, kind="stable").tolist() == [1, 2, 0]
        # the model's own ordering is argsort of its scores
        pages = np.random.default_rng(1).normal(size=(3, DIM)).astype(np.float32)
        from pageorder.numcore import no_grad

        with no_grad():
            model_scores = model.position_scores(Tensor(pages[None])).data[0]
        assert model.order(pages).tolist() == np.argsort(model_scores, kind="stable").tolist()

    def test_tied_scores_break_by_slot_index(self):
        from pageorder.models.bilstm import ordering_from_scores

        assert ordering_from_scores(np.array([0.5, 0.5])).tolist() == [0, 1]
        assert ordering_from_scores(np.array([0.3, 0.5, 0.3, 0.1])).tolist() == [3, 0, 2, 1]

    def test_pointer_equal_logits_prefer_low_slots(self):
        model = build_model(tiny_config(Arch.POINTER_MLP))
        pages = np.tile(np.random.default_rng(3).normal(size=(1, DIM)).astype(np.float32), (5, 1))
        assert model.order(pages).tolist() == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("arch", [Arch.POINTER_MLP, Arch.POINTER_LSTM, Arch.SEQ2SEQ])
    def test_no_slot_selected_twice(self, arch):
        model = build_model(tiny_config(arch))
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 26))
            order = model.order(rng.normal(size=(n, DIM)).astype(np.float32))
            assert len(set(order.tolist())) == n

    def test_pointer_lstm_25_page_decode_under_50ms(self):
        import time

        model = build_model(desk_config(Arch.POINTER_LSTM, input_dim=64, seed=0))
        pages = np.random.default_rng(5).normal(size=(25, 64)).astype(np.float32)
        model.order(pages)  # warm-up
        timings = []
        for _ in range(5):
            t0 = time.perf_counter()
            model.order(pages)
            timings.append(time.perf_counter() - t0)
        assert min(timings) < 0.050, f"decode took {min(timings) * 1000:.1f}ms"


class TestGreedyDecode:
    def test_constant_logits_pick_slots_in_order(self):
        order = greedy_decode([6] * 3, lambda prev: np.zeros((3, 6), dtype=np.float32))
        assert [o.tolist() for o in order] == [[0, 1, 2, 3, 4, 5]] * 3

    def test_chosen_slot_is_never_picked_again(self):
        # per row: one slot keeps the highest score; the last pick outranks every other slot
        top = np.array([2, 0])

        def step(prev):
            logits = np.tile(np.arange(5, dtype=np.float64), (2, 1))
            logits[[0, 1], top] = 100.0
            if prev is not None:
                assert prev.shape == (2,)
                logits[[0, 1], prev] = 50.0
            return logits

        order = greedy_decode([5, 5], step)
        assert [o.tolist() for o in order] == [[2, 4, 3, 1, 0], [0, 4, 3, 2, 1]]

    def test_rows_decode_independently(self):
        # row 1 prefers high slots, row 0 low ones; each row's picks feed only its own mask
        def step(prev):
            return np.stack([-np.arange(4.0), np.arange(4.0)])

        assert [o.tolist() for o in greedy_decode([4, 4], step)] == [[0, 1, 2, 3], [3, 2, 1, 0]]

    def test_slots_past_a_documents_length_are_never_picked(self):
        # the padded slots score highest, yet each row picks only among its own n_i slots
        steps = []

        def step(prev):
            steps.append(prev)
            return np.tile(np.arange(5.0), (3, 1))

        order = greedy_decode([2, 5, 3], step)
        assert [o.tolist() for o in order] == [[1, 0], [4, 3, 2, 1, 0], [2, 1, 0]]
        assert len(steps) == 5  # max(n) steps, not one loop per length


ORDER_ROWS = [(arch, PeVariant.LEARNED) for arch in Arch] + [
    (Arch.SEQ2SEQ, PeVariant.SINUSOIDAL),
    (Arch.SEQ2SEQ, PeVariant.NONE),
]


class TestOrderBatch:
    @pytest.mark.parametrize("arch,pe", ORDER_ROWS, ids=lambda v: v.value)
    def test_stack_matches_per_document_order(self, arch, pe):
        model = build_model(tiny_config(arch, pe_variant=pe))
        rng = np.random.default_rng(12)
        for n in (2, 7, 25):
            stack = rng.normal(size=(4, n, DIM)).astype(np.float32)
            batched = model.order_batch(stack)
            assert [o.tolist() for o in batched] == [model.order(doc).tolist() for doc in stack]

    @pytest.mark.parametrize("arch,pe", ORDER_ROWS, ids=lambda v: v.value)
    def test_mixed_lengths_match_per_document_order(self, arch, pe):
        # one call on documents of 2, 7 and 25 pages, and one document alone at its length
        model = build_model(tiny_config(arch, pe_variant=pe))
        rng = np.random.default_rng(19)
        docs = [rng.normal(size=(n, DIM)).astype(np.float32) for n in (7, 2, 25, 7, 13, 2, 25, 7)]
        batched = model.order_batch(docs)
        assert [o.tolist() for o in batched] == [model.order(doc).tolist() for doc in docs]
        for order, doc in zip(batched, docs):
            require_permutation(order, len(doc))  # no padded slot, every real one once

    @pytest.mark.parametrize(
        "arch,pe", [(Arch.POINTER_MLP, PeVariant.LEARNED), (Arch.SEQ2SEQ, PeVariant.NONE)], ids=lambda v: v.value
    )
    def test_identical_pages_tie_to_low_slots_in_a_stack(self, arch, pe):
        # a document of identical pages has bitwise-equal logits at every step, batched or not
        model = build_model(tiny_config(arch, pe_variant=pe))
        rng = np.random.default_rng(13)
        tied = np.tile(rng.normal(size=(1, DIM)).astype(np.float32), (6, 1))
        stack = np.stack([rng.normal(size=(6, DIM)).astype(np.float32), tied, tied])
        batched = [o.tolist() for o in model.order_batch(stack)]
        assert batched[1:] == [list(range(6))] * 2
        assert batched == [model.order(doc).tolist() for doc in stack]

    @pytest.mark.parametrize(
        "arch,pe", [(Arch.POINTER_MLP, PeVariant.LEARNED), (Arch.SEQ2SEQ, PeVariant.NONE)], ids=lambda v: v.value
    )
    def test_identical_pages_tie_to_low_slots_across_lengths(self, arch, pe):
        # padding a short document of identical pages to a long one's length keeps its ties exact
        model = build_model(tiny_config(arch, pe_variant=pe))
        rng = np.random.default_rng(20)
        page = rng.normal(size=(1, DIM)).astype(np.float32)
        docs = [np.tile(page, (n, 1)) for n in (3, 11)] + [rng.normal(size=(25, DIM)).astype(np.float32)]
        batched = [o.tolist() for o in model.order_batch(docs)]
        assert batched[:2] == [list(range(3)), list(range(11))]
        assert batched == [model.order(doc).tolist() for doc in docs]

    @pytest.mark.parametrize("arch", list(Arch), ids=lambda a: a.value)
    def test_one_encoder_pass_per_chunk_not_per_length(self, monkeypatch, arch):
        # 18 documents of 9 distinct lengths fit one chunk, padded to the longest
        model = build_model(tiny_config(arch))
        encoder = "position_scores" if arch is Arch.BILSTM_POS else "encode"
        stacks = []
        run = getattr(model, encoder)

        def counted(pages, *args, **kwargs):
            stacks.append(pages.shape[:2])
            return run(pages, *args, **kwargs)

        monkeypatch.setattr(model, encoder, counted)
        rng = np.random.default_rng(21)
        docs = [rng.normal(size=(n, DIM)).astype(np.float32) for n in list(range(16, 25)) * 2]
        orders = model.order_batch(docs)
        assert stacks == [(18, 24)]
        assert [len(o) for o in orders] == [len(doc) for doc in docs]

    def test_length_chunks_respect_the_document_budget(self):
        lengths = np.random.default_rng(22).integers(2, 26, size=3 * DOCS_PER_PASS + 5)
        chunks = length_chunks(lengths)
        assert len(chunks) == 4
        # longest first, every document once
        assert np.array_equal(np.concatenate(chunks), np.argsort(-lengths, kind="stable"))
        sizes = [len(c) for c in chunks]
        assert max(sizes) <= DOCS_PER_PASS and max(sizes) - min(sizes) <= 1
        assert [c.tolist() for c in length_chunks(np.array([3]))] == [[0]]
        # one document over the budget splits the rest evenly, with no one-document tail
        assert [len(c) for c in length_chunks(np.array([25] * (DOCS_PER_PASS + 1)))] == [
            DOCS_PER_PASS // 2 + 1,
            (DOCS_PER_PASS + 1) // 2,
        ]

    def test_no_order_padded_call_exceeds_the_document_budget(self, monkeypatch):
        model = build_model(tiny_config(Arch.POINTER_MLP))
        rows = []
        order_padded = model.order_padded

        def counted(stack, lengths):
            rows.append(len(stack))
            return order_padded(stack, lengths)

        monkeypatch.setattr(model, "order_padded", counted)
        rng = np.random.default_rng(23)
        docs = [rng.normal(size=(n, DIM)).astype(np.float32) for n in rng.integers(2, 26, size=2 * DOCS_PER_PASS + 1)]
        orders = model.order_batch(docs)
        # the fewest calls that keep each within the budget, every document in one of them
        assert len(rows) == 3 and sum(rows) == len(docs)
        assert max(rows) <= DOCS_PER_PASS
        assert [o.tolist() for o in orders] == [model.order(doc).tolist() for doc in docs]

    @pytest.mark.parametrize("arch", [Arch.POINTER_LSTM, Arch.SEQ2SEQ], ids=lambda a: a.value)
    def test_decode_memory_does_not_grow_with_the_documents(self, arch):
        import tracemalloc

        model = build_model(tiny_config(arch, hidden_dim=32))
        docs = list(np.random.default_rng(24).normal(size=(4 * DOCS_PER_PASS, 25, DIM)).astype(np.float32))

        def peak(count):
            tracemalloc.start()
            try:
                model.order_batch(docs[:count])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4 * DOCS_PER_PASS) < 1.5 * peak(DOCS_PER_PASS)

    @pytest.mark.parametrize("arch", list(Arch), ids=lambda a: a.value)
    def test_rejects_degenerate_documents(self, arch):
        # too few pages to order, or a non-finite value, fails loudly on every entry point
        model = build_model(tiny_config(arch))
        good = np.ones((4, DIM), dtype=np.float32)
        nan_page = good.copy()
        nan_page[2, 5] = np.nan
        for doc, message in [
            (np.zeros((0, DIM), dtype=np.float32), "at least 2 pages"),
            (np.ones((1, DIM), dtype=np.float32), "at least 2 pages"),
            (nan_page, "non-finite"),
            (np.full((3, DIM), np.inf, dtype=np.float32), "non-finite"),
        ]:
            with pytest.raises(DomainError, match=message):
                model.order(doc)
            with pytest.raises(DomainError, match=message):
                model.order_batch([good, doc])

    def test_rejects_unbatched_input(self):
        model = build_model(tiny_config(Arch.POINTER_MLP))
        with pytest.raises(ConfigError):
            model.order_batch(np.zeros((5, DIM), dtype=np.float32))

    @pytest.mark.parametrize("pe", list(PeVariant), ids=lambda v: v.value)
    def test_cached_decode_feeds_one_decoder_row_per_document_per_step(self, monkeypatch, pe):
        import pageorder.models.seq2seq as seq2seq_mod

        model = build_model(tiny_config(Arch.SEQ2SEQ, pe_variant=pe))
        rows_per_call = []
        run_decoder = seq2seq_mod.run_decoder

        def counted(model, prefix, x, *args, **kwargs):
            rows_per_call.append(x.shape[:-1])
            return run_decoder(model, prefix, x, *args, **kwargs)

        monkeypatch.setattr(seq2seq_mod, "run_decoder", counted)
        rng = np.random.default_rng(14)
        docs = [rng.normal(size=(n, DIM)).astype(np.float32) for n in (9, 4, 9, 6)]
        model.order_batch(docs)
        assert rows_per_call == [(4, 1)] * 9  # max(n) steps over every document, not sum(n) over lengths

    @pytest.mark.parametrize("pe", list(PeVariant), ids=lambda v: v.value)
    def test_cached_decoder_states_match_teacher_forcing(self, pe):
        # incremental steps against one causal pass over the same inputs
        from pageorder.models.transformer import DecoderCache
        from pageorder.numcore import no_grad

        model = build_model(tiny_config(Arch.SEQ2SEQ, pe_variant=pe), dtype=np.float64)
        rng = np.random.default_rng(15)
        with no_grad():
            memory, _ = model.encode(Tensor(rng.normal(size=(2, 6, DIM))))
            inputs = Tensor(rng.normal(size=(2, 6, 16)))
            full = model._decode_states(memory, inputs, DecoderCache(model.config.layers, 6)).data
            cache = DecoderCache(model.config.layers, 6)
            steps = [model._decode_states(memory, inputs[:, t : t + 1], cache).data for t in range(6)]
        assert np.allclose(np.concatenate(steps, axis=1), full, atol=1e-12)


class TestGreedyMatchesTeacherForcing:
    @pytest.mark.parametrize("arch", [Arch.POINTER_MLP, Arch.POINTER_LSTM, Arch.SEQ2SEQ], ids=lambda v: v.value)
    @pytest.mark.parametrize("n", [2, 9, 25])
    def test_each_pick_is_the_masked_argmax_of_teacher_logits(self, arch, n):
        # teacher forcing fed the decoded order must see the same step logits the decoder picked from
        from pageorder.numcore import no_grad

        model = build_model(tiny_config(arch), dtype=np.float64)
        stack = np.random.default_rng(16).normal(size=(3, n, DIM))
        order = np.stack(model.order_batch(stack))
        rank = np.argsort(order, axis=1)  # rank[b, slot] is the step that picked the slot
        with no_grad():
            logits, sel, free = model.teacher_logits(Tensor(stack), rank)
        assert sel.tolist() == order.tolist()
        unused = [[[j not in row[:t] for j in range(n)] for t in range(n)] for row in sel.tolist()]
        assert free.tolist() == unused
        masked = np.where(free, logits.data, -np.inf)
        best = masked.max(axis=-1)
        picked = np.take_along_axis(masked, order[..., None], axis=-1)[..., 0]
        assert np.all(best - picked <= 1e-9 * np.maximum(1.0, np.abs(best)))


class TestSeq2Seq:
    def test_learned_pe_rejects_long_input(self):
        model = build_model(tiny_config(Arch.SEQ2SEQ, pe_variant=PeVariant.LEARNED))
        pages = np.zeros((26, DIM), dtype=np.float32)
        with pytest.raises(LengthError):
            model.order(pages)

    def test_learned_pe_table_has_max_len_rows(self):
        model = build_model(tiny_config(Arch.SEQ2SEQ, pe_variant=PeVariant.LEARNED, max_len=30))
        assert model.params["pe.table"].shape == (30, 16)

    def test_no_pe_variant_has_no_table(self):
        model = build_model(tiny_config(Arch.SEQ2SEQ, pe_variant=PeVariant.NONE))
        assert "pe.table" not in model.params

    def test_pe_none_logits_permutation_equivariant(self):
        model = build_model(tiny_config(Arch.SEQ2SEQ, pe_variant=PeVariant.NONE), dtype=np.float64)
        rng = np.random.default_rng(5)
        pages = rng.normal(size=(4, DIM)).astype(np.float64)

        def decode(x):
            # the greedy order plus the pointer logits of every step along it
            order = model.order(x)
            rank = np.empty(4, dtype=np.int64)
            rank[order] = np.arange(4)
            logits, _, _ = model.teacher_logits(Tensor(x[None]), rank[None])
            return order, logits.data[0]

        base_order, base_logits = decode(pages)
        for perm in itertools.permutations(range(4)):
            perm = np.asarray(perm)
            order_p, logits_p = decode(pages[perm])
            # the same pages get chosen in the same content order
            assert np.array_equal(perm[order_p], base_order)
            # pre-mask pointer logits permute with the slots at every step:
            # slot j of the permuted input holds original page perm[j]
            assert np.allclose(logits_p, base_logits[:, perm], atol=1e-9)

    def test_returns_encoder_attention_stack(self):
        model = build_model(tiny_config(Arch.SEQ2SEQ))
        pages = np.random.default_rng(6).normal(size=(5, DIM)).astype(np.float32)
        attn = model.encoder_attention(pages)
        assert attn.shape == (1, 2, 5, 5)
        assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-5)


class TestPairwise:
    def test_shapes_and_finiteness(self):
        model = build_model(tiny_config(Arch.PAIRWISE_RANK))
        rng = np.random.default_rng(7)
        for n in (2, 7, 25):
            s = score_matrix(model, rng.normal(size=(n, DIM)).astype(np.float32))
            assert s.shape == (n, n)
            off = s[~np.eye(n, dtype=bool)]
            assert np.isfinite(off).all()

    @pytest.mark.parametrize("n", [3, 4])
    def test_encoder_and_scorer_equivariance(self, n):
        model = build_model(tiny_config(Arch.PAIRWISE_RANK), dtype=np.float64)
        pages = np.random.default_rng(8).normal(size=(n, DIM)).astype(np.float64)
        base = score_matrix(model, pages)
        for perm in itertools.permutations(range(n)):
            perm = np.asarray(perm)
            permuted = score_matrix(model, pages[perm])
            # s_perm[a, b] scores pages (perm[a], perm[b])
            assert np.allclose(permuted, base[np.ix_(perm, perm)], atol=1e-9)

    def test_identical_pages_give_antisymmetric_differences(self):
        model = build_model(tiny_config(Arch.PAIRWISE_RANK), dtype=np.float64)
        page = np.random.default_rng(9).normal(size=(1, DIM)).astype(np.float64)
        pages = np.vstack([page, page, np.random.default_rng(10).normal(size=(1, DIM))]).astype(np.float64)
        s = score_matrix(model, pages)
        # pages 0 and 1 are identical: d_02 = d_12, so rows/cols agree
        assert s[0, 2] == pytest.approx(s[1, 2], abs=1e-9)
        assert s[2, 0] == pytest.approx(s[2, 1], abs=1e-9)


class TestAggregateScores:
    def test_two_page_hand_example(self):
        scores = PairwiseScores(n=2, s=np.array([[0.0, 1.0], [-1.0, 0.0]]))
        position, ordering = aggregate_scores(scores)
        assert position.tolist() == [-1.0, 1.0]
        assert ordering.tolist() == [0, 1]

    @pytest.mark.parametrize("n", range(2, 26))
    def test_consistent_matrix_recovers_truth(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            truth = rng.permutation(n)
            s = np.where(truth[None, :] > truth[:, None], 1.0, -1.0)
            _, ordering = aggregate_scores(PairwiseScores(n=n, s=s))
            assert np.array_equal(truth[ordering], np.arange(n))

    def test_all_zero_matrix_falls_back_to_slot_order(self):
        _, ordering = aggregate_scores(PairwiseScores(n=4, s=np.zeros((4, 4))))
        assert ordering.tolist() == [0, 1, 2, 3]


class TestCheckpoints:
    def test_round_trip_preserves_inference(self, tmp_path):
        model = build_model(tiny_config(Arch.PAIRWISE_RANK))
        pages = np.random.default_rng(11).normal(size=(6, DIM)).astype(np.float32)
        before = model.order(pages)
        scores_before = score_matrix(model, pages)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        assert np.array_equal(restored.order(pages), before)
        assert np.array_equal(score_matrix(restored, pages), scores_before)

    def test_parameters_bit_identical(self, tmp_path):
        model = build_model(tiny_config(Arch.POINTER_LSTM))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        for (na, a), (nb, b) in zip(model.params.items(), restored.params.items()):
            assert na == nb
            assert np.array_equal(a.data, b.data)

    def test_corrupted_byte_fails_digest(self, tmp_path):
        model = build_model(tiny_config(Arch.BILSTM_POS))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointDigestError):
            load_checkpoint(path)

    def test_version_mismatch_detected(self, tmp_path):
        import hashlib

        model = build_model(tiny_config(Arch.BILSTM_POS))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = (99).to_bytes(2, "little")  # bump the version field
        body = bytes(blob[:-32])
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_a_refused_state_leaves_every_weight_unchanged(self):
        model = build_model(desk_config(Arch.POINTER_MLP, DIM))
        before = model.flat.copy()
        state = {name: np.zeros_like(arr) for name, arr in model.state_arrays().items()}
        state["update.b1"] = np.zeros(3, np.float32)  # the last parameter, in the wrong shape
        with pytest.raises(ConfigError, match="shape mismatch for update.b1"):
            model.load_state_arrays(state)
        assert model.flat.tobytes() == before.tobytes()

    def test_param_count_matches_checkpoint_contents(self, tmp_path):
        model = build_model(tiny_config(Arch.SEQ2SEQ))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        assert restored.param_count() == model.param_count()


class TestGraphNodeCounts:
    """Graph nodes one seq2seq forward records, written out so that a fused op cannot silently come apart."""

    @staticmethod
    def _count_nodes(monkeypatch) -> list[int]:
        calls = [0]
        record = Tensor._result

        def counted(data, parents, backward):
            calls[0] += 1
            return record(data, parents, backward)

        monkeypatch.setattr(Tensor, "_result", staticmethod(counted))
        return calls

    def test_teacher_logits(self, monkeypatch):
        model = build_model(tiny_config(Arch.SEQ2SEQ, layers=2))
        stack = np.random.default_rng(17).normal(size=(2, 5, DIM)).astype(np.float32)
        truth = np.stack([np.arange(5), np.arange(5)[::-1]])
        calls = self._count_nodes(monkeypatch)
        model.teacher_logits(Tensor(stack), truth)
        assert calls[0] == 78

    def test_pairwise_rank_loss(self, monkeypatch):
        # the input layer and each of the scorer's last three dense layers, ReLU included, are one node each; the
        # first scorer layer is two: the (batch, n, h) product and the pair_differences node with its bias and ReLU
        model = build_model(tiny_config(Arch.PAIRWISE_RANK, layers=2))
        stack = np.random.default_rng(19).normal(size=(2, 5, DIM)).astype(np.float32)
        truth = np.stack([np.arange(5), np.arange(5)[::-1]])
        calls = self._count_nodes(monkeypatch)
        model.loss(Tensor(stack), truth)
        assert calls[0] == 40

    @pytest.mark.parametrize("arch,nodes", [(Arch.BILSTM_POS, 13), (Arch.POINTER_LSTM, 22)], ids=["bilstm_pos", "pointer_lstm"])
    def test_recurrent_loss(self, arch, nodes, monkeypatch):
        # a bidirectional layer is three nodes: the input projection of each direction and one recurrence for both
        # (two per-direction recurrences and their concat before: 17 and 24 nodes); bilstm_pos has two such layers,
        # pointer_lstm one, and its decoder a projection and a recurrence
        model = build_model(tiny_config(arch, layers=2))
        stack = np.random.default_rng(20).normal(size=(2, 5, DIM)).astype(np.float32)
        truth = np.stack([np.arange(5), np.arange(5)[::-1]])
        calls = self._count_nodes(monkeypatch)
        model.loss(Tensor(stack), truth)
        assert calls[0] == nodes

    def test_cached_greedy_decoder_step(self, monkeypatch):
        import pageorder.models.seq2seq as seq2seq_mod

        model = build_model(tiny_config(Arch.SEQ2SEQ, layers=2))
        calls = self._count_nodes(monkeypatch)
        per_step = []

        def counting_decode(n, step):
            def counted_step(prev):
                before = calls[0]
                logits = step(prev)
                per_step.append(calls[0] - before)
                return logits

            return greedy_decode(n, counted_step)

        monkeypatch.setattr(seq2seq_mod, "greedy_decode", counting_decode)
        model.order_batch(np.random.default_rng(18).normal(size=(2, 5, DIM)).astype(np.float32))
        # the first step projects the memory's cross-attention keys and values; later steps
        # write their self-attention keys and values into the cache's buffers, which adds no node
        assert per_step == [47] + [42] * 4
