import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pageorder.corpus import (
    DEFAULT_LENGTH_WEIGHTS,
    CorpusConfig,
    CorpusFormatError,
    CorpusParseError,
    Document,
    LengthBucket,
    ShuffledInstance,
    SplitError,
    bucket_of,
    corpus_digest,
    generate_corpus,
    load_corpus,
    save_corpus,
    shuffle_instance,
    split_corpus,
)
from pageorder.errors import ConfigError, DomainError


class TestBucketOf:
    @pytest.mark.parametrize(
        "length,bucket",
        [
            (2, LengthBucket.B2_5),
            (5, LengthBucket.B2_5),
            (6, LengthBucket.B6_10),
            (7, LengthBucket.B6_10),
            (10, LengthBucket.B6_10),
            (11, LengthBucket.B11_15),
            (15, LengthBucket.B11_15),
            (16, LengthBucket.B16_20),
            (20, LengthBucket.B16_20),
            (21, LengthBucket.B21_25),
            (25, LengthBucket.B21_25),
        ],
    )
    def test_ranges(self, length, bucket):
        assert bucket_of(length) is bucket

    @pytest.mark.parametrize("length", [0, 1, 26, -3])
    def test_out_of_range(self, length):
        with pytest.raises(DomainError):
            bucket_of(length)

    @given(st.integers(2, 25))
    @settings(max_examples=24, deadline=None)
    def test_every_length_maps_to_exactly_one_bucket(self, length):
        hits = [b for b in LengthBucket if b.min_len <= length <= b.max_len]
        assert len(hits) == 1
        assert bucket_of(length) is hits[0]


class TestGenerator:
    def test_determinism(self):
        cfg = CorpusConfig(n_docs=20, seed=11)
        a = generate_corpus(cfg)
        b = generate_corpus(cfg)
        assert len(a) == len(b)
        for da, db in zip(a, b):
            assert da.doc_id == db.doc_id
            assert np.array_equal(da.pages, db.pages)

    def test_different_seeds_differ(self):
        a = generate_corpus(CorpusConfig(n_docs=5, seed=1))
        b = generate_corpus(CorpusConfig(n_docs=5, seed=2))
        assert not np.array_equal(a[0].pages, b[0].pages)

    def test_bucket_frequencies_match_weights(self):
        docs = generate_corpus(CorpusConfig(n_docs=10000, dim=8, chrono_dim=4, seed=3))
        counts = {b: 0 for b in LengthBucket}
        for d in docs:
            counts[bucket_of(d.n_pages)] += 1
        total = sum(DEFAULT_LENGTH_WEIGHTS)
        for bucket, weight in zip(LengthBucket, DEFAULT_LENGTH_WEIGHTS):
            expected = weight / total
            observed = counts[bucket] / len(docs)
            assert abs(observed - expected) < 0.03

    def test_invalid_weights_rejected(self):
        with pytest.raises(ConfigError):
            CorpusConfig(length_weights=(0, 0, 0, 0, 0))
        with pytest.raises(ConfigError):
            CorpusConfig(length_weights=(-1, 2, 2, 2, 2))

    def test_chrono_dim_must_fit(self):
        with pytest.raises(ConfigError):
            CorpusConfig(dim=8, chrono_dim=8)

    def test_lengths_in_range(self):
        docs = generate_corpus(CorpusConfig(n_docs=200, dim=16, chrono_dim=4, seed=4))
        assert all(2 <= d.n_pages <= 25 for d in docs)

    def test_digest_names_the_content_in_any_order(self):
        docs = generate_corpus(CorpusConfig(n_docs=12, dim=8, chrono_dim=2, seed=1))
        digest = corpus_digest(docs)
        assert len(digest) == 16 and int(digest, 16) >= 0
        assert corpus_digest(docs[::-1]) == digest
        assert corpus_digest(generate_corpus(CorpusConfig(n_docs=12, dim=8, chrono_dim=2, seed=2))) != digest

    def test_one_page_value_changes_the_digest(self):
        docs = generate_corpus(CorpusConfig(n_docs=12, dim=8, chrono_dim=2, seed=1))
        pages = docs[5].pages.copy()
        pages[1, 3] = np.nextafter(pages[1, 3], np.float32(np.inf))
        changed = docs[:5] + [Document(doc_id=docs[5].doc_id, pages=pages)] + docs[6:]
        assert corpus_digest(changed) != corpus_digest(docs)

    def test_digest_survives_save_and_load(self, tmp_path):
        docs = generate_corpus(CorpusConfig(n_docs=12, dim=8, chrono_dim=2, seed=1))
        save_corpus(docs, tmp_path / "c.jsonl")
        assert corpus_digest(load_corpus(tmp_path / "c.jsonl")) == corpus_digest(docs)

    def test_zero_chronology_strength_carries_no_order_signal(self):
        # no-signal control: with the chronology term off, nothing beats
        # tau ~ 0, neither heuristics nor a trained model
        from pageorder.heuristics import order_tsp_nn
        from pageorder.metrics import mean_tau
        from pageorder.models import Arch, desk_config, build_model
        from pageorder.training import TrainConfig, evaluate, fit

        cfg = CorpusConfig(n_docs=200, dim=24, chrono_dim=6, chrono_strength=0.0, seed=6)
        docs = generate_corpus(cfg)
        train, val, test = split_corpus(docs, seed=6)
        instances = [shuffle_instance(d, 50) for d in test]
        heuristic = mean_tau(instances, [order_tsp_nn(i.pages) for i in instances])
        assert abs(heuristic.overall) < 0.15
        model = build_model(desk_config(Arch.PAIRWISE_RANK, 24, seed=2))
        fit(model, train, val, TrainConfig(epochs=3, batch_size=8, seed=5))
        assert abs(evaluate(model, instances).overall) < 0.15


class TestSeparationProperty:
    """Generator tuning contract: heuristics fail while order stays learnable."""

    def test_500_doc_default_corpus_separates_heuristics_from_learning(self):
        from pageorder.heuristics import order_greedy_nn
        from pageorder.metrics import mean_tau
        from pageorder.models import Arch, desk_config, build_model
        from pageorder.numcore import RngStream
        from pageorder.training import TrainConfig, evaluate, fit

        docs = generate_corpus(CorpusConfig(n_docs=500, seed=0))
        instances = [shuffle_instance(d, 50) for d in docs]
        greedy = mean_tau(
            instances,
            [order_greedy_nn(i.pages, RngStream(50).split("start").split(i.doc_id)) for i in instances],
        )
        assert all(tau < 0.3 for tau in greedy.per_bucket.values())

        train, val, test = split_corpus(docs, seed=0)
        model = build_model(desk_config(Arch.PAIRWISE_RANK, 64, seed=3))
        fit(model, train, val, TrainConfig(epochs=10, batch_size=16, seed=9))
        result = evaluate(model, [shuffle_instance(d, 50) for d in test])
        assert result.per_bucket[LengthBucket.B2_5] > 0.8


class TestDocument:
    def test_pages_become_float32_with_shape_properties(self):
        doc = Document(doc_id="d", pages=np.arange(12, dtype=np.float64).reshape(4, 3))
        assert doc.pages.dtype == np.float32
        assert (doc.n_pages, doc.dim) == (4, 3)

    def test_pages_must_be_2d(self):
        with pytest.raises(DomainError, match="2-D"):
            Document(doc_id="d", pages=np.zeros(5, dtype=np.float32))

    @pytest.mark.parametrize("n", [1, 26])
    def test_page_count_outside_range_rejected(self, n):
        with pytest.raises(DomainError, match=f"has {n} pages"):
            Document(doc_id="d", pages=np.zeros((n, 3), dtype=np.float32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_embeddings_rejected(self, bad):
        pages = np.zeros((3, 2), dtype=np.float32)
        pages[1, 0] = bad
        with pytest.raises(DomainError, match="non-finite"):
            Document(doc_id="d", pages=pages)


class TestShuffle:
    def test_two_pages_both_arrangements_occur(self):
        doc = Document(doc_id="d", pages=np.arange(4, dtype=np.float32).reshape(2, 2))
        seen = set()
        for seed in range(32):
            inst = shuffle_instance(doc, seed)
            seen.add(tuple(inst.truth_rank.tolist()))
        assert seen == {(0, 1), (1, 0)}

    def test_restore_inverts_shuffle(self):
        rng = np.random.default_rng(0)
        doc = Document(doc_id="d", pages=rng.normal(size=(7, 5)).astype(np.float32))
        inst = shuffle_instance(doc, 123)
        # sorting the slots by true rank recovers the document's page order
        assert np.array_equal(inst.pages[np.argsort(inst.truth_rank, kind="stable")], doc.pages)

    def test_fixed_seed_reproducible(self):
        doc = Document(doc_id="d", pages=np.random.default_rng(1).normal(size=(9, 3)).astype(np.float32))
        a = shuffle_instance(doc, 5)
        b = shuffle_instance(doc, 5)
        assert np.array_equal(a.truth_rank, b.truth_rank)

    def test_truth_rank_validated(self):
        with pytest.raises(DomainError):
            ShuffledInstance(doc_id="x", pages=np.zeros((3, 2), dtype=np.float32), truth_rank=np.array([0, 0, 2]))


class TestSplit:
    def _docs(self, n):
        return [
            Document(doc_id=f"d{i}", pages=np.zeros((2, 4), dtype=np.float32)) for i in range(n)
        ]

    def test_exact_fractions(self):
        train, val, test = split_corpus(self._docs(100), seed=0)
        assert (len(train), len(val), len(test)) == (70, 15, 15)

    def test_remainder_goes_to_train(self):
        train, val, test = split_corpus(self._docs(101), seed=0)
        assert (len(train), len(val), len(test)) == (71, 15, 15)

    def test_partition_property(self):
        docs = self._docs(57)
        train, val, test = split_corpus(docs, seed=3)
        ids = [d.doc_id for d in train + val + test]
        assert sorted(ids) == sorted(d.doc_id for d in docs)
        assert len(set(ids)) == len(ids)

    def test_too_few_docs(self):
        with pytest.raises(SplitError):
            split_corpus(self._docs(2))

    def test_six_docs_would_leave_val_and_test_empty(self):
        with pytest.raises(SplitError, match="cannot split 6 documents three ways"):
            split_corpus(self._docs(6))
        train, val, test = split_corpus(self._docs(7))
        assert (len(train), len(val), len(test)) == (5, 1, 1)

    def test_seed_changes_assignment(self):
        docs = self._docs(40)
        a, _, _ = split_corpus(docs, seed=1)
        b, _, _ = split_corpus(docs, seed=2)
        assert [d.doc_id for d in a] != [d.doc_id for d in b]


class TestIO:
    def test_round_trip_bit_exact(self, tmp_path):
        docs = generate_corpus(CorpusConfig(n_docs=8, dim=16, chrono_dim=4, seed=9))
        path = tmp_path / "corpus.jsonl"
        save_corpus(docs, path)
        loaded = load_corpus(path)
        assert len(loaded) == len(docs)
        for a, b in zip(docs, loaded):
            assert a.doc_id == b.doc_id
            assert np.array_equal(a.pages, b.pages)

    def test_empty_file_is_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_corpus(path) == []

    def test_truncated_line_names_line(self, tmp_path):
        docs = generate_corpus(CorpusConfig(n_docs=2, dim=8, chrono_dim=2, seed=1))
        path = tmp_path / "broken.jsonl"
        save_corpus(docs, path)
        content = path.read_text().splitlines()
        content[1] = content[1][: len(content[1]) // 2]
        path.write_text("\n".join(content) + "\n")
        with pytest.raises(CorpusParseError, match="line 2"):
            load_corpus(path)

    def test_dimension_mismatch_across_docs(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        lines = [
            '{"doc_id":"a","dim":2,"pages":[[1.0,2.0],[3.0,4.0]]}',
            '{"doc_id":"b","dim":3,"pages":[[1.0,2.0,3.0],[4.0,5.0,6.0]]}',
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(path)

    def test_pages_must_match_declared_dim(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"doc_id":"a","dim":3,"pages":[[1.0,2.0],[3.0,4.0]]}\n')
        with pytest.raises(CorpusParseError):
            load_corpus(path)

    @pytest.mark.parametrize(
        "pages",
        [
            "[[1.0,2.0],[3.0]]",
            '[[1.0,2.0],[3.0,"x"]]',
            "[[1.0,2.0],[3.0,{}]]",
            '[["1.5",2.0],[3.0,4.0]]',
            "[[1.5,2.0],[true,4.0]]",
            "[[1.5,2.0],[false,4.0]]",
        ],
        ids=["ragged", "string", "object", "numeric_string", "true", "false"],
    )
    def test_malformed_pages_name_line(self, tmp_path, pages):
        path = tmp_path / "bad.jsonl"
        good = '{"doc_id":"a","dim":2,"pages":[[1.0,2.0],[3.0,4.0]]}'
        path.write_text(f'{good}\n{{"doc_id":"b","dim":2,"pages":{pages}}}\n')
        with pytest.raises(CorpusParseError, match="line 2: pages"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "record",
        [
            '{"doc_id":"b","dim":true,"pages":[[1.5],[3.0]]}',
            '{"doc_id":"b","dim":2.0,"pages":[[1.5,2.0],[3.0,4.0]]}',
            '{"doc_id":7,"dim":2,"pages":[[1.5,2.0],[3.0,4.0]]}',
        ],
        ids=["boolean_dim", "float_dim", "number_doc_id"],
    )
    def test_dim_must_be_an_integer_and_doc_id_a_string(self, tmp_path, record):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"doc_id":"a","dim":2,"pages":[[1.0,2.0],[3.0,4.0]]}\n' + record + "\n")
        with pytest.raises(CorpusParseError, match="line 2: (dim|doc_id) must be a JSON"):
            load_corpus(path)

    def test_interrupted_save_leaves_previous_file(self, tmp_path):
        docs = generate_corpus(CorpusConfig(n_docs=3, dim=8, chrono_dim=2, seed=1))
        path = tmp_path / "corpus.jsonl"
        save_corpus(docs, path)
        before = path.read_bytes()

        class Interrupted:
            doc_id, dim = "late", 8

            @property
            def pages(self):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            save_corpus(generate_corpus(CorpusConfig(n_docs=4, dim=8, chrono_dim=2, seed=2)) + [Interrupted()], path)
        assert path.read_bytes() == before
