"""Self-tests of the benchmark's own arithmetic and correctness gate.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gate import Tally, check_greedy_order, check_models  # noqa: E402
from tracing import PER_LAYER, Instrumentation, Span, Tracer, per_layer_metrics, self_times  # noqa: E402

from pageorder.corpus import CorpusConfig, generate_corpus, shuffle_instance  # noqa: E402
from pageorder.models import Arch, build_model, desk_config  # noqa: E402
from pageorder.training import TrainConfig, evaluate, fit  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("a.child", 2.0, 3.0, 1, "r"),
        Span("b", 5.0, 6.5, 0, "r"),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        Span("root", 0.0, 10.0, None, "r"),
        Span("x", 2.0, 5.0, 0, "r"),
        Span("y", 4.0, 6.0, 0, "r"),
        Span("z", 9.0, 12.0, 0, "r"),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_tracer_records_parents_and_run_ids():
    tracer = Tracer()
    with tracer.span("off"):
        pass
    tracer.enabled = True
    tracer.run_id = "pass1"
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    assert [(s.name, s.parent, s.run_id) for s in tracer.spans] == [("outer", None, "pass1"), ("inner", 0, "pass1")]
    assert all(s.end >= s.start for s in tracer.spans)


class _NotAPermutation:
    config = desk_config(Arch.BILSTM_POS, 8)
    dtype = np.float32

    def order(self, pages):
        return np.zeros(len(pages), dtype=np.int64)


def test_injected_non_permutation_counts_as_failed():
    docs = generate_corpus(CorpusConfig(n_docs=3, dim=8, chrono_dim=2, seed=0))
    tally = Tally()
    check_models(tally, {Arch.BILSTM_POS: _NotAPermutation()}, [shuffle_instance(d, 0) for d in docs])
    assert (tally.attempted, tally.failed) == (3, 3)
    assert tally.failed_frac == 1.0


@pytest.mark.parametrize("arch", list(Arch))
def test_greedy_consistency_holds_for_every_architecture(arch):
    docs = generate_corpus(CorpusConfig(n_docs=6, dim=16, chrono_dim=4, seed=3))
    model = build_model(desk_config(arch, 16, seed=2))
    for doc in docs:
        check_greedy_order(model, shuffle_instance(doc, 5).pages)


def test_instrumentation_restores_every_name_and_traces_fit():
    import pageorder.training.loop as loop
    from pageorder.numcore import Tensor

    docs = generate_corpus(CorpusConfig(n_docs=12, dim=16, chrono_dim=4, seed=1))
    model = build_model(desk_config(Arch.SEQ2SEQ, 16, seed=1))
    before = (Tensor.backward, loop.adam_step, loop.evaluate, type(model).order)
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    instrumentation.install()
    tracer.enabled = True
    tracer.run_id = "pass1"
    try:
        with tracer.span("training.fit.seq2seq"):
            fit(model, docs[:8], docs[8:], TrainConfig(epochs=1, batch_size=4, seed=0))
        with tracer.span("training.evaluate"):
            evaluate(model, [shuffle_instance(d, 0) for d in docs[8:]])
    finally:
        tracer.enabled = False
        instrumentation.remove()
    assert (Tensor.backward, loop.adam_step, loop.evaluate, type(model).order) == before
    values = per_layer_metrics(tracer, ["pass1"], [], 0.0)
    assert set(values) == set(PER_LAYER)
    assert values["numcore.backward_calls"]["value"] == values["numcore.adam_calls"]["value"] > 0
    assert values["models.order_calls.seq2seq"]["value"] == 8
    pages = sum(d.n_pages for d in docs[8:]) * 2
    rows = sum(d.n_pages * (d.n_pages + 1) // 2 for d in docs[8:]) * 2
    assert values["models.decoder_rows_per_page"]["value"] == pytest.approx(rows / pages)
    fit_s = values["training.fit_s.seq2seq"]["value"]
    assert 0 < values["training.step_self_s"]["value"] < fit_s
