"""Outside-in layer tracing for the benchmark.

Spans are recorded only around calls into the package's public names.
Wrappers are installed for a traced pass by rebinding each name in the
module that calls it (or on the class that defines a method) and are
removed again afterwards, so untraced passes run the unmodified program.

A span holds its name, start, end, parent span and the run id of the
pass it belongs to. Spans stay in memory until the benchmark writes them
out at the end. A span's self time is its duration minus the part of its
interval that its direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter

ARCHS = ("bilstm_pos", "pointer_mlp", "pointer_lstm", "seq2seq", "pairwise_rank")
HEURISTICS = ("random", "greedy_nn", "tsp_nn")

# Per-layer metric -> (unit, the end-to-end metric it should move, workloads).
# Times and counts are per traced pass, except the two corpus set-up times,
# which are per set-up. Every metric is emitted on every workload; one that
# a workload does not exercise reads 0.
_TRAIN = ("train_mix", "bench_cli")
_ALL = ("train_mix", "decode_long", "bench_cli")
PER_LAYER: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "corpus.generate_s": ("s", "setup_s", _ALL),
    "corpus.save_s": ("s", "setup_s", ("bench_cli",)),
    "corpus.load_s": ("s", "pass_s", ("bench_cli",)),
    "numcore.backward_s": ("s", "pass_s", _TRAIN),
    "numcore.backward_calls": ("count", "pass_s", _TRAIN),
    "numcore.adam_s": ("s", "pass_s", _TRAIN),
    "numcore.adam_calls": ("count", "pass_s", _TRAIN),
    "numcore.clip_s": ("s", "pass_s", _TRAIN),
    "numcore.clip_rate": ("fraction", "none (behaviour guard)", _TRAIN),
    **{f"models.forward_s.{a}": ("s", "pass_s", _TRAIN) for a in ARCHS},
    **{f"models.order_s.{a}": ("s", "pass_s", _ALL) for a in ARCHS},
    **{f"models.order_calls.{a}": ("count", "pass_s", _ALL) for a in ARCHS},
    "models.decoder_rows_per_page": ("rows/page", "pass_s", ("decode_long", "train_mix")),
    "models.encoder_attention_s": ("s", "pass_s", ("bench_cli",)),
    **{f"training.fit_s.{a}": ("s", "pass_s", _TRAIN) for a in ARCHS},
    "training.evaluate_s": ("s", "pass_s", _ALL),
    "training.step_self_s": ("s", "pass_s", _TRAIN),
    "training.write_log_s": ("s", "pass_s", ("bench_cli",)),
    **{f"heuristics.order_s.{h}": ("s", "pass_s", ("bench_cli",)) for h in HEURISTICS},
    "metrics.mean_tau_s": ("s", "pass_s", _ALL),
    "metrics.attention_locality_s": ("s", "pass_s", ("bench_cli",)),
    "bench.run_benchmark_s": ("s", "pass_s", ("bench_cli",)),
    "bench.report_s": ("s", "pass_s", ("bench_cli",)),
    "bench.figures_s": ("s", "pass_s", ("bench_cli",)),
    "cli.self_s": ("s", "pass_s", ("bench_cli",)),
    "tracing_overhead_s": ("s", "none (cost of tracing itself)", _ALL),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    """In-memory span recorder with counters; ``enabled`` gates recording."""

    def __init__(self) -> None:
        self.enabled = False
        self.run_id = ""
        self.spans: list[Span] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append(Span(name, perf_counter(), 0.0, self._open[-1] if self._open else None, self.run_id))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    def records(self) -> list[dict]:
        return [{"id": i, **asdict(s)} for i, s in enumerate(self.spans)]


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    result = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append((s.end - s.start) - covered)
    return result


def _wrap(tracer: Tracer, name, fn):
    """``name`` is a span name, or a callable mapping the call's arguments to one."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name(*args, **kwargs) if callable(name) else name):
            return fn(*args, **kwargs)

    return wrapper


class Instrumentation:
    """Rebinds public names to span-recording wrappers; ``remove`` restores them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span(self, owner, attr: str, name) -> None:
        self._rebind(owner, attr, _wrap(self.tracer, name, owner.__dict__[attr]))

    def install(self) -> None:
        import pageorder.bench.run as bench_run
        import pageorder.cli as cli
        import pageorder.models.seq2seq as seq2seq_mod
        import pageorder.training.loop as loop
        from pageorder.models import (
            BilstmPositionModel,
            PairwiseRankModel,
            PointerLstmModel,
            PointerMlpModel,
            Seq2SeqModel,
        )
        from pageorder.numcore import Tensor, grad_enabled

        tracer = self.tracer
        self._span(Tensor, "backward", "numcore.backward")
        self._span(loop, "adam_step", "numcore.adam")
        clip = loop.clip_global_norm

        def traced_clip(grads, max_norm):
            with tracer.span("numcore.clip"):
                norm = clip(grads, max_norm)
            tracer.count("clip.steps")
            tracer.count("clip.fired", norm > max_norm)
            return norm

        self._rebind(loop, "clip_global_norm", traced_clip)

        def arch_of(model, *_, **__):
            return model.config.arch.value

        model_classes = (BilstmPositionModel, PointerMlpModel, PointerLstmModel, Seq2SeqModel, PairwiseRankModel)
        for cls in model_classes:
            order = cls.__dict__["order"]

            def traced_order(model, pages, *args, _order=order, **kwargs):
                arch = arch_of(model)
                tracer.count(f"order_calls.{arch}")
                if arch == "seq2seq":
                    tracer.count("decoder.pages", len(pages))
                with tracer.span(f"models.order.{arch}"):
                    return _order(model, pages, *args, **kwargs)

            self._rebind(cls, "order", functools.wraps(order)(traced_order))
            for forward in ("teacher_logits", "score_matrix", "position_scores"):
                if forward in cls.__dict__:
                    fn = cls.__dict__[forward]

                    def traced_forward(model, *args, _fn=fn, **kwargs):
                        # no-grad calls are inference inside order(); only training forwards count here
                        if not grad_enabled():
                            return _fn(model, *args, **kwargs)
                        with tracer.span(f"models.forward.{arch_of(model)}"):
                            return _fn(model, *args, **kwargs)

                    self._rebind(cls, forward, functools.wraps(fn)(traced_forward))
            if "encoder_attention" in cls.__dict__:
                self._span(cls, "encoder_attention", "models.encoder_attention")

        run_decoder = seq2seq_mod.run_decoder

        def counted_run_decoder(model, prefix, x, *args, **kwargs):
            if not grad_enabled():
                rows = 1
                for size in x.shape[:-1]:
                    rows *= size
                tracer.count("decoder.rows", rows)
            return run_decoder(model, prefix, x, *args, **kwargs)

        self._rebind(seq2seq_mod, "run_decoder", counted_run_decoder)

        self._span(bench_run, "fit", lambda model, *a, **k: f"training.fit.{arch_of(model)}")
        self._span(loop, "evaluate", "training.evaluate")
        self._span(loop, "mean_tau", "metrics.mean_tau")
        self._span(bench_run, "mean_tau", "metrics.mean_tau")
        self._span(bench_run, "attention_locality", "metrics.attention_locality")
        self._span(bench_run, "order_random", "heuristics.order.random")
        self._span(bench_run, "order_greedy_nn", "heuristics.order.greedy_nn")
        self._span(bench_run, "order_tsp_nn", "heuristics.order.tsp_nn")
        self._span(cli, "load_corpus", "corpus.load")
        self._span(cli, "run_benchmark", "bench.run_benchmark")
        self._span(cli, "write_report_csv", "bench.report")
        self._span(cli, "render_report_text", "bench.report")
        self._span(cli, "emit_figures", "bench.figures")
        self._span(cli, "write_training_log", "training.write_log")

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def per_layer_metrics(tracer: Tracer, traced_runs: list[str], setup_runs: list[str], overhead_s: float) -> dict:
    """Per-layer values from the recorded spans and counters (see PER_LAYER)."""
    traced = set(traced_runs)
    setups = set(setup_runs)
    per_pass = 1.0 / max(len(traced), 1)
    per_setup = 1.0 / max(len(setups), 1)
    total: defaultdict[str, float] = defaultdict(float)
    self_total: defaultdict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        if span.run_id in traced or span.run_id in setups:
            total[span.name] += span.end - span.start
            self_total[".".join(span.name.split(".")[:2])] += own
    counts = tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {
        "corpus.generate_s": total["corpus.generate"] * per_setup,
        "corpus.save_s": total["corpus.save"] * per_setup,
        "corpus.load_s": total["corpus.load"] * per_pass,
        "numcore.backward_s": total["numcore.backward"] * per_pass,
        "numcore.backward_calls": sum(1 for s in tracer.spans if s.name == "numcore.backward" and s.run_id in traced)
        * per_pass,
        "numcore.adam_s": total["numcore.adam"] * per_pass,
        "numcore.adam_calls": sum(1 for s in tracer.spans if s.name == "numcore.adam" and s.run_id in traced)
        * per_pass,
        "numcore.clip_s": total["numcore.clip"] * per_pass,
        "numcore.clip_rate": ratio(counts["clip.fired"], counts["clip.steps"]),
        "models.decoder_rows_per_page": ratio(counts["decoder.rows"], counts["decoder.pages"]),
        "models.encoder_attention_s": total["models.encoder_attention"] * per_pass,
        "training.evaluate_s": total["training.evaluate"] * per_pass,
        "training.step_self_s": self_total["training.fit"] * per_pass,
        "training.write_log_s": total["training.write_log"] * per_pass,
        "metrics.mean_tau_s": total["metrics.mean_tau"] * per_pass,
        "metrics.attention_locality_s": total["metrics.attention_locality"] * per_pass,
        "bench.run_benchmark_s": total["bench.run_benchmark"] * per_pass,
        "bench.report_s": total["bench.report"] * per_pass,
        "bench.figures_s": total["bench.figures"] * per_pass,
        "cli.self_s": self_total["cli.main"] * per_pass,
        "tracing_overhead_s": overhead_s,
    }
    for arch in ARCHS:
        values[f"models.forward_s.{arch}"] = total[f"models.forward.{arch}"] * per_pass
        values[f"models.order_s.{arch}"] = total[f"models.order.{arch}"] * per_pass
        values[f"models.order_calls.{arch}"] = counts[f"order_calls.{arch}"] * per_pass
        values[f"training.fit_s.{arch}"] = total[f"training.fit.{arch}"] * per_pass
    for name in HEURISTICS:
        values[f"heuristics.order_s.{name}"] = total[f"heuristics.order.{name}"] * per_pass
    if set(values) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics out of step with PER_LAYER: {set(values) ^ set(PER_LAYER)}")
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
