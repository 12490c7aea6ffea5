"""Correctness checks run outside the timed region.

Every check is one attempted operation; a check that raises or finds a
wrong output is one failed operation. The benchmark's ``failed_frac`` is
failed over attempted.
"""

from __future__ import annotations

import sys

import numpy as np

from pageorder.metrics import require_permutation
from pageorder.models import Arch, PairwiseScores, aggregate_scores
from pageorder.numcore import Tensor, no_grad

# Greedy decoding and teacher forcing compute the same pointer logits in a
# different operation order (step-by-step vs one batched pass), so a decoded
# pick may trail the teacher-forced argmax by float32 rounding. A gap beyond
# this share of the logit scale is a real disagreement.
LOGIT_TOL = 1e-4


class GateError(AssertionError):
    """An output failed a correctness check."""


class Tally:
    """Attempted and failed operation counts, with the first few error messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)
            print(f"benchmark failure: {message}", file=sys.stderr)

    def run(self, label: str, fn):
        """Call ``fn``; an exception counts as a failure and yields None."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - every failure is counted, none may stop the run
            self._fail(f"{label}: {exc!r}")
            return None

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self._fail(label)


def check_greedy_order(model, pages: np.ndarray) -> None:
    """The ordering is a permutation and matches the model's own scores.

    Pointer and seq2seq decoders: each decoded pick is the masked argmax of
    ``teacher_logits`` fed the decoded order, within ``LOGIT_TOL``.
    ``bilstm_pos``: the stable argsort of ``position_scores``.
    ``pairwise_rank``: ``aggregate_scores`` of ``score_matrix``.
    """
    n = pages.shape[0]
    order = require_permutation(model.order(pages), n)
    arch = model.config.arch
    with no_grad():
        x = Tensor(pages.reshape(1, n, -1).astype(model.dtype))
        if arch is Arch.BILSTM_POS:
            expected = np.argsort(model.position_scores(x).data[0], kind="stable")
            if not np.array_equal(order, expected):
                raise GateError(f"order {order.tolist()} != argsort of position scores {expected.tolist()}")
            return
        if arch is Arch.PAIRWISE_RANK:
            s, _ = model.score_matrix(x)
            _, expected = aggregate_scores(PairwiseScores(n=n, s=s.data[0]))
            if not np.array_equal(order, expected):
                raise GateError(f"order {order.tolist()} != aggregated score order {expected.tolist()}")
            return
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        logits, _, valid = model.teacher_logits(x, rank[None])
    logits = logits.data[0].astype(np.float64)
    for t in range(n):
        row = np.where(valid[0, t], logits[t], -np.inf)
        best = row.max()
        gap = best - row[order[t]]
        if gap > LOGIT_TOL * max(1.0, abs(best)):
            raise GateError(f"step {t}: picked slot {order[t]} trails the masked argmax {int(row.argmax())} by {gap:.3g}")


def check_models(tally: Tally, models: dict, instances) -> None:
    for arch, model in models.items():
        for inst in instances:
            tally.run(f"greedy consistency {arch.value} {inst.doc_id}", lambda: check_greedy_order(model, inst.pages))
