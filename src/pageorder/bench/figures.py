"""Figure-data emission: plain CSV tables any plotting tool can consume.

Four files: grouped bars (tau by model and bucket), short-vs-long scatter
with a below-diagonal flag, the positional-encoding ablation with
improvement relative to the learned baseline, and per-epoch validation
tau series per encoding variant. All writes are atomic.
"""

from __future__ import annotations

from pathlib import Path

from ..corpus import LengthBucket
from ..fileio import write_csv
from .report import BUCKETS, EvalReport

__all__ = ["emit_figures", "FIGURE_FILES"]

FIGURE_FILES = (
    "figure1_tau_by_method_and_length.csv",
    "figure2_short_vs_long.csv",
    "figure3_pe_ablation.csv",
    "figure4_training_stability.csv",
)

PE_VARIANTS = ("seq2seq_learned", "seq2seq_sinusoidal", "seq2seq_none")
SHORT, LONG = LengthBucket.B2_5, LengthBucket.B21_25


def emit_figures(report: EvalReport, training_logs: dict, out_dir: str | Path) -> list[Path]:
    """Write the four figure-data files; returns their paths.

    ``training_logs`` maps configuration name to its per-epoch log rows
    (``fit(...).history`` or ``read_training_log``).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / name for name in FIGURE_FILES]

    rows1 = [["model", "bucket", "tau"]]
    for row in report.rows:
        for b in BUCKETS:
            value = row.tau_by_bucket.get(b)
            if value is not None:
                rows1.append([row.name, b.label, value])

    rows2 = [["model", "tau_short", "tau_long", "below_diagonal"]]
    for row in report.rows:
        tau_short = row.tau_by_bucket.get(SHORT)
        tau_long = row.tau_by_bucket.get(LONG)
        if tau_short is None or tau_long is None:
            continue
        rows2.append([row.name, tau_short, tau_long, int(tau_long < tau_short)])

    rows3 = [["variant", "bucket", "tau", "tau_learned", "relative_improvement"]]
    learned = next((r for r in report.rows if r.name == "seq2seq_learned"), None)
    for name in PE_VARIANTS:
        row = next((r for r in report.rows if r.name == name), None)
        if row is None or learned is None:
            continue
        for b in BUCKETS:
            tau = row.tau_by_bucket.get(b)
            base = learned.tau_by_bucket.get(b)
            if tau is None or base is None:
                continue
            if name == "seq2seq_learned":
                relative = 0.0
            else:
                relative = (tau - base) / abs(base) if abs(base) > 1e-12 else 0.0
            rows3.append([name, b.label, tau, base, relative])

    rows4 = [["variant", "epoch", "val_tau", "worse_than_random"]]
    for name in PE_VARIANTS:
        for record in training_logs.get(name, []):
            tau = record["val_tau_overall"]
            # negative validation tau marks a worse-than-random epoch
            rows4.append([name, record["epoch"], tau, int(tau < 0.0)])
    for path, rows in zip(paths, (rows1, rows2, rows3, rows4)):
        write_csv(path, rows)
    return paths
