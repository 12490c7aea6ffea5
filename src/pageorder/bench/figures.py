"""Figure-data emission: plain CSV tables any plotting tool can consume.

Four files: grouped bars (tau by model and bucket), short-vs-long scatter
with a below-diagonal flag, the positional-encoding ablation with
improvement relative to the learned baseline, and per-epoch validation
tau series per encoding variant. All writes are atomic.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from ..corpus import LengthBucket
from ..fileio import atomic_write
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


def _write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write(path, buf.getvalue())


def emit_figures(report: EvalReport, training_logs: dict, out_dir: str | Path) -> list[Path]:
    """Write the four figure-data files; returns their paths.

    ``training_logs`` maps configuration name to its per-epoch log rows
    (``fit(...).history`` or ``read_training_log``).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / name for name in FIGURE_FILES]

    rows1 = []
    for row in report.rows:
        for b in BUCKETS:
            value = row.tau_by_bucket.get(b)
            if value is not None:
                rows1.append([row.name, b.label, repr(value)])
    _write_rows(paths[0], ["model", "bucket", "tau"], rows1)

    rows2 = []
    for row in report.rows:
        tau_short = row.tau_by_bucket.get(SHORT)
        tau_long = row.tau_by_bucket.get(LONG)
        if tau_short is None or tau_long is None:
            continue
        rows2.append([row.name, repr(tau_short), repr(tau_long), str(int(tau_long < tau_short))])
    _write_rows(paths[1], ["model", "tau_short", "tau_long", "below_diagonal"], rows2)

    rows3 = []
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
            rows3.append([name, b.label, repr(tau), repr(base), repr(relative)])
    _write_rows(paths[2], ["variant", "bucket", "tau", "tau_learned", "relative_improvement"], rows3)

    rows4 = []
    for name in PE_VARIANTS:
        for record in training_logs.get(name, []):
            tau = record["val_tau_overall"]
            # negative validation tau marks a worse-than-random epoch
            rows4.append([name, str(record["epoch"]), repr(tau), str(int(tau < 0.0))])
    _write_rows(paths[3], ["variant", "epoch", "val_tau", "worse_than_random"], rows4)
    return paths
