"""Benchmark report: per-model, per-bucket mean tau with reference columns.

Published reference results ride along as side-by-side annotation
columns, never as assertions; the synthetic corpus is a different
dataset. Serialized report bytes are a pure function of the run
configuration (no timestamps inside the files).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

from ..corpus import LengthBucket
from ..errors import DomainError
from ..fileio import atomic_write

__all__ = ["ReportRow", "EvalReport", "REFERENCE_TABLE", "write_report_csv", "read_report_csv", "render_report_text"]

BUCKETS = list(LengthBucket)

# Reference results (test-set tau by document length) and parameter notes.
REFERENCE_TABLE: dict[str, tuple[tuple[float, ...], str]] = {
    "random": ((0.007, 0.002, -0.001, 0.003, 0.001), "0"),
    "greedy_nn": ((0.168, 0.091, 0.062, 0.045, 0.033), "0"),
    "tsp_nn": ((0.113, 0.147, 0.111, 0.093, 0.022), "0"),
    "bilstm_pos": ((0.859, 0.667, 0.503, 0.402, 0.318), "3.7M"),
    "pointer_mlp": ((0.847, 0.682, 0.551, 0.448, 0.371), "3.1M"),
    "pointer_lstm": ((0.889, 0.703, 0.572, 0.461, 0.362), "9.5M"),
    "seq2seq_learned": ((0.918, 0.787, 0.343, 0.094, 0.014), "45M"),
    "seq2seq_sinusoidal": ((0.893, 0.763, 0.396, 0.197, 0.061), "45M"),
    "seq2seq_none": ((0.877, 0.770, 0.369, 0.051, 0.026), "45M"),
    "pairwise": ((0.922, 0.860, 0.509, 0.300, 0.175), "531M"),
    "specialized_direct": ((0.953, 0.899, 0.722, 0.515, 0.380), "~2.6B"),
    "specialized_curriculum": ((0.915, 0.882, 0.662, 0.379, 0.233), "~2.6B"),
}


@dataclass
class ReportRow:
    name: str
    tau_by_bucket: dict
    tau_overall: float
    param_count: int
    docs_by_bucket: dict


@dataclass
class EvalReport:
    rows: list[ReportRow]
    corpus_digest: str
    seeds: dict


CSV_COLUMNS = (
    ["model"]
    + [f"tau_{b.label}" for b in BUCKETS]
    + ["tau_overall", "param_count"]
    + [f"docs_{b.label}" for b in BUCKETS]
    + [f"ref_tau_{b.label}" for b in BUCKETS]
    + ["ref_params"]
)


def write_report_csv(report: EvalReport, path: str | Path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["# corpus_digest", report.corpus_digest])
    for key in sorted(report.seeds):
        writer.writerow([f"# seed_{key}", report.seeds[key]])
    writer.writerow(CSV_COLUMNS)
    for row in report.rows:
        reference = REFERENCE_TABLE.get(row.name)
        record = [row.name]
        for b in BUCKETS:
            value = row.tau_by_bucket.get(b)
            record.append("" if value is None else repr(value))
        record.append(repr(row.tau_overall))
        record.append(str(row.param_count))
        for b in BUCKETS:
            record.append(str(row.docs_by_bucket.get(b, 0)))
        for i, b in enumerate(BUCKETS):
            record.append(repr(reference[0][i]) if reference else "")
        record.append(reference[1] if reference else "")
        writer.writerow(record)
    atomic_write(path, buf.getvalue())


def read_report_csv(path: str | Path) -> EvalReport:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    digest = ""
    seeds: dict = {}
    data_start = 0
    for i, line in enumerate(lines):
        if line.startswith("# corpus_digest"):
            digest = line.split(",", 1)[1]
        elif line.startswith("# seed_"):
            key, value = line.split(",", 1)
            seeds[key[len("# seed_") :]] = int(value)
        else:
            data_start = i
            break
    reader = csv.DictReader(io.StringIO("\n".join(lines[data_start:])))
    if reader.fieldnames != CSV_COLUMNS:
        raise DomainError(f"unexpected report columns: {reader.fieldnames}")
    rows = []
    for raw in reader:
        tau_by_bucket = {}
        docs_by_bucket = {}
        for b in BUCKETS:
            cell = raw[f"tau_{b.label}"]
            if cell:
                tau_by_bucket[b] = float(cell)
            docs_by_bucket[b] = int(raw[f"docs_{b.label}"])
        rows.append(
            ReportRow(
                name=raw["model"],
                tau_by_bucket=tau_by_bucket,
                tau_overall=float(raw["tau_overall"]),
                param_count=int(raw["param_count"]),
                docs_by_bucket=docs_by_bucket,
            )
        )
    return EvalReport(rows=rows, corpus_digest=digest, seeds=seeds)


def render_report_text(report: EvalReport) -> str:
    """Human-readable aligned rendering with reference values in brackets."""
    header = f"{'model':<24}" + "".join(f"{b.label:>8}" for b in BUCKETS) + f"{'overall':>9}{'params':>12}"
    lines = [f"corpus digest: {report.corpus_digest}", header, "-" * len(header)]
    for row in report.rows:
        cells = ""
        for b in BUCKETS:
            value = row.tau_by_bucket.get(b)
            cells += f"{value:>8.3f}" if value is not None else f"{'-':>8}"
        lines.append(f"{row.name:<24}{cells}{row.tau_overall:>9.3f}{row.param_count:>12,}")
        reference = REFERENCE_TABLE.get(row.name)
        if reference:
            ref = "".join(f"{v:>8.3f}" for v in reference[0])
            lines.append(f"{'  [reference]':<24}{ref}{'':>9}{reference[1]:>12}")
    return "\n".join(lines) + "\n"
