"""Benchmark report: per-model, per-bucket mean tau with reference columns.

Published reference results ride along as side-by-side annotation
columns, never as assertions; the synthetic corpus is a different
dataset. Serialized report bytes are a pure function of the run
configuration (no timestamps inside the files).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..corpus import LengthBucket
from ..errors import DomainError
from ..fileio import read_csv, write_csv

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
    records = [["# corpus_digest", report.corpus_digest]]
    records += [[f"# seed_{key}", report.seeds[key]] for key in sorted(report.seeds)]
    records.append(CSV_COLUMNS)
    for row in report.rows:
        reference = REFERENCE_TABLE.get(row.name, ((None,) * len(BUCKETS), None))
        records.append(
            [row.name, *(row.tau_by_bucket.get(b) for b in BUCKETS), row.tau_overall, row.param_count]
            + [row.docs_by_bucket.get(b, 0) for b in BUCKETS]
            + [*reference[0], reference[1]]
        )
    write_csv(path, records)


def read_report_csv(path: str | Path) -> EvalReport:
    preamble, records = read_csv(path, CSV_COLUMNS)
    digest = ""
    seeds: dict = {}
    try:
        for key, value in preamble:
            if key == "# corpus_digest":
                digest = value
            elif key.startswith("# seed_"):
                seeds[key[len("# seed_") :]] = int(value)
    except ValueError as exc:  # a record without its one value, or a seed that is not an integer
        raise DomainError(f"{path}: malformed preamble record: {exc}") from None
    rows = [
        ReportRow(
            name=raw["model"],
            tau_by_bucket={b: float(raw[f"tau_{b.label}"]) for b in BUCKETS if raw[f"tau_{b.label}"]},
            tau_overall=float(raw["tau_overall"]),
            param_count=int(raw["param_count"]),
            docs_by_bucket={b: int(raw[f"docs_{b.label}"]) for b in BUCKETS},
        )
        for raw in records
    ]
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
