"""Experiment orchestration, reporting and figure-data emission."""

from .figures import FIGURE_FILES, emit_figures
from .report import (
    REFERENCE_TABLE,
    EvalReport,
    ReportRow,
    read_report_csv,
    render_report_text,
    write_report_csv,
)
from .run import (
    MENU,
    BenchResult,
    LocalityComparison,
    TransferResult,
    locality_experiment,
    run_benchmark,
    transfer_experiment,
)

__all__ = [
    "MENU",
    "BenchResult",
    "run_benchmark",
    "TransferResult",
    "transfer_experiment",
    "LocalityComparison",
    "locality_experiment",
    "EvalReport",
    "ReportRow",
    "REFERENCE_TABLE",
    "write_report_csv",
    "read_report_csv",
    "render_report_text",
    "emit_figures",
    "FIGURE_FILES",
]
