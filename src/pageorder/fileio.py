"""Whole-file writes that never leave a partial file behind, and the one CSV format the package writes."""

from __future__ import annotations

import csv
import io
import os
from pathlib import Path

from .errors import DomainError

__all__ = ["atomic_write", "write_csv", "read_csv"]


def atomic_write(path: str | Path, data: str | bytes) -> None:
    """Write ``data`` (text as UTF-8, line ends as given) to a sibling ``.tmp`` file, then rename it over ``path``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    os.replace(tmp, path)


def write_csv(path: str | Path, rows, line_end: str = "\n") -> None:
    """Write ``rows`` atomically, one record per row: ``None`` as an empty cell, a float as its ``repr``,
    anything else as its ``str``; a cell holding a comma, quote or line end is quoted."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator=line_end).writerows(rows)  # csv's own cell formatting is the one above
    atomic_write(path, buf.getvalue())


def read_csv(path: str | Path, columns) -> tuple[list[list[str]], list[dict[str, str]]]:
    """The ``# ``-prefixed records before the header, then each later non-empty record as a column -> cell dict.

    A header other than ``columns``, or a record of another width, is a ``DomainError``.
    """
    with Path(path).open("r", newline="", encoding="utf-8") as fh:
        records = [r for r in csv.reader(fh) if r]
    start = next((i for i, r in enumerate(records) if not r[0].startswith("# ")), len(records))
    header, body = records[start : start + 1], records[start + 1 :]
    if header != [list(columns)]:
        raise DomainError(f"{path}: unexpected columns {header}")
    if any(len(r) != len(columns) for r in body):
        raise DomainError(f"{path}: a record's width differs from the header's {len(columns)} columns")
    return records[:start], [dict(zip(columns, r)) for r in body]
