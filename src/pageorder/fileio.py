"""Whole-file writes that never leave a partial file behind."""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["atomic_write"]


def atomic_write(path: str | Path, data: str | bytes) -> None:
    """Write ``data`` (text as UTF-8, line ends as given) to a sibling ``.tmp`` file, then rename it over ``path``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    os.replace(tmp, path)
