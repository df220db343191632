"""Minimal CSV emission and ingestion.

Comma separators, LF line endings, mandatory header row, '.' decimal
point, and full round-trip precision: rows hold Python numbers (an array
is handed over row by row through `ndarray.tolist`), and str() of a
Python float is its shortest round-trip repr, so reading the file back
reproduces the values bit for bit. Rows are streamed: each is formatted
and handed to the file's buffer as it arrives, so writing holds no copy
of the table.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigError


def write_csv(path, header: list[str], rows) -> None:
    """Write the header line, then one line per row of the iterable."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Header names and the numeric body as a (rows, cols) float array."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise ConfigError(f"{path}: empty CSV")
    header = [h.strip() for h in lines[0].split(",")]
    body = []
    for i, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ConfigError(f"{path}: row has {len(cells)} cells,"
                              f" header has {len(header)}", line_no=i)
        try:
            body.append([float(c) for c in cells])
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}", line_no=i) from None
    if not body:
        raise ConfigError(f"{path}: no data rows")
    return header, np.asarray(body)
