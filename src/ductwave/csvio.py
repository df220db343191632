"""Minimal CSV emission and ingestion.

Comma separators, LF line endings, mandatory header row, '.' decimal
point, and full round-trip precision: rows hold Python numbers (an array
is handed over row by row through `ndarray.tolist`), and str() of a
Python float is its shortest round-trip repr, so reading the file back
reproduces the values bit for bit. Rows are streamed both ways: writing
formats _WRITE_BLOCK rows at a time with one %-format of the block, so
it holds no copy of the table, and reading packs one line at a time
onto one bytearray that the returned array views, so it holds the table
once.
"""

from __future__ import annotations

import struct
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ConfigError

_WRITE_BLOCK = 1024     # rows formatted by one %-format


def write_csv(path, header: list[str], rows) -> None:
    """Write the header line, then one line per row of the iterable, each
    cell as its str().

    A row with another number of cells than the header is refused
    (ValueError naming its index) before its block is written; the
    blocks before it are in the file.
    """
    width = len(header)
    line = ",".join(["%s"] * width) + "\n"
    rows = iter(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        written = 0
        while True:
            cells, count = [], 0
            for row in islice(rows, _WRITE_BLOCK):
                if len(row) != width:
                    raise ValueError(f"row {written + count} has {len(row)}"
                                     f" cells, header has {width}")
                cells.extend(row)
                count += 1
            if not count:
                return
            fh.write(line * count % tuple(cells))
            written += count


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Header names and the numeric body as a (rows, cols) float array.

    Blank lines are skipped; the line numbers in errors are those of the
    file, blank lines included. The body is parsed line by line, each
    row packed as native doubles onto one bytearray that the returned
    array views, so reading holds the table once and not the text or its
    rows of Python floats. (numpy already imports `struct`; the `array`
    module would load one more shared library into every run.)
    """
    path = Path(path)
    header = None
    values = bytearray()
    with open(path, encoding="utf-8") as fh:
        for i, ln in enumerate(fh, start=1):
            if not ln.strip():
                continue
            ln = ln.rstrip("\n")
            if header is None:
                header = [h.strip() for h in ln.split(",")]
                pack_row = struct.Struct(f"{len(header)}d").pack
                continue
            cells = ln.split(",")
            if len(cells) != len(header):
                raise ConfigError(f"{path}: row has {len(cells)} cells,"
                                  f" header has {len(header)}", line_no=i)
            try:
                values += pack_row(*map(float, cells))
            except ValueError as exc:
                raise ConfigError(f"{path}: {exc}", line_no=i) from None
    if header is None:
        raise ConfigError(f"{path}: empty CSV")
    if not values:
        raise ConfigError(f"{path}: no data rows")
    return header, np.frombuffer(values).reshape(-1, len(header))
