"""Readers for the package's JSON files and bare numeric-matrix CSV files.

A malformed file ends in a :class:`CdagError` that names the file and the
1-based position at fault, never in a parser's own exception.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .errors import CdagError


def read_json(path):
    """The parsed document; invalid JSON reports its line and column."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.loads(fh.read())
        except UnicodeDecodeError:
            raise CdagError(f"{path}: not UTF-8 text") from None
        except json.JSONDecodeError as exc:
            raise CdagError(f"{path}: invalid JSON at line {exc.lineno}, "
                            f"column {exc.colno}: {exc.msg}") from None


def read_matrix_csv(path) -> np.ndarray:
    """A matrix with one row per nonblank line.  Row numbers in errors are
    file lines, blank lines counted."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            rows = [(line, row) for line, row in enumerate(csv.reader(fh), 1) if row]
        except UnicodeDecodeError:
            raise CdagError(f"{path}: not UTF-8 text") from None
    width = len(rows[0][1]) if rows else 0
    matrix = np.empty((len(rows), width))
    for r, (line, row) in enumerate(rows):
        if len(row) != width:
            raise CdagError(f"{path}: row {line}: expected {width} fields as in "
                            f"row {rows[0][0]}, got {len(row)}")
        for c, cell in enumerate(row):
            try:
                matrix[r, c] = float(cell)
            except ValueError:
                raise CdagError(f"{path}: row {line}, column {c + 1}: "
                                f"{cell!r} is not a number") from None
    return matrix
