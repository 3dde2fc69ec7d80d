"""Readers for the package's JSON files, and the one codec for its numeric
CSV files: data (with a header row of column names), covariance and
adjacency files share one grammar.  Each nonblank line is a row as wide as
the header, or without one as the first row.  A cell may be quoted; a
number is what `float` accepts, in ASCII and without digit separators, so
`1_0` is refused.  Values are written with 17 significant digits and CRLF
line ends, so a written matrix reads back bit for bit.

A malformed file ends in a :class:`CdagError` that names the file and the
1-based position at fault (file lines, counting the header and blank
lines), never in a parser's own exception.
"""

from __future__ import annotations

import csv
import json
import warnings

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


def read_matrix_csv(path, *, header: bool = False):
    """``(names, matrix)``: the header row's fields (None if there is none)
    and the numbers below it.  With ``header`` a file may have no rows, and
    the caller words that error."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            names = next(csv.reader(fh), None) if header else None
            with warnings.catch_warnings():
                # a file without rows is an error, worded below or by the caller
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                matrix = np.loadtxt(fh, delimiter=",", ndmin=2, quotechar='"',
                                    comments=None)
            if names is not None and matrix.size and matrix.shape[1] != len(names):
                raise ValueError("rows do not match the header")
        except UnicodeDecodeError:
            raise CdagError(f"{path}: not UTF-8 text") from None
        except ValueError as exc:
            raise CdagError(_bad_row_message(path, header, exc)) from None
    if not header and not matrix.size:
        raise CdagError(f"{path}: no rows")
    return names, matrix


def _bad_row_message(path, header: bool, fallback) -> str:
    """Name the first row that is not as wide as the header (or, without
    one, the first nonblank row), or the first cell that is not a number;
    only called once parsing has failed."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        width, where = (len(next(reader)), "the header") if header else (None, None)
        for row in reader:
            if not row:
                continue
            if width is None:
                width, where = len(row), f"row {reader.line_num}"
            if len(row) != width:
                return (f"{path}: row {reader.line_num}: expected {width} "
                        f"fields as in {where}, got {len(row)}")
            for col, cell in enumerate(row, 1):
                if not _is_number(cell):
                    return (f"{path}: row {reader.line_num}, column {col}: "
                            f"{cell!r} is not a number")
    return f"{path}: {fallback}"


def _is_number(cell: str) -> bool:
    """ASCII, no digit separators, and what `float` accepts."""
    if not cell.isascii() or "_" in cell:
        return False
    try:
        float(cell)
    except ValueError:
        return False
    return True


def write_matrix_csv(matrix, path, header=None) -> None:
    """Write the ``header`` row, if given, then ``matrix``, so that
    `read_matrix_csv` reads back the same array."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header is not None:
            csv.writer(fh).writerow(header)
        np.savetxt(fh, matrix, fmt="%.17g", delimiter=",", newline="\r\n")
