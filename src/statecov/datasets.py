"""Labeled datasets as CSV files: save_csv writes one, load_csv reads it.

CSV layout: header row f0..f{d-1},label; features already scaled to [0, 1].
The I/O is columnar: save_csv formats every value with repr and writes one
qnn._row_blocks block of rows per call, with CRLF line ends as Python's csv
module writes them, and load_csv parses all rows with one np.loadtxt call.
Files it cannot take that way are read again row by row, which accepts and
rejects exactly what csv.reader plus Python's float and int do.
"""

from __future__ import annotations

import csv
import warnings

import numpy as np

from .files import InputError
from .qnn import LabeledDataset, _row_blocks

__all__ = ["save_csv", "load_csv"]


def save_csv(data: LabeledDataset, path) -> None:
    """Write data in the layout above: one repr per value, CRLF line ends."""
    d = data.features.shape[1]
    with open(path, "w", newline="") as fh:
        fh.write(",".join([f"f{i}" for i in range(d)] + ["label"]) + "\r\n")
        for block in _row_blocks(len(data), d + 1):
            rows = data.features[block].tolist()
            for row, label in zip(rows, data.labels[block].tolist()):
                row.append(label)
            fh.write("".join([",".join(map(repr, row)) + "\r\n" for row in rows]))


def _outside(feats: np.ndarray) -> np.ndarray:
    return ~((feats >= 0.0) & (feats <= 1.0))  # NaN fails both tests


def load_csv(path) -> LabeledDataset:
    """Read a CSV in the layout above; malformed files raise InputError with
    the file, line and column at fault.

    The data rows are parsed in one np.loadtxt call. Should it fail, or a
    feature lie outside [0, 1], the file is read again row by row, which
    accepts every spelling Python's float and int accept (1_0, say) and
    words the error.
    """
    try:
        with open(path, newline="") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. numpy 1.x parses label "1.0" with a warning
            header = next(csv.reader(fh), None)
            if header and header[-1] == "label":
                dtype = [("f", np.float64, (len(header) - 1,)), ("label", np.int64)]
                rows = np.loadtxt(
                    fh, dtype, delimiter=",", quotechar='"', comments=None, ndmin=1
                )
                if not _outside(rows["f"]).any():
                    return LabeledDataset(
                        np.ascontiguousarray(rows["f"]), np.ascontiguousarray(rows["label"])
                    )
    except (ValueError, Warning, csv.Error):
        pass  # the row loop reads the file again and raises the worded error
    return _load_rows(path)


def _load_rows(path) -> LabeledDataset:
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[-1] != "label":
                raise InputError(f"{path}: expected header ending in 'label'")
            feats = []
            labels = []
            linenos = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise InputError(f"{path}:{lineno}: expected {len(header)} columns")
                try:
                    feats.append([float(v) for v in row[:-1]])
                    labels.append(int(row[-1]))
                except ValueError as exc:
                    raise InputError(f"{path}:{lineno}: {exc}") from exc
                if not -(2**63) <= labels[-1] < 2**63:
                    raise InputError(f"{path}:{lineno}: label {labels[-1]} does not fit in int64")
                linenos.append(lineno)
    except UnicodeDecodeError as exc:  # bytes that are not text in the locale's encoding
        raise InputError(f"{path}: {exc}") from None
    if not feats:
        raise InputError(f"{path}: no data rows")
    feats = np.asarray(feats)
    bad = np.argwhere(_outside(feats))
    if bad.size:
        r, c = bad[0]
        raise InputError(
            f"{path}:{linenos[r]}: column {header[c]}: feature {float(feats[r, c])!r} "
            "is not a number in [0, 1]"
        )
    return LabeledDataset(feats, np.asarray(labels))
