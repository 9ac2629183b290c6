"""Dataset plumbing: desk-scale synthetic generators and CSV round-tripping.

CSV layout: header row f0..f{d-1},label; features already scaled to [0, 1].
The I/O is columnar: save_csv formats every value with repr and writes a
block of ROWS_PER_WRITE rows per call, with the CRLF line ends of Python's
csv module, and load_csv parses all data rows with one np.loadtxt call.
Files it cannot take that way are read again row by row, which accepts and
rejects exactly what csv.reader plus Python's float and int do.
"""

from __future__ import annotations

import csv
import warnings

import numpy as np

from .qnn import LabeledDataset

__all__ = ["gaussian_blobs", "synthetic_grid_digits", "save_csv", "load_csv"]

ROWS_PER_WRITE = 1024


def gaussian_blobs(
    num_classes: int = 2,
    samples_per_class: int = 50,
    num_features: int = 4,
    spread: float = 0.08,
    seed: int = 0,
) -> LabeledDataset:
    """Well-separated Gaussian clusters in [0, 1]^d, one per class.

    Class centers sit on distinct corners-ish anchor points so that a small
    classifier can separate them; spread controls overlap.
    """
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    rng = np.random.default_rng(seed)
    anchors = np.zeros((num_classes, num_features))
    anchors[0, :] = 0.25
    if num_classes > 1:
        anchors[1, :] = 0.75
    if num_classes > 2:
        anchors[2, : num_features // 2] = 0.75
        anchors[2, num_features // 2 :] = 0.25
    feats = []
    labels = []
    for c in range(num_classes):
        pts = anchors[c] + rng.normal(0.0, spread, size=(samples_per_class, num_features))
        feats.append(np.clip(pts, 0.0, 1.0))
        labels.append(np.full(samples_per_class, c))
    return LabeledDataset(np.concatenate(feats), np.concatenate(labels))


def synthetic_grid_digits(
    samples_per_class: int = 50, grid: int = 8, noise: float = 0.1, seed: int = 0
) -> LabeledDataset:
    """Two-class stripe-pattern images on a grid x grid canvas, flattened.

    Class 0 shows horizontal bands, class 1 vertical bands, plus pixel noise;
    a downsampled-digit-like stand-in for image data.
    """
    rng = np.random.default_rng(seed)
    base0 = np.zeros((grid, grid))
    base0[::2, :] = 0.9
    base1 = np.zeros((grid, grid))
    base1[:, ::2] = 0.9
    feats = []
    labels = []
    for c, base in enumerate((base0, base1)):
        imgs = base[None, :, :] + rng.normal(0.0, noise, size=(samples_per_class, grid, grid))
        feats.append(np.clip(imgs, 0.0, 1.0).reshape(samples_per_class, -1))
        labels.append(np.full(samples_per_class, c))
    return LabeledDataset(np.concatenate(feats), np.concatenate(labels))


def save_csv(data: LabeledDataset, path) -> None:
    """Write data in the layout above: one repr per value, CRLF line ends."""
    d = data.features.shape[1]
    with open(path, "w", newline="") as fh:
        fh.write(",".join([f"f{i}" for i in range(d)] + ["label"]) + "\r\n")
        # a block of rows per write keeps the formatted text small
        for start in range(0, len(data), ROWS_PER_WRITE):
            block = slice(start, start + ROWS_PER_WRITE)
            rows = data.features[block].tolist()
            for row, label in zip(rows, data.labels[block].tolist()):
                row.append(label)
            fh.write("".join([",".join(map(repr, row)) + "\r\n" for row in rows]))


def _outside(feats: np.ndarray) -> np.ndarray:
    return ~((feats >= 0.0) & (feats <= 1.0))  # NaN fails both tests


def load_csv(path) -> LabeledDataset:
    """Read a CSV in the layout above; malformed files raise ValueError with
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
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[-1] != "label":
            raise ValueError(f"{path}: expected header ending in 'label'")
        feats = []
        labels = []
        linenos = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} columns")
            try:
                feats.append([float(v) for v in row[:-1]])
                labels.append(int(row[-1]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if not -(2**63) <= labels[-1] < 2**63:
                raise ValueError(f"{path}:{lineno}: label {labels[-1]} does not fit in int64")
            linenos.append(lineno)
    if not feats:
        raise ValueError(f"{path}: no data rows")
    feats = np.asarray(feats)
    bad = np.argwhere(_outside(feats))
    if bad.size:
        r, c = bad[0]
        raise ValueError(
            f"{path}:{linenos[r]}: column {header[c]}: feature {float(feats[r, c])!r} "
            "is not a number in [0, 1]"
        )
    return LabeledDataset(feats, np.asarray(labels))
