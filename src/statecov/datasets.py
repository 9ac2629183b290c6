"""Dataset plumbing: desk-scale synthetic generators and CSV round-tripping.

CSV layout: header row f0..f{d-1},label; features already scaled to [0, 1].
"""

from __future__ import annotations

import csv
from typing import Optional

import numpy as np

from .qnn import LabeledDataset

__all__ = ["gaussian_blobs", "synthetic_grid_digits", "save_csv", "load_csv"]


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
    d = data.features.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(d)] + ["label"])
        for row, label in zip(data.features, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def load_csv(path) -> LabeledDataset:
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
            linenos.append(lineno)
    if not feats:
        raise ValueError(f"{path}: no data rows")
    feats = np.asarray(feats)
    bad = np.argwhere(~((feats >= 0.0) & (feats <= 1.0)))  # NaN fails both tests
    if bad.size:
        r, c = bad[0]
        raise ValueError(
            f"{path}:{linenos[r]}: column {header[c]}: feature {float(feats[r, c])!r} "
            "is not a number in [0, 1]"
        )
    return LabeledDataset(feats, np.asarray(labels))
