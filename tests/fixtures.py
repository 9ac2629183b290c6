"""Test data: the bundled 2-qubit worked example of the coverage criteria,
and the seeded synthetic datasets the tests train and evaluate on.

The two-qubit fixture pins down the criteria arithmetic: with k=5 cells the
reference input covers three major-region cells (KSC 15%), one lower corner
(SCC 12.5%) and one top-1 state (TSC 25%). gaussian_blobs and
synthetic_grid_digits draw their rows from numpy's default_rng(seed), so a
seeded test gets the same data on every run.
"""

from __future__ import annotations

import numpy as np

from statecov.coverage import CoverageConfig, StateProfile
from statecov.qnn import LabeledDataset

__all__ = [
    "reference_two_qubit_profile",
    "reference_input_vector",
    "reference_coverage_config",
    "REFERENCE_EXPECTED",
    "gaussian_blobs",
    "synthetic_grid_digits",
]

REFERENCE_EXPECTED = {"ksc": 15.0, "scc": 12.5, "tsc": 25.0}


def reference_two_qubit_profile() -> StateProfile:
    return StateProfile(
        lower=np.array([0.2, 0.4, 0.1, 0.3]),
        upper=np.array([0.8, 0.9, 0.35, 0.8]),
        sigma=np.zeros(4),
        provenance="bundled-reference-fixture",
    )


def reference_input_vector() -> np.ndarray:
    return np.array([0.2, 0.3, 0.15, 0.35])


def reference_coverage_config() -> CoverageConfig:
    return CoverageConfig(k_cells=5, top_k=1, boundary_mode="raw")


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
