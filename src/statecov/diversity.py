"""Suite diversity: an encoded suite's pairwise-fidelity histogram against the
exact Haar histogram, density (d-1)(1-F)^(d-2) (Sim et al. 2019, arXiv:1905.10876),
by Jensen-Shannon divergence (log base 2, in [0, 1]), and the closest-neighbour
fidelity, read from the Gram matrix in row blocks of about 2^20 entries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .files import InputError
from .qnn import EncoderSpec, encode_batch

__all__ = [
    "NUM_BINS",
    "BIN_EDGES",
    "DiversitySummary",
    "fidelity_densities",
    "haar_densities",
    "js_divergence",
    "suite_diversity",
]

NUM_BINS = 50
BIN_EDGES = np.linspace(0.0, 1.0, NUM_BINS + 1)  # every histogram's bins on [0, 1]
BIN_EDGES.flags.writeable = False
DEFAULT_MAX_PAIRS = 100_000
GRAM_BLOCK_ENTRIES = 1 << 20


def fidelity_densities(fids) -> np.ndarray:
    """The share of the fidelities, clipped to [0, 1], in each bin of BIN_EDGES."""
    counts, _ = np.histogram(np.clip(np.asarray(fids, dtype=np.float64), 0.0, 1.0), BIN_EDGES)
    return counts / counts.sum()


def haar_densities(num_qubits: int) -> np.ndarray:
    """Exact Haar densities at d = 2^q: bin [a, b] holds (1-a)^(d-1) - (1-b)^(d-1)."""
    tail = (1.0 - BIN_EDGES) ** (2**num_qubits - 1)
    return tail[:-1] - tail[1:]


def _pair_fidelities(
    amps: np.ndarray, max_pairs: int, seed: Optional[int]
) -> np.ndarray:
    """|<i|j>|^2 over all i<j pairs, or a seeded uniform subsample of them."""
    n = amps.shape[0]
    total = n * (n - 1) // 2
    if total <= max_pairs:
        gram = amps @ amps.conj().T
        iu = np.triu_indices(n, k=1)
        return np.abs(gram[iu]) ** 2
    rng = np.random.default_rng(seed or 0)
    flat = rng.choice(total, size=max_pairs, replace=False)
    # decode the flat upper-triangle index into (i, j)
    i = (n - 2 - np.floor(np.sqrt(-8 * flat + 4 * n * (n - 1) - 7) / 2.0 - 0.5)).astype(int)
    j = (flat + i + 1 - n * (n - 1) // 2 + (n - i) * ((n - i) - 1) // 2).astype(int)
    return np.abs(np.sum(amps[i] * amps[j].conj(), axis=1)) ** 2


def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence between two density arrays over the same bins.

    Uses log base 2; bins where both densities vanish contribute nothing, and
    the result is bounded in [0, 1].
    """
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"density arrays of shapes {p.shape} and {q.shape} differ")

    def _kl(a: np.ndarray, b: np.ndarray) -> float:
        mask = a > 0
        return float(np.sum(a[mask] * np.log2(a[mask] / b[mask])))

    m = 0.5 * (p + q)
    return 0.5 * _kl(p, m) + 0.5 * _kl(q, m)


@dataclass(frozen=True)
class DiversitySummary:
    js_vs_haar: float
    mean_fidelity: float
    closest_neighbor_fidelity: float


def suite_diversity(
    encoder: EncoderSpec,
    num_qubits: int,
    suite_features: np.ndarray,
    seed: int = 0,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> tuple:
    """Diversity of an encoded suite against a Haar-random baseline.

    Returns (DiversitySummary, suite densities, exact Haar densities), both
    over BIN_EDGES. The closest-neighbor figure is the mean over states of
    the maximum fidelity to any other state in the suite.
    """
    feats = np.asarray(suite_features, dtype=np.float64)
    if feats.shape[0] < 2:
        raise InputError(f"diversity needs at least 2 rows, got {feats.shape[0]}")
    amps = encode_batch(encoder, feats, num_qubits)

    fids = _pair_fidelities(amps, max_pairs, seed)
    suite, haar = fidelity_densities(fids), haar_densities(num_qubits)

    step = max(1, GRAM_BLOCK_ENTRIES // len(amps))
    closest = []
    for start in range(0, len(amps), step):
        block = np.abs(amps[start : start + step].conj() @ amps.T) ** 2
        np.fill_diagonal(block[:, start:], -np.inf)  # each row's own entry
        closest.append(block.max(axis=1))

    summary = DiversitySummary(
        js_vs_haar=js_divergence(suite, haar),
        mean_fidelity=float(fids.mean()),
        closest_neighbor_fidelity=float(np.concatenate(closest).mean()),
    )
    return summary, suite, haar
