"""Reference implementations that only the tests use.

Parameter-shift and finite-difference gradients, the latter of the one-row
cross-entropy, check the adjoint sweep and the input gradients; seeded
Haar-random states feed the dense-matrix simulator check and, through the
pair-by-pair fidelities of an amplitude array and their histogram, the
closed-form Haar baseline and the suite diversity figures;
sample_frequencies is the one-row shot draw that row i of
collect_prob_vectors(..., shots, seed) must equal at seed + i; the one-row mutation is what each row of a fuzz.mutate batch
must equal, the one-row evaluation drives the sequential fuzz reference
loop, merge is the bitwise union of two coverage trackers, and
save_csv_rows and load_csv_rows are the csv-module writer and row-by-row
reader that the columnar save_csv and load_csv must agree with.
mad_bounds_whole is the MAD refinement over the whole sample matrix at once,
with the cut as a division by the MAD, which profile_from_samples' column
blocks and multiplied-out cut must reproduce.
"""

import csv
import statistics
from typing import Callable, Optional, Sequence

import numpy as np

from statecov.coverage import CoverageTracker
from statecov.diversity import DEFAULT_MAX_PAIRS, fidelity_densities
from statecov.files import InputError
from statecov.qnn import LabeledDataset, QnnModel, encode_batch, forward_batch, softmax, z_sign_matrix
from statecov.sim import apply_circuit_batch


def finite_diff_grad(f: Callable[[np.ndarray], float], x: Sequence[float], h: float) -> np.ndarray:
    """Central-difference gradient (f(x+h e_i) - f(x-h e_i)) / 2h."""
    if h <= 0:
        raise ValueError("step h must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        grad[i] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def cross_entropy(scores: np.ndarray, label: int) -> float:
    """Softmax cross-entropy of one score vector against an integer label."""
    p = softmax(scores)
    return float(-np.log(max(p[label], 1e-300)))


def _scores_for_params(model, state, params):
    out = apply_circuit_batch(state[None, :], model.circuit, params)[0]
    probs = np.abs(out) ** 2
    return z_sign_matrix(model.readout_qubits, model.num_qubits) @ probs


def param_shift_grad(model: QnnModel, x: Sequence[float], observable: int) -> np.ndarray:
    """Exact gradient of the readout qubit's Z expectation w.r.t. all params,
    by the two-term shift rule: a Pauli rotation's generator has eigenvalues
    +-1/2, so grad_j = (E(theta_j + pi/2) - E(theta_j - pi/2)) / 2."""
    if not (0 <= observable < model.num_classes):
        raise ValueError(f"observable index {observable} out of range")
    state = encode_batch(model.encoder, np.asarray(x)[None, :], model.num_qubits)[0]
    params = model.params
    grad = np.zeros(params.shape[0])
    for j in range(params.shape[0]):
        shifted = params.copy()
        shifted[j] += np.pi / 2
        ep = _scores_for_params(model, state, shifted)[observable]
        shifted[j] = params[j] - np.pi / 2
        em = _scores_for_params(model, state, shifted)[observable]
        grad[j] = 0.5 * (ep - em)
    return grad


def haar_random_state(num_qubits: int, rng_seed: int) -> np.ndarray:
    """The 2^q amplitudes of a state drawn uniformly from the Haar measure.

    Normalizing a vector of i.i.d. standard complex Gaussians is exactly
    Haar-uniform on the sphere of unit vectors.
    """
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    rng = np.random.default_rng(rng_seed)
    dim = 2**num_qubits
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def sample_frequencies(probs: np.ndarray, shots: int, rng_seed: int) -> np.ndarray:
    """Relative counts of one seeded multinomial draw of the given size from
    a probability row (normalized first); deterministic for a fixed seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = np.asarray(probs, dtype=np.float64)
    counts = np.random.default_rng(rng_seed).multinomial(shots, probs / probs.sum())
    return counts / shots


def pair_fidelities(states: np.ndarray, max_pairs: int, seed: Optional[int]) -> np.ndarray:
    """|<i|j>|^2 of the rows of an (n, 2^q) amplitude array, one pair at a time:
    every pair i < j in row-major order or, above max_pairs of them, those at
    the positions a seeded draw of max_pairs without replacement picks."""
    amps = np.asarray(states, dtype=np.complex128)
    pairs = [(i, j) for i in range(len(amps)) for j in range(i + 1, len(amps))]
    if len(pairs) > max_pairs:
        picks = np.random.default_rng(seed or 0).choice(len(pairs), size=max_pairs, replace=False)
        pairs = [pairs[k] for k in picks]
    return np.array([abs(np.vdot(amps[i], amps[j])) ** 2 for i, j in pairs])


def pairwise_fidelity_hist(
    states: np.ndarray,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Densities of the pair fidelities of the rows of an (n, 2^q) amplitude array."""
    if len(states) < 2:
        raise ValueError("need at least 2 states for pairwise fidelities")
    return fidelity_densities(pair_fidelities(states, max_pairs, seed))


def mutate_row(x: np.ndarray, ref: np.ndarray, rng: np.random.Generator, alpha: float) -> np.ndarray:
    """One mutant of the feature vector x, worked out on the one row with
    its operator's own branch: what fuzz.mutate must give each row."""
    op = int(rng.integers(4))
    if op == 0:
        out = x + rng.uniform(-0.05, 0.05, size=x.shape)
    elif op == 1:
        out = x + rng.uniform(-0.1, 0.1)
    elif op == 2:
        out = 0.5 + float(rng.uniform(0.8, 1.25)) * (x - 0.5)
    else:
        side = int(round(np.sqrt(x.size)))
        axis = int(rng.integers(2))
        step = 1 if rng.integers(2) else -1
        if side * side == x.size:
            img = x.reshape(side, side)
            shifted = np.zeros_like(img)
            if axis == 0 and step == 1:
                shifted[1:, :] = img[:-1, :]
            elif axis == 0:
                shifted[:-1, :] = img[1:, :]
            elif step == 1:
                shifted[:, 1:] = img[:, :-1]
            else:
                shifted[:, :-1] = img[:, 1:]
            out = shifted.reshape(-1)
        else:
            out = np.zeros_like(x)
            if step == 1:
                out[1:] = x[:-1]
            else:
                out[:-1] = x[1:]
    return np.clip(np.clip(out, ref - alpha, ref + alpha), 0.0, 1.0)


def _eval_one(model: QnnModel, features: np.ndarray):
    """Probabilities and prediction of one mutant, as a batch of one."""
    probs, scores = forward_batch(model, features[None, :])
    return probs[0], int(np.argmax(scores[0]))


def merge(tracker: CoverageTracker, other: CoverageTracker) -> None:
    """Fold other's bits into tracker (bitwise OR, associative and commutative)."""
    if other.cells.shape != tracker.cells.shape:
        raise ValueError("cannot merge trackers with different configurations")
    tracker.cells |= other.cells
    tracker.corners |= other.corners
    tracker.top_states |= other.top_states
    tracker.num_inputs += other.num_inputs


def mad_bounds_whole(samples: np.ndarray, confidence: float = 0.99) -> tuple:
    """(mad_lower, mad_upper) of profile_from_samples, from whole-matrix temporaries."""
    z_cut = statistics.NormalDist().inv_cdf(0.5 + confidence / 2.0)
    m = np.median(samples, axis=0)
    dev = np.abs(samples - m)
    mad = np.median(dev, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        keep = np.where(mad == 0.0, samples == m, 0.6745 * dev / mad <= z_cut)
    keep |= ~keep.any(axis=0) & (dev == dev.min(axis=0))  # no survivor: the nearest samples
    return (
        np.min(samples, axis=0, where=keep, initial=np.inf),
        np.max(samples, axis=0, where=keep, initial=-np.inf),
    )


def save_csv_rows(data: LabeledDataset, path) -> None:
    """csv.writer, one repr per feature and one row per call."""
    d = data.features.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(d)] + ["label"])
        for row, label in zip(data.features, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def load_csv_rows(path) -> LabeledDataset:
    """csv.reader plus Python's float and int on every cell, one row at a time;
    a malformed file raises InputError, as load_csv does."""
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
    if not feats:
        raise InputError(f"{path}: no data rows")
    feats = np.asarray(feats)
    bad = np.argwhere(~((feats >= 0.0) & (feats <= 1.0)))  # NaN fails both tests
    if bad.size:
        r, c = bad[0]
        raise InputError(
            f"{path}:{linenos[r]}: column {header[c]}: feature {float(feats[r, c])!r} "
            "is not a number in [0, 1]"
        )
    return LabeledDataset(feats, np.asarray(labels))
