"""Reference implementations that only the tests use.

Parameter-shift and finite-difference gradients, the latter of the one-row
cross-entropy, check the adjoint sweep and the input gradients; seeded
Haar-random states feed the dense-matrix simulator check and, through the
pair-fidelity histogram of an amplitude array, the closed-form Haar baseline
and the suite diversity figures; the one-row evaluation drives the
sequential fuzz reference loop, merge is the bitwise union of two coverage
trackers, and save_csv_rows and load_csv_rows are the csv-module writer and
row-by-row reader that the columnar save_csv and load_csv must agree with.
"""

import csv
from typing import Callable, Optional, Sequence

import numpy as np

from statecov.coverage import CoverageTracker
from statecov.diversity import DEFAULT_MAX_PAIRS, FidelityHistogram, _pair_fidelities
from statecov.gradients import GradientError
from statecov.qnn import LabeledDataset, QnnModel, encode_batch, forward_batch, softmax, z_sign_matrix
from statecov.sim import CONTROLLED_GATES, ROTATION_GATES, apply_circuit_batch


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


def _check_rotation_params(model: QnnModel) -> None:
    for idx, op in enumerate(model.circuit.gates):
        if op.param_slot is not None and op.kind not in ROTATION_GATES:
            raise GradientError(
                f"gate {idx} ({op.kind.value}) is trainable but not a rotation"
            )


def _scores_for_params(model, state, params):
    out = apply_circuit_batch(state[None, :], model.circuit, params)[0]
    probs = np.abs(out) ** 2
    return z_sign_matrix(model.readout_qubits, model.num_qubits) @ probs


# (shift, coefficient) pairs of a shift rule: grad_j = sum c (E(theta_j + s) - E(theta_j - s)).
# A Pauli rotation's generator has eigenvalues +-1/2, so two terms are exact;
# a controlled rotation's has {0, +-1/2}, so its expectation also has a
# frequency-1/2 part and needs four (Anselmetti et al. 2021).
TWO_TERM = ((np.pi / 2, 0.5),)
FOUR_TERM = (
    (np.pi / 2, (np.sqrt(2) + 1) / (4 * np.sqrt(2))),
    (3 * np.pi / 2, -(np.sqrt(2) - 1) / (4 * np.sqrt(2))),
)


def param_shift_grad(model: QnnModel, x: Sequence[float], observable: int) -> np.ndarray:
    """Exact gradient of the readout qubit's Z expectation w.r.t. all params,
    by the two-term shift rule on plain rotations and the four-term rule on
    controlled ones."""
    _check_rotation_params(model)
    if not (0 <= observable < model.num_classes):
        raise GradientError(f"observable index {observable} out of range")
    state = encode_batch(model.encoder, np.asarray(x), model.num_qubits)[0]
    params = model.params
    controlled = {op.param_slot for op in model.circuit.gates if op.kind in CONTROLLED_GATES}
    grad = np.zeros(params.shape[0])
    for j in range(params.shape[0]):
        for shift, coeff in FOUR_TERM if j in controlled else TWO_TERM:
            shifted = params.copy()
            shifted[j] += shift
            ep = _scores_for_params(model, state, shifted)[observable]
            shifted[j] = params[j] - shift
            em = _scores_for_params(model, state, shifted)[observable]
            grad[j] += coeff * (ep - em)
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


def pairwise_fidelity_hist(
    states: np.ndarray,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    seed: Optional[int] = None,
) -> FidelityHistogram:
    """Histogram of the pair fidelities of the rows of an (n, 2^q) amplitude array."""
    if len(states) < 2:
        raise ValueError("need at least 2 states for pairwise fidelities")
    amps = np.asarray(states, dtype=np.complex128)
    return FidelityHistogram.from_fidelities(_pair_fidelities(amps, max_pairs, seed))


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


def save_csv_rows(data: LabeledDataset, path) -> None:
    """csv.writer, one repr per feature and one row per call."""
    d = data.features.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(d)] + ["label"])
        for row, label in zip(data.features, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def load_csv_rows(path) -> LabeledDataset:
    """csv.reader plus Python's float and int on every cell, one row at a time."""
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
    bad = np.argwhere(~((feats >= 0.0) & (feats <= 1.0)))  # NaN fails both tests
    if bad.size:
        r, c = bad[0]
        raise ValueError(
            f"{path}:{linenos[r]}: column {header[c]}: feature {float(feats[r, c])!r} "
            "is not a number in [0, 1]"
        )
    return LabeledDataset(feats, np.asarray(labels))
