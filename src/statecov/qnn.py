"""Classifier assembly: data encoders, ansatz presets, readout, training.

A model is a data encoder feeding a fixed parameterized circuit; class c is
scored by the Z expectation of readout qubit c, computed as a marginal of
the single measured probability vector.

Inference runs in row blocks of about BLOCK_AMPS amplitudes (statevector
simulators bound memory the same way; Haener & Steiger 2017,
arXiv:1704.01127): forward_batch encodes and evolves one block of rows at a
time, so its only full-size array is the (n, 2^q) float64 probability
matrix it returns, and the coverage stages walk that matrix in blocks too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import files
from .files import InputError
from .sim import (
    CircuitSpec,
    Gate,
    GateOp,
    adjoint_sweep,
    apply_circuit_batch,
)

__all__ = [
    "EncoderSpec",
    "AnsatzSpec",
    "QnnModel",
    "LabeledDataset",
    "TrainConfig",
    "TrainingError",
    "entanglement_pairs",
    "build_ansatz_circuit",
    "build_model",
    "angle_factors",
    "encode_batch",
    "z_sign_matrix",
    "scores_from_probs",
    "forward_batch",
    "softmax",
    "cross_entropy_grad",
    "train",
    "save_model",
    "load_model",
]

# Work-buffer size, in matrix entries, of the row-blocked inference stages.
# A 64-row forward pass at q = 14, timed at 2^15 to 2^19, ran fastest from
# 2^16 to 2^18, and a 20 000-row pass at q = 4 slowed below 2^17.
BLOCK_AMPS = 1 << 17

# Widest model a model file or build_model may ask for: 16 MiB of amplitudes a row.
MAX_QUBITS = 20

ENCODER_KINDS = ("amplitude", "angle")
ANSATZ_PRESETS = ("layered", "entangling")
ENTANGLEMENTS = ("linear", "cyclic", "star", "full")
OPTIMIZERS = ("sgd", "adam")


class TrainingError(RuntimeError):
    """Raised when the optimizer diverges."""


@dataclass(frozen=True)
class EncoderSpec:
    kind: str  # "amplitude" | "angle"
    input_dim: int

    def __post_init__(self):
        if self.kind not in ENCODER_KINDS:
            raise InputError(f"unknown encoder kind {self.kind!r}")
        if self.input_dim < 1:
            raise InputError(f"input_dim must be >= 1, got {self.input_dim}")


@dataclass(frozen=True)
class AnsatzSpec:
    preset: str  # "layered" | "entangling"
    num_layers: int
    entanglement: str  # "linear" | "cyclic" | "star" | "full"

    def __post_init__(self):
        if self.preset not in ANSATZ_PRESETS:
            raise InputError(f"unknown ansatz preset {self.preset!r}")
        if self.entanglement not in ENTANGLEMENTS:
            raise InputError(f"unknown entanglement strategy {self.entanglement!r}")
        if self.num_layers < 1:
            raise InputError(f"num_layers must be >= 1, got {self.num_layers}")


def entanglement_pairs(strategy: str, q: int):
    """(control, target) pairs for one entangling sublayer."""
    if strategy == "linear":
        return [(i, i + 1) for i in range(q - 1)]
    if strategy == "cyclic":
        return [(i, (i + 1) % q) for i in range(q)] if q > 1 else []
    if strategy == "star":
        return [(0, i) for i in range(1, q)]
    if strategy == "full":
        return [(i, j) for i in range(q) for j in range(i + 1, q)]
    raise ValueError(f"unknown entanglement strategy {strategy!r}")


def build_ansatz_circuit(ansatz: AnsatzSpec, num_qubits: int) -> CircuitSpec:
    """Expand a preset into an explicit gate list.

    Both presets use 3 rotation parameters per qubit per layer followed by an
    unparameterized entangling sublayer, so num_params = 3 * q * layers.
    """
    q = num_qubits
    gates = []
    slot = 0
    if ansatz.preset == "layered":
        rot_kinds = (Gate.RX, Gate.RY, Gate.RZ)
        ent_kind = Gate.CNOT
    else:
        rot_kinds = (Gate.RZ, Gate.RY, Gate.RZ)
        ent_kind = Gate.CZ
    for _ in range(ansatz.num_layers):
        for qubit in range(q):
            for kind in rot_kinds:
                gates.append(GateOp(kind, target=qubit, param_slot=slot))
                slot += 1
        for ctrl, tgt in entanglement_pairs(ansatz.entanglement, q):
            gates.append(GateOp(ent_kind, target=tgt, control=ctrl))
    return CircuitSpec(num_qubits=q, gates=tuple(gates), num_params=slot)


@dataclass
class QnnModel:
    encoder: EncoderSpec
    ansatz: AnsatzSpec
    num_qubits: int
    circuit: CircuitSpec
    params: np.ndarray
    readout_qubits: tuple
    num_classes: int
    train_data_digest: Optional[str] = None

    def __post_init__(self):
        q, dim = self.num_qubits, self.encoder.input_dim
        _check_width(q)
        self.params = np.asarray(self.params, dtype=np.float64)
        if self.params.shape != (self.circuit.num_params,):
            raise InputError(f"params: expected {self.circuit.num_params} values, "
                             f"got {self.params.size}")
        bad = np.flatnonzero(~np.isfinite(self.params))
        if bad.size:
            raise InputError(f"params: entry {bad[0]} is not finite")
        if self.encoder.kind == "angle" and dim != q:
            raise InputError(f"encoder.input_dim {dim} must equal num_qubits {q} "
                             "for angle encoding")
        if self.encoder.kind == "amplitude" and dim > 2**q:
            raise InputError(f"encoder.input_dim {dim} exceeds 2^num_qubits = {2**q} "
                             "for amplitude encoding")
        if self.num_classes < 1:
            raise InputError(f"num_classes must be >= 1, got {self.num_classes}")
        if len(self.readout_qubits) != self.num_classes:
            raise InputError("one readout qubit per class is required")
        if len(set(self.readout_qubits)) != len(self.readout_qubits):
            raise InputError("readout qubits must be distinct")
        if not all(0 <= r < q for r in self.readout_qubits):
            raise InputError(f"readout_qubits {list(self.readout_qubits)} out of range "
                             f"for {q} qubits")

    def with_params(self, params: np.ndarray) -> "QnnModel":
        return replace(self, params=np.array(params, dtype=np.float64))


def _check_width(num_qubits: int) -> None:
    """Refuse a register outside [1, MAX_QUBITS], before any circuit of its width is built."""
    if num_qubits > MAX_QUBITS:
        raise InputError(f"num_qubits {num_qubits} is above MAX_QUBITS = {MAX_QUBITS}")
    if num_qubits < 1:
        raise InputError(f"num_qubits must be >= 1, got {num_qubits}")


def build_model(
    encoder: EncoderSpec,
    ansatz: AnsatzSpec,
    num_qubits: int,
    num_classes: int,
    seed: int = 0,
) -> QnnModel:
    """Assemble an untrained model with uniformly random initial angles; class c
    is read from qubit c (dataclasses.replace re-checks other readout_qubits)."""
    _check_width(num_qubits)
    if num_classes > num_qubits:
        raise InputError(f"num_classes {num_classes} is above num_qubits {num_qubits}")
    circuit = build_ansatz_circuit(ansatz, num_qubits)
    rng = np.random.default_rng(seed)
    params = rng.uniform(0.0, 2.0 * np.pi, size=circuit.num_params)
    return QnnModel(
        encoder, ansatz, num_qubits, circuit, params, tuple(range(num_classes)), num_classes
    )


@dataclass
class LabeledDataset:
    """Rows of [0,1] features with integer class labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels length must match number of feature rows")

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices) -> "LabeledDataset":
        return LabeledDataset(self.features[indices], self.labels[indices])

    def digest(self) -> str:
        import hashlib

        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.features).tobytes())
        h.update(np.ascontiguousarray(self.labels).tobytes())
        return h.hexdigest()[:16]


def angle_factors(xs: np.ndarray) -> np.ndarray:
    """The (n, q, 2) real factors (cos, sin)(pi x_i / 2) of (n, q) feature
    rows: qubit i of a row's angle-encoded product state is RY(pi x_i)|0>."""
    half = np.pi * np.asarray(xs, dtype=np.float64) / 2.0
    return np.stack([np.cos(half), np.sin(half)], axis=-1)


def _row_blocks(n: int, width: int) -> list:
    """Slices covering range(n) in blocks of BLOCK_AMPS // width rows (at
    least one), so a block of width-entry rows holds about BLOCK_AMPS."""
    step = max(1, BLOCK_AMPS // width)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _feature_matrix(encoder: EncoderSpec, xs) -> np.ndarray:
    """xs as a float (n, input_dim) matrix whose rows the encoder maps, or InputError saying why."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2:
        raise InputError(f"expected a 2-D (n, d) feature matrix, got shape {xs.shape}")
    if xs.shape[1] != encoder.input_dim:
        raise InputError(f"{xs.shape[1]} features per row, but the model's "
                         f"encoder.input_dim is {encoder.input_dim}")
    bad = np.flatnonzero(_unencodable(encoder, xs))
    if bad.size:
        raise InputError(f"data row {bad[0] + 1} is all zeros, which {encoder.kind} encoding "
                         "cannot map to a state")
    return xs


def _unencodable(encoder: EncoderSpec, xs: np.ndarray) -> np.ndarray:
    """Per row of the (n, input_dim) matrix xs, whether encode_batch refuses
    it: a row of zero norm under amplitude encoding."""
    if encoder.kind != "amplitude":
        return np.zeros(len(xs), dtype=bool)
    return np.linalg.norm(xs, axis=1) == 0


def encode_batch(encoder: EncoderSpec, xs: np.ndarray, q: int) -> np.ndarray:
    """Vectorized encoding of feature rows into a (n, 2^q) amplitude matrix."""
    xs = _feature_matrix(encoder, xs)
    if encoder.kind == "amplitude" and encoder.input_dim > 2**q:
        raise InputError("input_dim exceeds 2^q for amplitude encoding")
    if encoder.kind == "angle" and encoder.input_dim != q:
        raise InputError("angle encoding requires one feature per qubit")
    return _encode(encoder, xs, q)


def _encode(encoder: EncoderSpec, xs: np.ndarray, q: int) -> np.ndarray:
    """encode_batch of rows it has checked."""
    if encoder.kind == "amplitude":
        padded = np.zeros((xs.shape[0], 2**q))
        padded[:, : xs.shape[1]] = xs
        return (padded / np.linalg.norm(padded, axis=1)[:, None]).astype(np.complex128)
    # the Kronecker product of the factors, qubit 0 the most significant bit
    factors, states = angle_factors(xs), np.ones((len(xs), 1))
    for i in range(q):
        states = (states[:, :, None] * factors[:, None, i]).reshape(len(xs), 2 << i)
    return states.astype(np.complex128)


def z_sign_matrix(readout_qubits: Sequence[int], q: int) -> np.ndarray:
    """(num_classes, 2^q) matrix of Z eigenvalues per readout qubit.

    Row c maps a probability vector to <Z> of readout qubit c. Qubit 0 is
    the most significant bit of the basis index.
    """
    idx = np.arange(2**q)
    signs = np.empty((len(readout_qubits), 2**q))
    for c, qubit in enumerate(readout_qubits):
        bit = (idx >> (q - 1 - qubit)) & 1
        signs[c] = 1.0 - 2.0 * bit
    return signs


def scores_from_probs(probs: np.ndarray, readout_qubits: Sequence[int], q: int) -> np.ndarray:
    """Class scores of probability rows, (n, 2^q) -> (n, C) or (2^q,) -> (C,).

    Each row is reduced on its own (a stack of vector-matrix products), so a
    row's scores are the same bits whatever batch it comes in; one matrix
    product over the batch would round differently from a one-row call.
    """
    signs = z_sign_matrix(readout_qubits, q)
    return (np.asarray(probs, dtype=np.float64)[..., None, :] @ signs.T)[..., 0, :]


def forward_batch(
    model: QnnModel, xs: np.ndarray, params: Optional[np.ndarray] = None
) -> tuple:
    """Exact probabilities and class scores for a batch of inputs.

    Returns (probs (n, 2^q), scores (n, num_classes)). Each row block of
    _row_blocks(n, 2^q) is encoded, evolved and squared into probs on its
    own, so the work buffers hold one block; the circuit kernel gives a row
    the same bits in any batch, so blocking changes no output.
    """
    xs = _feature_matrix(model.encoder, xs)  # once, so an error names the row in xs
    q = model.num_qubits
    params = model.params if params is None else params
    probs = np.empty((xs.shape[0], 2**q))
    for rows in _row_blocks(xs.shape[0], 2**q):
        block = probs[rows]
        states = _encode(model.encoder, xs[rows], q)
        np.abs(apply_circuit_batch(states, model.circuit, params), out=block)
        np.square(block, out=block)
    return probs, scores_from_probs(probs, model.readout_qubits, q)


def softmax(scores: np.ndarray) -> np.ndarray:
    z = np.asarray(scores, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_grad(scores: np.ndarray, labels) -> np.ndarray:
    """Per-row gradient of the cross-entropy w.r.t. the scores: softmax minus one-hot."""
    resid = softmax(scores)
    resid[np.arange(resid.shape[0]), labels] -= 1.0
    return resid


@dataclass
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 0.1
    batch_size: Optional[int] = None  # None = full batch
    optimizer: str = "adam"  # "sgd" | "adam"
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise InputError(f"unknown optimizer {self.optimizer!r}")
        if self.epochs < 1:
            raise InputError(f"epochs must be >= 1, got {self.epochs}")
        if not (0 <= self.learning_rate < np.inf):
            raise InputError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size is not None and self.batch_size < 1:
            raise InputError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    """Refuse a label outside [0, num_classes), naming the first by its 1-based data row."""
    bad = np.flatnonzero((labels < 0) | (labels >= num_classes))
    if bad.size:
        raise InputError(f"label {labels[bad[0]]} of data row {bad[0] + 1} is outside "
                         f"[0, num_classes) with num_classes {num_classes}")


def _backprop(model, states, params, weigh) -> tuple:
    """One forward pass and one adjoint sweep over an encoded batch for
    sum_rc w[r, c] score_c(row r), with w = weigh(scores) read off the same
    pass. Returns (scores, d/dparams, the costate at each encoded row)."""
    signs = z_sign_matrix(model.readout_qubits, model.num_qubits)
    out = apply_circuit_batch(states, model.circuit, params)
    scores = scores_from_probs(np.abs(out) ** 2, model.readout_qubits, model.num_qubits)
    grad, lam0 = adjoint_sweep(out, (weigh(scores) @ signs) * out, model.circuit, params)
    return scores, grad, lam0


def train(model: QnnModel, data: LabeledDataset, config: TrainConfig) -> tuple:
    """Gradient-descent training of the circuit parameters.

    Returns (trained model, history dict with per-epoch loss and final
    accuracy). Deterministic for a fixed config seed.
    """
    _check_labels(data.labels, model.num_classes)
    if len(np.unique(data.labels)) < 2:  # so num_classes is 2 or more too
        raise InputError("training data must contain at least 2 classes")
    rng = np.random.default_rng(config.seed)
    states = encode_batch(model.encoder, data.features, model.num_qubits)
    labels = data.labels
    n = labels.shape[0]
    batch_size = config.batch_size or n
    params = model.params.copy()

    # Adam state
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    # a full batch's step passes over every row at the angles the previous
    # epoch ended on, so its scores, in row order, give that epoch's loss
    full, losses = batch_size >= n, []

    def log_loss(scores, epoch):
        loss = float(-np.log(np.maximum(softmax(scores)[np.arange(n), labels], 1e-300)).mean())
        if not np.isfinite(loss):
            raise TrainingError(f"loss diverged at epoch {epoch}")
        losses.append(loss)

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            scores, grad, _ = _backprop(
                model, states[idx], params,
                lambda scores: cross_entropy_grad(scores, labels[idx]) / idx.size,
            )
            if full and epoch:
                log_loss(scores[np.argsort(idx)], epoch - 1)
            if config.optimizer == "sgd":
                params = params - config.learning_rate * grad
            else:
                step += 1
                m = beta1 * m + (1 - beta1) * grad
                v = beta2 * v + (1 - beta2) * grad**2
                mhat = m / (1 - beta1**step)
                vhat = v / (1 - beta2**step)
                params = params - config.learning_rate * mhat / (np.sqrt(vhat) + eps)
        if not full or epoch == config.epochs - 1:
            _, scores = forward_batch(model, data.features, params)
            log_loss(scores, epoch)

    trained = model.with_params(params)
    trained.train_data_digest = data.digest()
    # the last loss pass ran at the trained parameters over the same rows
    accuracy = float((np.argmax(scores, axis=1) == labels).mean())
    return trained, {"loss": losses, "train_accuracy": accuracy}


def save_model(model: QnnModel, path) -> None:
    files.write(path, files.MODEL, model)


def load_model(path) -> QnnModel:
    """The model at path; FileFormatError names the file and the bad field."""

    def build(f):
        encoder = EncoderSpec(f["encoder.kind"], f["encoder.input_dim"])
        ansatz = AnsatzSpec(f["ansatz.preset"], f["ansatz.num_layers"], f["ansatz.entanglement"])
        # every field is checked on a gateless stand-in first: no huge circuit is built
        circuit = CircuitSpec(f["num_qubits"], (), 3 * f["num_qubits"] * ansatz.num_layers)
        model = QnnModel(encoder, ansatz, f["num_qubits"], circuit, f["params"],
                         tuple(f["readout_qubits"]), f["num_classes"], f["train_data_digest"])
        return replace(model, circuit=build_ansatz_circuit(ansatz, f["num_qubits"]))

    return files.read(path, files.MODEL, build)
