"""Classifier assembly: data encoders, ansatz presets, readout, training.

A model is a data encoder feeding a fixed parameterized circuit; class c is
scored by the Z expectation of readout qubit c, computed as a marginal of
the single measured probability vector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .sim import (
    CircuitSpec,
    Gate,
    GateOp,
    adjoint_sweep,
    apply_circuit_batch,
    sample_frequencies,
)

__all__ = [
    "EncoderSpec",
    "AnsatzSpec",
    "QnnModel",
    "LabeledDataset",
    "TrainConfig",
    "EncodingError",
    "TrainingError",
    "ModelFormatError",
    "entanglement_pairs",
    "build_ansatz_circuit",
    "build_model",
    "encode_batch",
    "z_sign_matrix",
    "scores_from_probs",
    "forward",
    "forward_batch",
    "predict",
    "softmax",
    "cross_entropy_grad",
    "train",
    "save_model",
    "load_model",
]

MODEL_FORMAT_VERSION = 1

ENCODER_KINDS = ("amplitude", "angle")
ANSATZ_PRESETS = ("layered", "entangling")
ENTANGLEMENTS = ("linear", "cyclic", "star", "full")


class EncodingError(ValueError):
    """Raised when an input cannot be mapped to a quantum state."""


class TrainingError(RuntimeError):
    """Raised when the optimizer diverges."""


class ModelFormatError(ValueError):
    """Raised on malformed model files; the message names the bad field."""


@dataclass(frozen=True)
class EncoderSpec:
    kind: str  # "amplitude" | "angle"
    input_dim: int

    def __post_init__(self):
        if self.kind not in ENCODER_KINDS:
            raise ValueError(f"unknown encoder kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")


@dataclass(frozen=True)
class AnsatzSpec:
    preset: str  # "layered" | "entangling"
    num_layers: int
    entanglement: str  # "linear" | "cyclic" | "star" | "full"

    def __post_init__(self):
        if self.preset not in ANSATZ_PRESETS:
            raise ValueError(f"unknown ansatz preset {self.preset!r}")
        if self.entanglement not in ENTANGLEMENTS:
            raise ValueError(f"unknown entanglement strategy {self.entanglement!r}")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")


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
        self.params = np.asarray(self.params, dtype=np.float64)
        if self.params.shape != (self.circuit.num_params,):
            raise ValueError(
                f"params: expected {self.circuit.num_params} values, got {self.params.size}"
            )
        bad = np.flatnonzero(~np.isfinite(self.params))
        if bad.size:
            raise ValueError(f"params: entry {bad[0]} is not finite")
        dim = self.encoder.input_dim
        if self.encoder.kind == "angle" and dim != self.num_qubits:
            raise ValueError(
                f"encoder.input_dim {dim} must equal num_qubits {self.num_qubits} "
                "for angle encoding"
            )
        if self.encoder.kind == "amplitude" and dim > 2**self.num_qubits:
            raise ValueError(
                f"encoder.input_dim {dim} exceeds 2^num_qubits = {2**self.num_qubits} "
                "for amplitude encoding"
            )
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {self.num_classes}")
        if len(self.readout_qubits) != self.num_classes:
            raise ValueError("one readout qubit per class is required")
        if len(set(self.readout_qubits)) != len(self.readout_qubits):
            raise ValueError("readout qubits must be distinct")
        if not all(0 <= r < self.num_qubits for r in self.readout_qubits):
            raise ValueError(
                f"readout_qubits {list(self.readout_qubits)} out of range for "
                f"{self.num_qubits} qubits"
            )

    def with_params(self, params: np.ndarray) -> "QnnModel":
        return QnnModel(
            self.encoder,
            self.ansatz,
            self.num_qubits,
            self.circuit,
            np.array(params, dtype=np.float64),
            self.readout_qubits,
            self.num_classes,
            self.train_data_digest,
        )


def build_model(
    encoder: EncoderSpec,
    ansatz: AnsatzSpec,
    num_qubits: int,
    num_classes: int,
    readout_qubits: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> QnnModel:
    """Assemble an untrained model with uniformly random initial angles."""
    circuit = build_ansatz_circuit(ansatz, num_qubits)
    if readout_qubits is None:
        readout_qubits = tuple(range(num_classes))
    rng = np.random.default_rng(seed)
    params = rng.uniform(0.0, 2.0 * np.pi, size=circuit.num_params)
    return QnnModel(
        encoder, ansatz, num_qubits, circuit, params, tuple(readout_qubits), num_classes
    )


@dataclass
class LabeledDataset:
    """Rows of [0,1] features with integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    class_names: Optional[tuple] = None

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
        return LabeledDataset(
            self.features[indices], self.labels[indices], self.class_names
        )

    def digest(self) -> str:
        import hashlib

        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.features).tobytes())
        h.update(np.ascontiguousarray(self.labels).tobytes())
        return h.hexdigest()[:16]


def _angle_state_batch(angles: np.ndarray) -> np.ndarray:
    """(n, q) rotation angles -> (n, 2^q) product-state amplitudes."""
    n, q = angles.shape
    states = np.ones((n, 1))
    for i in range(q):
        c = np.cos(angles[:, i] / 2.0)
        s = np.sin(angles[:, i] / 2.0)
        pair = np.stack([c, s], axis=1)
        states = (states[:, :, None] * pair[:, None, :]).reshape(n, 2 << i)
    return states.astype(np.complex128)


def encode_batch(encoder: EncoderSpec, xs: np.ndarray, q: int) -> np.ndarray:
    """Vectorized encoding of feature rows into a (n, 2^q) amplitude matrix."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim == 1:
        xs = xs[None, :]
    if xs.shape[1] != encoder.input_dim:
        raise EncodingError(
            f"expected {encoder.input_dim} features, got {xs.shape[1]}"
        )
    dim = 2**q
    if encoder.kind == "amplitude":
        if encoder.input_dim > dim:
            raise EncodingError("input_dim exceeds 2^q for amplitude encoding")
        padded = np.zeros((xs.shape[0], dim))
        padded[:, : xs.shape[1]] = xs
        norms = np.linalg.norm(padded, axis=1)
        if np.any(norms == 0):
            raise EncodingError("amplitude encoding undefined for all-zero input")
        return (padded / norms[:, None]).astype(np.complex128)
    # angle encoding: one RY(pi * x_i) per qubit
    if encoder.input_dim != q:
        raise EncodingError("angle encoding requires one feature per qubit")
    return _angle_state_batch(np.pi * xs)


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

    Returns (probs (n, 2^q), scores (n, num_classes)).
    """
    states = encode_batch(model.encoder, xs, model.num_qubits)
    return _forward_states(model, states, model.params if params is None else params)


def _forward_states(model: QnnModel, states: np.ndarray, params: np.ndarray) -> tuple:
    """forward_batch on already encoded (n, 2^q) amplitude rows."""
    probs = np.abs(apply_circuit_batch(states, model.circuit, params)) ** 2
    return probs, scores_from_probs(probs, model.readout_qubits, model.num_qubits)


def forward(
    model: QnnModel,
    x: Sequence[float],
    shots: Optional[int] = None,
    seed: Optional[int] = None,
) -> tuple:
    """Measured distribution (2^q,) and per-class Z scores (C,) for one input.

    With shots set, the distribution (and hence the scores) comes from a
    seeded multinomial sample; otherwise it is exact.
    """
    probs = forward_batch(model, np.asarray(x)[None, :])[0][0]
    if shots is not None:
        probs = sample_frequencies(probs, shots, 0 if seed is None else seed)
    return probs, scores_from_probs(probs, model.readout_qubits, model.num_qubits)


def predict(model: QnnModel, x: Sequence[float]) -> int:
    """Argmax class; ties break toward the lower class index."""
    _, scores = forward(model, x)
    return int(np.argmax(scores))


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
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (0 <= self.learning_rate < np.inf):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    """Refuse a label outside [0, num_classes), naming the first such row."""
    bad = np.flatnonzero((labels < 0) | (labels >= num_classes))
    if bad.size:
        raise ValueError(
            f"label {labels[bad[0]]} of row {bad[0]} is outside [0, num_classes) "
            f"with num_classes {num_classes}"
        )


def _batch_loss(probs_scores, labels):
    _, scores = probs_scores
    p = softmax(scores)
    n = labels.shape[0]
    return float(-np.log(np.maximum(p[np.arange(n), labels], 1e-300)).mean())


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
    if model.num_classes < 2:
        raise ValueError(f"num_classes must be >= 2 to train, got {model.num_classes}")
    _check_labels(data.labels, model.num_classes)
    if len(np.unique(data.labels)) < 2:
        raise TrainingError("training data must contain at least 2 classes")
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

    losses = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            grad = _backprop(
                model, states[idx], params,
                lambda scores: cross_entropy_grad(scores, labels[idx]) / idx.size,
            )[1]
            if config.optimizer == "sgd":
                params = params - config.learning_rate * grad
            else:
                step += 1
                m = beta1 * m + (1 - beta1) * grad
                v = beta2 * v + (1 - beta2) * grad**2
                mhat = m / (1 - beta1**step)
                vhat = v / (1 - beta2**step)
                params = params - config.learning_rate * mhat / (np.sqrt(vhat) + eps)
        loss = _batch_loss(_forward_states(model, states, params), labels)
        if not np.isfinite(loss):
            raise TrainingError(f"loss diverged at epoch {epoch}")
        losses.append(loss)

    trained = model.with_params(params)
    trained.train_data_digest = data.digest()
    _, scores = _forward_states(trained, states, params)
    accuracy = float((np.argmax(scores, axis=1) == labels).mean())
    return trained, {"loss": losses, "train_accuracy": accuracy}


def save_model(model: QnnModel, path) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "encoder": {"kind": model.encoder.kind, "input_dim": model.encoder.input_dim},
        "ansatz": {
            "preset": model.ansatz.preset,
            "num_layers": model.ansatz.num_layers,
            "entanglement": model.ansatz.entanglement,
        },
        "num_qubits": model.num_qubits,
        "num_classes": model.num_classes,
        "readout_qubits": list(model.readout_qubits),
        "params": [float(p) for p in model.params],
        "train_data_digest": model.train_data_digest,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _require(doc: dict, path: str):
    node = doc
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            raise ModelFormatError(f"missing or malformed field: {path}")
        node = node[key]
    return node


def load_model(path) -> QnnModel:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from exc
    version = _require(doc, "format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format_version: {version}")
    encoder = EncoderSpec(
        kind=_require(doc, "encoder.kind"), input_dim=int(_require(doc, "encoder.input_dim"))
    )
    ansatz = AnsatzSpec(
        preset=_require(doc, "ansatz.preset"),
        num_layers=int(_require(doc, "ansatz.num_layers")),
        entanglement=_require(doc, "ansatz.entanglement"),
    )
    num_qubits = int(_require(doc, "num_qubits"))
    circuit = build_ansatz_circuit(ansatz, num_qubits)
    return QnnModel(
        encoder=encoder,
        ansatz=ansatz,
        num_qubits=num_qubits,
        circuit=circuit,
        params=_require(doc, "params"),
        readout_qubits=tuple(_require(doc, "readout_qubits")),
        num_classes=int(_require(doc, "num_classes")),
        train_data_digest=doc.get("train_data_digest"),
    )
