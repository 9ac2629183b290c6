"""Gradients of circuit outputs: parameter-shift for gate angles, analytic
and shift-based paths for classical inputs, and a finite-difference oracle."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .qnn import QnnModel, encode_batch, softmax, z_sign_matrix
from .sim import ROTATION_GATES, adjoint_circuit, apply_circuit_batch

__all__ = [
    "GradientError",
    "finite_diff_grad",
    "param_shift_grad",
    "score_input_grads",
    "input_grad",
]

PARAM_FD_STEP = 1e-4
INPUT_FD_STEP = 1e-5


class GradientError(ValueError):
    """Raised when a requested gradient is undefined or unsupported."""


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


def param_shift_grad(model: QnnModel, x: Sequence[float], observable: int) -> np.ndarray:
    """Exact gradient of the readout qubit's Z expectation w.r.t. all params.

    Pauli-rotation generators have eigenvalues +-1/2, so the shift of pi/2
    gives grad_j = (E(theta_j + pi/2) - E(theta_j - pi/2)) / 2 exactly.
    """
    _check_rotation_params(model)
    if not (0 <= observable < model.num_classes):
        raise GradientError(f"observable index {observable} out of range")
    state = encode_batch(model.encoder, np.asarray(x), model.num_qubits)[0]
    params = model.params
    grad = np.empty(params.shape[0])
    for j in range(params.shape[0]):
        shifted = params.copy()
        shifted[j] += np.pi / 2.0
        ep = _scores_for_params(model, state, shifted)[observable]
        shifted[j] = params[j] - np.pi / 2.0
        em = _scores_for_params(model, state, shifted)[observable]
        grad[j] = (ep - em) / 2.0
    return grad


def _angle_score_input_grads(model: QnnModel, x: np.ndarray) -> np.ndarray:
    """Score gradients w.r.t. features via parameter shift on the encoding
    rotations, chained through the feature-to-angle scaling x -> pi x. The
    2d shifted encodings run through the circuit as one batch."""
    from .qnn import _angle_state_batch

    shifts = np.pi / 2.0 * np.eye(x.size)
    angles = np.concatenate([np.pi * x + shifts, np.pi * x - shifts])
    out = apply_circuit_batch(_angle_state_batch(angles), model.circuit, model.params)
    scores = z_sign_matrix(model.readout_qubits, model.num_qubits) @ (np.abs(out.T) ** 2)
    return np.pi * (scores[:, : x.size] - scores[:, x.size :]) / 2.0


def _amplitude_score_input_grads(model: QnnModel, x: np.ndarray) -> np.ndarray:
    """Analytic score gradients through the normalize-and-embed encoding.

    With v the zero-padded raw input, the score is the Rayleigh quotient
    E(v) = v^T B v / v^T v with B = Re(U^dag Z_c U); its gradient is
    2 (B v - E v) / ||v||^2. B v is computed with one forward and one
    adjoint circuit application per class.
    """
    dim = 2**model.num_qubits
    v = np.zeros(dim)
    v[: x.size] = x
    norm_sq = float(v @ v)
    if norm_sq == 0.0:
        raise GradientError("input gradient undefined for all-zero amplitude input")

    out = apply_circuit_batch(v[None, :].astype(np.complex128), model.circuit, model.params)[0]
    signs = z_sign_matrix(model.readout_qubits, model.num_qubits)
    adj, sign_mask = adjoint_circuit(model.circuit)
    adj_params = sign_mask * model.params

    grads = np.empty((model.num_classes, x.size))
    for c in range(model.num_classes):
        z_out = signs[c] * out
        a = apply_circuit_batch(z_out[None, :], adj, adj_params)[0]
        bv = np.real(a)
        e_c = float(v @ bv) / norm_sq
        full = 2.0 * (bv - e_c * v) / norm_sq
        grads[c] = full[: x.size]
    return grads


def score_input_grads(model: QnnModel, x: Sequence[float]) -> np.ndarray:
    """(num_classes, d) Jacobian of class scores w.r.t. raw features."""
    x = np.asarray(x, dtype=np.float64)
    if model.encoder.kind == "angle":
        return _angle_score_input_grads(model, x)
    return _amplitude_score_input_grads(model, x)


def input_grad(model: QnnModel, x: Sequence[float], label: int) -> np.ndarray:
    """Gradient of the softmax cross-entropy loss w.r.t. raw input features."""
    x = np.asarray(x, dtype=np.float64)
    from .qnn import forward

    _, scores = forward(model, x)
    resid = softmax(scores)
    resid[label] -= 1.0
    return resid @ score_input_grads(model, x)
