"""Gradients of circuit outputs.

One adjoint engine computes every production gradient: sim.adjoint_sweep
walks the compiled circuit backwards once after one forward pass, giving the
gate-angle gradient that qnn.train uses and the costate at the encoded input
that input_grads chains through the encoder into feature gradients.
param_shift_grad and finite_diff_grad are independent oracles for tests.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .qnn import QnnModel, _backprop, cross_entropy_grad, encode_batch, z_sign_matrix
from .sim import CONTROLLED_GATES, ROTATION_GATES, apply_circuit_batch

__all__ = [
    "GradientError",
    "finite_diff_grad",
    "param_shift_grad",
    "input_grads",
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


def _pullback(model: QnnModel, xs: np.ndarray, states: np.ndarray, lam0: np.ndarray) -> np.ndarray:
    """Chain the input costate lam0 = dL/d conj(phi) of each encoded row phi
    through the encoder, giving dL/dx per row."""
    n, d = xs.shape
    lam, phi = lam0.real, states.real  # phi is real, so only Re lam0 reaches x
    if model.encoder.kind == "angle":
        # phi is the product of RY(pi x_i)|0> = (cos(pi x_i/2), sin(pi x_i/2)), so
        # dphi/dx_i = (pi/2) A_i phi with A_i = [[0, -1], [1, 0]] on qubit i and
        # dL/dx_i = pi <lam0, A_i phi>.
        grads = np.empty((n, d))
        for i in range(d):
            l, p = (a.reshape(n, 1 << i, 2, 1 << (d - 1 - i)) for a in (lam, phi))
            grads[:, i] = (l[:, :, 1] * p[:, :, 0] - l[:, :, 0] * p[:, :, 1]).sum(axis=(1, 2))
        return np.pi * grads
    # phi = v / |v| with v the zero-padded input: dL/dv = 2 (Re lam0 - (phi . Re lam0) phi) / |v|,
    # which for a score is the Rayleigh-quotient gradient 2 (B v - E v) / |v|^2.
    norms = np.linalg.norm(xs, axis=1)[:, None]
    full = 2.0 * (lam - (phi * lam).sum(axis=1, keepdims=True) * phi) / norms
    return full[:, :d]


def input_grads(model: QnnModel, xs: np.ndarray, weigh: Callable) -> tuple:
    """Class scores of a batch of feature rows and, per row r, the gradient
    w.r.t. its raw features of sum_c w[r, c] score_c(x_r), where
    w = weigh(scores) is read off the same forward pass. One forward pass and
    one adjoint sweep serve the batch. Returns (scores (n, C), grads (n, d)).
    """
    xs = np.asarray(xs, dtype=np.float64)
    if model.encoder.kind == "amplitude" and np.any(~xs.any(axis=1)):
        raise GradientError("input gradient undefined for all-zero amplitude input")
    states = encode_batch(model.encoder, xs, model.num_qubits)
    scores, _, lam0 = _backprop(model, states, model.params, weigh)
    return scores, _pullback(model, xs, states, lam0)


def score_input_grads(model: QnnModel, x: Sequence[float]) -> np.ndarray:
    """(num_classes, d) Jacobian of class scores w.r.t. raw features."""
    c = model.num_classes
    xs = np.repeat(np.asarray(x, dtype=np.float64)[None, :], c, axis=0)
    return input_grads(model, xs, lambda scores: np.eye(c))[1]


def input_grad(model: QnnModel, x: Sequence[float], label: int) -> np.ndarray:
    """Gradient of the softmax cross-entropy loss w.r.t. raw input features."""
    xs = np.asarray(x, dtype=np.float64)[None, :]
    return input_grads(model, xs, lambda scores: cross_entropy_grad(scores, [label]))[1][0]
