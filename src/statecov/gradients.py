"""Gradients of circuit outputs.

One adjoint engine computes every production gradient: sim.adjoint_sweep
walks the compiled circuit backwards once after one forward pass, giving the
gate-angle gradient that qnn.train uses and the costate at the encoded input
that input_grads chains through the encoder into feature gradients.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .qnn import QnnModel, _backprop, encode_batch

__all__ = ["input_grads"]


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
    states = encode_batch(model.encoder, xs, model.num_qubits)
    scores, _, lam0 = _backprop(model, states, model.params, weigh)
    return scores, _pullback(model, xs, states, lam0)
