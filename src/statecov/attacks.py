"""Abnormal-input generation: uniform random perturbation plus FGSM and JSMA
driven by the simulator's input gradients. All outputs stay in [0, 1]^d."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gradients import input_grads
from .qnn import LabeledDataset, QnnModel, _check_labels, cross_entropy_grad, forward_batch

__all__ = [
    "AttackConfig",
    "random_perturb",
    "fgsm",
    "jsma",
    "attack_suite",
    "save_attack_suite",
]

ATTACK_KINDS = ("random", "fgsm", "jsma")
GRAD_RTOL = 1e-10


@dataclass(frozen=True)
class AttackConfig:
    kind: str = "fgsm"  # "random" | "fgsm" | "jsma"
    epsilon: float = 64.0 / 255.0  # L-inf budget for random / fgsm
    theta: float = 1.0  # jsma per-feature step
    gamma: float = 0.1  # jsma max fraction of features modified
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if not (0 <= self.epsilon < math.inf):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not (0 <= self.theta <= 1):
            raise ValueError(f"theta must be in [0, 1], got {self.theta}")
        if not (0 <= self.gamma <= 1):
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _perturb_rows(xs: np.ndarray, epsilon: float, seeds) -> np.ndarray:
    """Row i plus U(-eps, eps) noise drawn from seeds[i], clipped back to [0, 1]."""
    noise = np.array(
        [np.random.default_rng(s).uniform(-epsilon, epsilon, size=xs.shape[1]) for s in seeds]
    )
    return np.clip(xs + noise.reshape(xs.shape), 0.0, 1.0)


def _rounding_zeroed(grads: np.ndarray) -> np.ndarray:
    """grads with entries below GRAD_RTOL of their row's largest set to zero.

    A feature outside the readout qubits' light cone has an exact gradient
    of zero, which the sweep returns as rounding noise of either sign; it
    must move neither an FGSM step nor a JSMA choice.
    """
    scale = np.abs(grads).max(axis=1, keepdims=True)
    return np.where(np.abs(grads) > GRAD_RTOL * scale, grads, 0.0)


def _fgsm_rows(model: QnnModel, xs: np.ndarray, labels: np.ndarray, epsilon: float) -> np.ndarray:
    """One sign-gradient step per row: one forward pass and one adjoint sweep."""
    if epsilon == 0.0:
        return xs.copy()
    _, grads = input_grads(model, xs, lambda scores: cross_entropy_grad(scores, labels))
    return np.clip(xs + epsilon * np.sign(_rounding_zeroed(grads)), 0.0, 1.0)


def _jsma_rows(model: QnnModel, xs: np.ndarray, labels: np.ndarray, theta: float, gamma: float):
    """JSMA on every row at once; each round costs one forward pass and one
    adjoint sweep over the rows still being attacked."""
    adv = xs.copy()
    touched = np.zeros(adv.shape, dtype=bool)
    rows = np.arange(adv.shape[0])
    for _ in range(math.ceil(gamma * adv.shape[1])):
        if not rows.size:
            break
        idx, truth = np.arange(rows.size), labels[rows]

        def runner_up_margin(scores):
            # weights of score[runner-up class] - score[true class]
            order = np.argsort(scores, axis=1)[:, ::-1]
            target = np.where(order[:, 0] != truth, order[:, 0], order[:, 1])
            w = np.zeros_like(scores)
            w[idx, target] += 1.0
            w[idx, truth] -= 1.0
            return w

        scores, saliency = input_grads(model, adv[rows], runner_up_margin)
        saliency = _rounding_zeroed(saliency)
        saliency[touched[rows]] = -np.inf
        best = np.argmax(saliency, axis=1)
        live = (np.argmax(scores, axis=1) == truth) & (saliency[idx, best] > 0)
        rows, best = rows[live], best[live]
        adv[rows, best] = np.minimum(1.0, adv[rows, best] + theta)
        touched[rows, best] = True
    return adv


def _flipped(model: QnnModel, xs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per row, whether the model's argmax class differs from the label."""
    _, scores = forward_batch(model, xs)
    return np.argmax(scores, axis=1) != labels


def random_perturb(x, epsilon: float, seed: int) -> np.ndarray:
    """x + U(-eps, eps) noise per feature, clipped back to [0, 1]."""
    x = np.asarray(x, dtype=np.float64)
    return _perturb_rows(x.reshape(1, -1), epsilon, [seed]).reshape(x.shape)


def fgsm(model: QnnModel, x, label: int, epsilon: float):
    """Single-step sign-gradient attack; returns (x', success flag)."""
    labels = np.array([label])
    adv = _fgsm_rows(model, np.asarray(x, dtype=np.float64)[None, :], labels, epsilon)
    return adv[0], bool(_flipped(model, adv, labels)[0])


def jsma(model: QnnModel, x, label: int, theta: float = 1.0, gamma: float = 0.1):
    """Saliency-guided sparse attack; returns (x', success flag).

    Repeatedly bumps (by +theta, clipped to 1) the untouched feature whose
    gradient most favors the runner-up class over the true class, until the
    prediction flips or ceil(gamma * d) features have been modified.
    """
    labels = np.array([label])
    adv = _jsma_rows(model, np.asarray(x, dtype=np.float64)[None, :], labels, theta, gamma)
    return adv[0], bool(_flipped(model, adv, labels)[0])


def attack_suite(model: QnnModel, data: LabeledDataset, config: AttackConfig):
    """Attack every row of a dataset as one batch; returns (adversarial dataset, asr).

    Every label must lie in [0, num_classes). Row i of the random attack
    draws its noise from seed config.seed + i.
    """
    xs, labels = data.features, data.labels
    _check_labels(labels, model.num_classes)
    if config.kind == "random":
        adv = _perturb_rows(xs, config.epsilon, config.seed + np.arange(len(data)))
    elif config.kind == "fgsm":
        adv = _fgsm_rows(model, xs, labels, config.epsilon)
    else:
        adv = _jsma_rows(model, xs, labels, config.theta, config.gamma)
    asr = float(_flipped(model, adv, labels).mean()) if len(data) else 0.0
    return LabeledDataset(adv, labels.copy(), data.class_names), asr


def save_attack_suite(
    adv: LabeledDataset,
    config: AttackConfig,
    source_digest: str,
    csv_path,
    provenance_path,
    asr: Optional[float] = None,
) -> None:
    from .datasets import save_csv

    save_csv(adv, csv_path)
    doc = {
        "kind": config.kind,
        "epsilon": config.epsilon,
        "theta": config.theta,
        "gamma": config.gamma,
        "seed": config.seed,
        "source_digest": source_digest,
        "asr": asr,
    }
    with open(provenance_path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
