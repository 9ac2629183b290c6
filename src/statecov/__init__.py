"""Toolkit for training small quantum-circuit classifiers on a statevector
simulator and evaluating test suites against them with probability-region
coverage criteria, diversity analytics, adversarial inputs and
coverage-guided fuzzing."""

from .sim import CircuitSpec, Gate, GateOp, SimulationError
from .gradients import input_grads
from .qnn import (
    AnsatzSpec,
    EncoderSpec,
    LabeledDataset,
    QnnModel,
    TrainConfig,
    build_model,
    forward_batch,
    load_model,
    save_model,
    train,
)
from .coverage import (
    CoverageConfig,
    CoverageReport,
    CoverageTracker,
    StateProfile,
    coverage_suite,
    profile,
)
from .diversity import fidelity_densities, haar_densities, js_divergence, suite_diversity
from .attacks import AttackConfig, attack_suite
from .fuzz import FuzzConfig, FuzzOutcome, fuzz, mutate, random_test

__version__ = "0.1.0"
