"""Toolkit for training small quantum-circuit classifiers on a statevector
simulator and evaluating test suites against them with probability-region
coverage criteria, diversity analytics, adversarial inputs and
coverage-guided fuzzing."""

from .sim import (
    CircuitSpec,
    Gate,
    GateOp,
    ProbVector,
    SimulationError,
    Statevector,
    apply_circuit,
    exact_probabilities,
    fidelity,
    haar_random_state,
    sample_probabilities,
)
from .gradients import input_grad, score_input_grads
from .qnn import (
    AnsatzSpec,
    EncoderSpec,
    LabeledDataset,
    QnnModel,
    TrainConfig,
    build_model,
    encode,
    forward,
    load_model,
    predict,
    save_model,
    train,
)
from .coverage import (
    CoverageConfig,
    CoverageReport,
    CoverageTracker,
    StateProfile,
    coverage_suite,
    mad_refine,
    profile,
)
from .diversity import FidelityHistogram, js_divergence, suite_diversity
from .attacks import AttackConfig, attack_suite, fgsm, jsma, random_perturb
from .fuzz import FuzzConfig, FuzzOutcome, FuzzSeed, fuzz, mutate, random_test

__version__ = "0.1.0"
