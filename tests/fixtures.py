"""The bundled 2-qubit worked example of the coverage criteria.

The two-qubit fixture pins down the criteria arithmetic: with k=5 cells the
reference input covers three major-region cells (KSC 15%), one lower corner
(SCC 12.5%) and one top-1 state (TSC 25%).
"""

from __future__ import annotations

import numpy as np

from statecov.coverage import CoverageConfig, StateProfile

__all__ = [
    "reference_two_qubit_profile",
    "reference_input_vector",
    "reference_coverage_config",
    "REFERENCE_EXPECTED",
]

REFERENCE_EXPECTED = {"ksc": 15.0, "scc": 12.5, "tsc": 25.0}


def reference_two_qubit_profile() -> StateProfile:
    return StateProfile(
        lower=np.array([0.2, 0.4, 0.1, 0.3]),
        upper=np.array([0.8, 0.9, 0.35, 0.8]),
        sigma=np.zeros(4),
        provenance="bundled-reference-fixture",
    )


def reference_input_vector() -> np.ndarray:
    return np.array([0.2, 0.3, 0.15, 0.35])


def reference_coverage_config() -> CoverageConfig:
    return CoverageConfig(k_cells=5, top_k=1, boundary_mode="raw")
