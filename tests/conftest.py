import numpy as np
import pytest

from statecov.qnn import AnsatzSpec, EncoderSpec, TrainConfig, build_model, train

from fixtures import gaussian_blobs, synthetic_grid_digits


@pytest.fixture(scope="session")
def toy4_train_data():
    return gaussian_blobs(num_classes=2, samples_per_class=50, num_features=4, spread=0.12, seed=1)


@pytest.fixture(scope="session")
def toy4_training(toy4_train_data):
    """(trained model, history) of the toy4 fixture model."""
    model = build_model(
        EncoderSpec("angle", 4), AnsatzSpec("layered", 2, "linear"), 4, 2, seed=0
    )
    return train(
        model, toy4_train_data, TrainConfig(epochs=40, learning_rate=0.1, optimizer="adam", seed=0)
    )


@pytest.fixture(scope="session")
def toy4_model(toy4_training):
    trained, history = toy4_training
    assert history["train_accuracy"] >= 0.95
    return trained


@pytest.fixture(scope="session")
def grid6_train_data():
    return synthetic_grid_digits(samples_per_class=40, grid=8, noise=0.3, seed=1)


@pytest.fixture(scope="session")
def grid6_training(grid6_train_data):
    """(trained model, history) of the grid6 fixture model."""
    model = build_model(
        EncoderSpec("amplitude", 64), AnsatzSpec("layered", 2, "linear"), 6, 2, seed=0
    )
    return train(
        model, grid6_train_data, TrainConfig(epochs=15, learning_rate=0.1, optimizer="adam", seed=0)
    )


@pytest.fixture(scope="session")
def grid6_model(grid6_training):
    trained, history = grid6_training
    assert history["train_accuracy"] >= 0.9
    return trained


def dense_gate_matrix(op, params, q):
    """Independent 2^q x 2^q matrix for one gate, built entrywise from the
    gate's action on basis states."""
    theta = None if op.param_slot is None else float(params[op.param_slot])
    kind = op.kind.value
    if kind == "rx":
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        u = np.array([[c, -1j * s], [-1j * s, c]])
    elif kind == "ry":
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        u = np.array([[c, -s], [s, c]], dtype=complex)
    elif kind == "rz":
        u = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    elif kind == "cnot":
        u = np.array([[0, 1], [1, 0]], dtype=complex)
    elif kind == "cz":
        u = np.diag([1.0, -1.0]).astype(complex)
    else:
        raise ValueError(kind)

    dim = 2**q
    mat = np.zeros((dim, dim), dtype=complex)
    tbit = q - 1 - op.target
    for col in range(dim):
        if op.control is not None and not (col >> (q - 1 - op.control)) & 1:
            mat[col, col] = 1.0
            continue
        b = (col >> tbit) & 1
        for bp in (0, 1):
            row = (col & ~(1 << tbit)) | (bp << tbit)
            mat[row, col] += u[bp, b]
    return mat


def dense_circuit_matrix(circuit, params):
    dim = 2**circuit.num_qubits
    mat = np.eye(dim, dtype=complex)
    for op in circuit.gates:
        mat = dense_gate_matrix(op, params, circuit.num_qubits) @ mat
    return mat


def dense_circuit_apply(circuit, params, states):
    """Rows of states run gate by gate through dense_gate_matrix: the dense
    oracle at widths where the full circuit matrix costs too much."""
    for op in circuit.gates:
        states = states @ dense_gate_matrix(op, params, circuit.num_qubits).T
    return states


def random_circuit(rng, q, num_gates=12, wide=0):
    """Random circuit mixing all supported gate kinds; wide > 0 (q > 6 only)
    inserts that many CNOT or CZ gates, at random places, whose qubits lie at
    least BLOCK_QUBITS apart."""
    from statecov.sim import BLOCK_QUBITS, CircuitSpec, Gate, GateOp

    singles = [Gate.RX, Gate.RY, Gate.RZ]
    doubles = [Gate.CNOT, Gate.CZ]
    gates = []
    slot = 0
    for _ in range(num_gates):
        if q > 1 and rng.random() < 0.4:
            kind = doubles[rng.integers(len(doubles))]
            ctrl, tgt = rng.choice(q, size=2, replace=False)
            gates.append(GateOp(kind, target=int(tgt), control=int(ctrl)))
        else:
            kind = singles[rng.integers(len(singles))]
            gates.append(GateOp(kind, target=int(rng.integers(q)), param_slot=slot))
            slot += 1
    for _ in range(wide):
        kind = doubles[rng.integers(len(doubles))]
        lo = int(rng.integers(q - BLOCK_QUBITS))
        pair = [lo, int(rng.integers(lo + BLOCK_QUBITS, q))]
        ctrl, tgt = pair if rng.random() < 0.5 else pair[::-1]
        gates.insert(int(rng.integers(len(gates) + 1)), GateOp(kind, target=tgt, control=ctrl))
    circuit = CircuitSpec(q, tuple(gates), slot)
    params = rng.uniform(-np.pi, np.pi, size=slot)
    return circuit, params


def brute_force_coverage(profile, config, pvs):
    """From-scratch, loop-based recomputation of the three criteria, with
    each boundary mode's bounds worked out per state here."""
    from statecov.coverage import EPS_DEGENERATE

    s_count = profile.num_states
    if config.boundary_mode == "sigma":  # widened by one sigma, kept in [0, 1]
        lb = [max(0.0, profile.lower[s] - profile.sigma[s]) for s in range(s_count)]
        ub = [min(1.0, profile.upper[s] + profile.sigma[s]) for s in range(s_count)]
    elif config.boundary_mode == "mad":
        lb, ub = list(profile.mad_lower), list(profile.mad_upper)
    else:
        lb, ub = list(profile.lower), list(profile.upper)
    k = config.k_cells
    eps = EPS_DEGENERATE
    cells = set()
    corners = set()
    tops = set()
    for pv in pvs:
        pv = np.asarray(pv, dtype=float)
        for s in range(s_count):
            p = pv[s]
            if p < lb[s]:
                corners.add((s, "low"))
            elif p > ub[s]:
                corners.add((s, "high"))
            else:
                width = ub[s] - lb[s]
                if width < eps:
                    if abs(p - lb[s]) <= eps:
                        cells.add((s, 0))
                else:
                    cell = int((p - lb[s]) // (width / k))
                    cells.add((s, min(cell, k - 1)))
        order = sorted(range(s_count), key=lambda i: (-pv[i], i))
        tops.update(order[: config.top_k])
    return {
        "ksc": 100.0 * len(cells) / (k * s_count),
        "scc": 100.0 * len(corners) / (2 * s_count),
        "tsc": 100.0 * len(tops) / s_count,
        "cells": cells,
        "corners": corners,
        "tops": tops,
    }


def random_profile_and_suite(rng, q, suite_size):
    """A profile from random simplex vectors plus a random evaluation suite."""
    from statecov.coverage import profile_from_samples

    dim = 2**q
    train = rng.dirichlet(np.ones(dim), size=rng.integers(5, 25))
    prof = profile_from_samples(train)
    # mix of in-distribution and fresh random vectors so corners get hit
    suite = rng.dirichlet(np.ones(dim), size=suite_size)
    return prof, suite
