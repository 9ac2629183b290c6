import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statecov.qnn import ANSATZ_PRESETS, ENTANGLEMENTS, AnsatzSpec, build_ansatz_circuit
from statecov.sim import (
    BLOCK_QUBITS,
    CircuitSpec,
    Gate,
    GateOp,
    SimulationError,
    _block_matrices,
    _blocks,
    _compiled,
    apply_circuit_batch,
    sample_frequencies,
)

from conftest import dense_circuit_apply, dense_circuit_matrix, random_circuit
from oracles import haar_random_state


def zero_state(q):
    """The 2^q amplitudes of |0...0>."""
    state = np.zeros(2**q, dtype=np.complex128)
    state[0] = 1.0
    return state


def bell_state():
    circ = CircuitSpec(
        2, (GateOp(Gate.H, target=0), GateOp(Gate.CNOT, target=1, control=0)), 0
    )
    return apply_circuit_batch(zero_state(2)[None], circ, [])[0]


class TestApplyCircuit:
    def test_single_ry_closed_form(self):
        circ = CircuitSpec(1, (GateOp(Gate.RY, target=0, param_slot=0),), 1)
        out = apply_circuit_batch(zero_state(1)[None], circ, [np.pi / 2])[0]
        expected = np.array([np.cos(np.pi / 4), np.sin(np.pi / 4)])
        assert np.allclose(out, expected, atol=1e-12)

    def test_bell_state(self):
        expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.allclose(bell_state(), expected, atol=1e-12)

    def test_input_state_unmodified(self):
        batch = zero_state(1)[None]
        before = batch.copy()
        circ = CircuitSpec(1, (GateOp(Gate.H, target=0),), 0)
        apply_circuit_batch(batch, circ, [])
        assert np.array_equal(batch, before)

    def test_matches_dense_matrix_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            q = int(rng.integers(1, 5))
            circuit, params = random_circuit(rng, q)
            psi = haar_random_state(q, int(rng.integers(1 << 30)))
            fast = apply_circuit_batch(psi[None], circuit, params)[0]
            dense = dense_circuit_matrix(circuit, params) @ psi
            assert np.max(np.abs(fast - dense)) < 1e-10

    def test_norm_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            q = int(rng.integers(1, 5))
            circuit, params = random_circuit(rng, q)
            out = apply_circuit_batch(haar_random_state(q, 3)[None], circuit, params)[0]
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    def test_dimension_mismatch_names_gate(self):
        circ = CircuitSpec(2, (GateOp(Gate.H, target=0),), 0)
        with pytest.raises(SimulationError):
            apply_circuit_batch(zero_state(1)[None], circ, [])
        with pytest.raises(SimulationError, match="gate 1"):
            CircuitSpec(1, (GateOp(Gate.H, target=0), GateOp(Gate.X, target=3)), 0)

    def test_param_count_checked(self):
        circ = CircuitSpec(1, (GateOp(Gate.RX, target=0, param_slot=0),), 1)
        with pytest.raises(SimulationError):
            apply_circuit_batch(zero_state(1)[None], circ, [0.1, 0.2])


def random_rows(rng, n, q):
    """n unnormalized complex amplitude rows; the kernel is linear in each row."""
    return rng.standard_normal((n, 2**q)) + 1j * rng.standard_normal((n, 2**q))


class TestCompiledKernel:
    """Property tests of the compiled kernel against the dense-matrix oracle."""

    @given(
        q=st.integers(1, 7),
        n=st.integers(1, 5),
        num_gates=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_dense_oracle(self, q, n, num_gates, seed):
        rng = np.random.default_rng(seed)
        circuit, params = random_circuit(rng, q, num_gates=num_gates)
        states = random_rows(rng, n, q)
        out = apply_circuit_batch(states, circuit, params)
        dense = states @ dense_circuit_matrix(circuit, params).T
        assert out.shape == (n, 2**q)
        assert np.max(np.abs(out - dense)) < 1e-10

    @given(q=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_long_single_qubit_runs_fuse(self, q, seed):
        # 30 gates on at most 3 qubits leave runs of consecutive gates on one qubit
        rng = np.random.default_rng(seed)
        circuit, params = random_circuit(rng, q, num_gates=30)
        steps = sum(len(_compiled(block).steps) for _, block in _blocks(circuit))
        assert steps == 1 if q == 1 else steps <= len(circuit.gates)
        states = random_rows(rng, 2, q)
        dense = states @ dense_circuit_matrix(circuit, params).T
        assert np.max(np.abs(apply_circuit_batch(states, circuit, params) - dense)) < 1e-10

    @given(
        kind=st.sampled_from([Gate.CRX, Gate.CRY, Gate.CRZ, Gate.CNOT, Gate.CZ]),
        q=st.integers(2, 6),
        pair=st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda p: p[0] != p[1]),
        theta=st.floats(-2 * np.pi, 2 * np.pi),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_controlled_gates_either_order(self, kind, q, pair, theta, seed):
        control, target = pair[0] % q, pair[1] % q
        if control == target:
            target = (control + 1) % q
        slot = 0 if kind in (Gate.CRX, Gate.CRY, Gate.CRZ) else None
        gates = (
            GateOp(Gate.H, target=control),
            GateOp(kind, target=target, control=control, param_slot=slot),
        )
        circuit = CircuitSpec(q, gates, 0 if slot is None else 1)
        params = np.array([] if slot is None else [theta])
        states = random_rows(np.random.default_rng(seed), 3, q)
        dense = states @ dense_circuit_matrix(circuit, params).T
        assert np.max(np.abs(apply_circuit_batch(states, circuit, params) - dense)) < 1e-10

    @pytest.mark.parametrize("preset", ANSATZ_PRESETS)
    @pytest.mark.parametrize("entanglement", ENTANGLEMENTS)
    @given(q=st.integers(1, 6), layers=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_every_ansatz_preset(self, preset, entanglement, q, layers, seed):
        rng = np.random.default_rng(seed)
        circuit = build_ansatz_circuit(AnsatzSpec(preset, layers, entanglement), q)
        params = rng.uniform(0.0, 2.0 * np.pi, size=circuit.num_params)
        states = random_rows(rng, 2, q)
        dense = states @ dense_circuit_matrix(circuit, params).T
        assert np.max(np.abs(apply_circuit_batch(states, circuit, params) - dense)) < 1e-10

    @pytest.mark.parametrize("entanglement", ENTANGLEMENTS)
    def test_layer_costs_q_plus_e_applications(self, entanglement):
        # counted over the plans that run: one per block, dense or wide
        layers = 3
        for q in (5, 14):
            circuit = build_ansatz_circuit(AnsatzSpec("layered", layers, entanglement), q)
            entangling = len(circuit.gates) // layers - 3 * q
            steps = sum(len(_compiled(block).steps) for _, block in _blocks(circuit))
            assert steps == layers * (q + entangling)

    @given(
        q=st.integers(1, 7),
        n=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_equals_row_by_row_and_input_unmodified(self, q, n, seed):
        rng = np.random.default_rng(seed)
        circuit, params = random_circuit(rng, q, num_gates=20)
        states = random_rows(rng, n, q)
        before = states.copy()
        batched = apply_circuit_batch(states, circuit, params)
        assert np.array_equal(states, before)
        fortran = np.asfortranarray(states)
        assert np.array_equal(apply_circuit_batch(fortran, circuit, params), batched)
        assert np.array_equal(fortran, before)
        for i in range(n):
            row = apply_circuit_batch(states[i : i + 1], circuit, params)[0]
            assert np.max(np.abs(batched[i] - row)) < 1e-12
        assert np.array_equal(states, before)

    def test_plan_kept_on_spec_without_changing_equality(self):
        circuit = build_ansatz_circuit(AnsatzSpec("layered", 1, "linear"), 3)
        twin = build_ansatz_circuit(AnsatzSpec("layered", 1, "linear"), 3)
        plan = _compiled(circuit)
        assert _compiled(circuit) is plan
        assert circuit == twin and hash(circuit) == hash(twin)

    def test_empty_batch(self):
        circuit = build_ansatz_circuit(AnsatzSpec("layered", 1, "cyclic"), 3)
        out = apply_circuit_batch(np.zeros((0, 8)), circuit, np.zeros(circuit.num_params))
        assert out.shape == (0, 8)


class TestBlocks:
    """The block engine: dense k-qubit blocks plus wide gates on the 2x2 kernel."""

    @given(
        q=st.integers(1, 10),
        n=st.integers(1, 4),
        num_gates=st.integers(1, 40),
        wide=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_oracle(self, q, n, num_gates, wide, seed):
        rng = np.random.default_rng(seed)
        circuit, params = random_circuit(rng, q, num_gates, wide if q > BLOCK_QUBITS else 0)
        states = random_rows(rng, n, q)
        out = apply_circuit_batch(states, circuit, params)
        assert np.max(np.abs(out - dense_circuit_apply(circuit, params, states))) < 1e-10

    def test_plan_structure(self):
        q14 = build_ansatz_circuit(AnsatzSpec("layered", 2, "linear"), 14)
        assert len(_blocks(q14)) <= 8
        for entanglement in ("cyclic", "star", "full"):
            circuit = build_ansatz_circuit(AnsatzSpec("layered", 2, entanglement), 12)
            blocks = _blocks(circuit)
            assert sum(len(block.gates) for _, block in blocks) == len(circuit.gates)
            mats = _block_matrices(circuit, np.zeros(circuit.num_params))
            assert max(len(m) for m in mats if m is not None) <= 2**BLOCK_QUBITS
            # the pairs 0-11 (cyclic wrap), 0-6 ... 0-11 (star, full) fit no
            # window and run through the 2x2 kernel instead
            wide = [op for (_, block), m in zip(blocks, mats) if m is None for op in block.gates]
            assert wide and all(abs(op.control - op.target) >= BLOCK_QUBITS for op in wide)

    def test_q14_forward_keeps_two_batches_of_memory(self):
        # The 2x2 kernel alone peaked at 32.26 MiB here (a copy, a half-state
        # scratch and a half-state temporary). The first call on a fresh spec
        # also builds and keeps the block matrices (about 0.3 MiB).
        circuit = build_ansatz_circuit(AnsatzSpec("layered", 2, "linear"), 14)
        params = np.random.default_rng(0).uniform(0, 2 * np.pi, circuit.num_params)
        states = np.zeros((64, 2**14), dtype=np.complex128)
        states[:, 0] = 1.0
        peaks = []
        for _ in range(2):
            tracemalloc.start()
            try:
                out = apply_circuit_batch(states, circuit, params)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del out
        assert peaks[0] <= 2 * states.nbytes + (1 << 19)
        assert peaks[1] <= 2 * states.nbytes + (1 << 16)

    def test_public_entry_points_called_once_per_pass(self, monkeypatch):
        # wrapped the way an outside tracer wraps them, in every statecov
        # module that holds them: internal work must not go through them
        from statecov.datasets import gaussian_blobs
        from statecov.qnn import EncoderSpec, _backprop, build_model, cross_entropy_grad, encode_batch, forward_batch
        import statecov.sim as sim

        calls = {"apply_circuit_batch": 0, "adjoint_sweep": 0}
        for name in calls:
            original = getattr(sim, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            for modname, mod in list(sys.modules.items()):
                if modname.startswith("statecov") and getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted)
        model = build_model(EncoderSpec("angle", 8), AnsatzSpec("layered", 2, "cyclic"), 8, 2, seed=0)
        data = gaussian_blobs(2, 5, 8, seed=0)
        forward_batch(model, data.features)
        assert calls == {"apply_circuit_batch": 1, "adjoint_sweep": 0}
        states = encode_batch(model.encoder, data.features, 8)
        _backprop(model, states, model.params, lambda s: cross_entropy_grad(s, data.labels))
        assert calls == {"apply_circuit_batch": 2, "adjoint_sweep": 1}


class TestGateOpValidation:
    def test_rotation_requires_slot(self):
        with pytest.raises(SimulationError):
            GateOp(Gate.RX, target=0)

    def test_non_rotation_rejects_slot(self):
        with pytest.raises(SimulationError):
            GateOp(Gate.H, target=0, param_slot=0)

    def test_control_target_distinct(self):
        with pytest.raises(SimulationError):
            GateOp(Gate.CNOT, target=1, control=1)


class TestSampling:
    def test_degenerate_distribution(self):
        assert np.array_equal(sample_frequencies([1.0, 0.0], 17, rng_seed=0), [1.0, 0.0])

    def test_deterministic_per_seed(self):
        probs = np.abs(haar_random_state(2, 5)) ** 2
        a = sample_frequencies(probs, 1000, rng_seed=42)
        b = sample_frequencies(probs, 1000, rng_seed=42)
        assert np.array_equal(a, b)

    def test_uniform_superposition_accuracy(self):
        # binomial tail: at 1e5 shots, |p_hat - 0.5| <= 0.01 except w.p. < 1e-3
        circ = CircuitSpec(1, (GateOp(Gate.H, target=0),), 0)
        plus = np.abs(apply_circuit_batch(zero_state(1)[None], circ, [])[0]) ** 2
        for seed in range(10):
            assert abs(sample_frequencies(plus, 100_000, rng_seed=seed)[0] - 0.5) <= 0.01

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            sample_frequencies([1.0, 0.0], 0, rng_seed=0)

    def test_tv_distance_shrinks_with_shots(self):
        exact = np.abs(haar_random_state(3, 9)) ** 2
        tv = []
        for shots in (100, 1000, 10_000, 100_000):
            dists = [
                0.5 * np.abs(sample_frequencies(exact, shots, rng_seed=s) - exact).sum()
                for s in range(8)
            ]
            tv.append(np.mean(dists))
        assert all(a > b for a, b in zip(tv, tv[1:]))


class TestHaarRandom:
    """The seeded Haar sampler in tests/oracles.py."""

    def test_normalized(self):
        for seed in range(5):
            assert abs(np.linalg.norm(haar_random_state(4, seed)) - 1.0) < 1e-10

    def test_distinct_seeds_distinct_states(self):
        assert not np.allclose(haar_random_state(3, 1), haar_random_state(3, 2))

    def test_mean_pairwise_fidelity_is_one_over_dim(self):
        # Haar moment: E|<a|b>|^2 = 1/2^q, checked by Monte Carlo
        q, n = 2, 120
        states = [haar_random_state(q, seed) for seed in range(n)]
        fids = [
            abs(np.vdot(states[i], states[j])) ** 2 for i in range(n) for j in range(i + 1, n)
        ]
        fids = np.asarray(fids)
        sem = fids.std() / np.sqrt(fids.size)
        assert abs(fids.mean() - 1.0 / 2**q) < 3 * max(sem, 1e-3)
