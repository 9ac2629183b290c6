import hashlib
import itertools
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
    _group,
    adjoint_sweep,
    apply_circuit_batch,
    restrict,
)

from conftest import dense_circuit_apply, dense_circuit_matrix, random_circuit
from fixtures import gaussian_blobs
from oracles import haar_random_state, sample_frequencies


def zero_state(q):
    """The 2^q amplitudes of |0...0>."""
    state = np.zeros(2**q, dtype=np.complex128)
    state[0] = 1.0
    return state


def bell_state():
    gates = (GateOp(Gate.RY, target=0, param_slot=0), GateOp(Gate.CNOT, target=1, control=0))
    return apply_circuit_batch(zero_state(2)[None], CircuitSpec(2, gates, 1), [np.pi / 2])[0]


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
        circ = CircuitSpec(1, (GateOp(Gate.RY, target=0, param_slot=0),), 1)
        apply_circuit_batch(batch, circ, [np.pi / 2])
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
        circ = CircuitSpec(2, (GateOp(Gate.RY, target=0, param_slot=0),), 1)
        with pytest.raises(SimulationError):
            apply_circuit_batch(zero_state(1)[None], circ, [0.5])
        with pytest.raises(SimulationError, match="gate 1"):
            CircuitSpec(
                1,
                (GateOp(Gate.RY, target=0, param_slot=0), GateOp(Gate.RX, target=3, param_slot=1)),
                2,
            )

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
        steps = sum(len(block.plan.steps) for _, block in circuit.blocks)
        assert steps == 1 if q == 1 else steps <= len(circuit.gates)
        states = random_rows(rng, 2, q)
        dense = states @ dense_circuit_matrix(circuit, params).T
        assert np.max(np.abs(apply_circuit_batch(states, circuit, params) - dense)) < 1e-10

    @given(
        kind=st.sampled_from([Gate.CNOT, Gate.CZ]),
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
        gates = (
            GateOp(Gate.RY, target=control, param_slot=0),
            GateOp(kind, target=target, control=control),
        )
        circuit = CircuitSpec(q, gates, 1)
        params = np.array([theta])
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
            steps = sum(len(block.plan.steps) for _, block in circuit.blocks)
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
        plan = circuit.plan
        assert circuit.plan is plan
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
        assert len(q14.blocks) <= 8
        for entanglement in ("cyclic", "star", "full"):
            circuit = build_ansatz_circuit(AnsatzSpec("layered", 2, entanglement), 12)
            blocks = circuit.blocks
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

    @staticmethod
    def _count_calls(monkeypatch, names) -> dict:
        """Calls of each named sim function, wrapped the way an outside
        tracer wraps them, in every statecov module that holds them."""
        import statecov.sim as sim

        calls = dict.fromkeys(names, 0)
        for name in calls:
            original = getattr(sim, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            for modname, mod in list(sys.modules.items()):
                if modname.startswith("statecov") and getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted)
        return calls

    def test_public_entry_points_called_once_per_pass(self, monkeypatch):
        # internal work must not go through the wrapped entry points
        from statecov.qnn import EncoderSpec, _backprop, build_model, cross_entropy_grad, encode_batch, forward_batch

        calls = self._count_calls(monkeypatch, ("apply_circuit_batch", "adjoint_sweep"))
        model = build_model(EncoderSpec("angle", 8), AnsatzSpec("layered", 2, "cyclic"), 8, 2, seed=0)
        data = gaussian_blobs(2, 5, 8, seed=0)
        forward_batch(model, data.features)
        assert calls == {"apply_circuit_batch": 1, "adjoint_sweep": 0}
        states = encode_batch(model.encoder, data.features, 8)
        _backprop(model, states, model.params, lambda s: cross_entropy_grad(s, data.labels))
        assert calls == {"apply_circuit_batch": 2, "adjoint_sweep": 1}

    def test_forward_calls_the_kernel_once_per_row_block(self, monkeypatch):
        from statecov.qnn import BLOCK_AMPS, EncoderSpec, build_model, forward_batch

        calls = self._count_calls(monkeypatch, ("apply_circuit_batch",))
        model = build_model(EncoderSpec("angle", 10), AnsatzSpec("layered", 2, "cyclic"), 10, 2, seed=0)
        rows = 2 * (BLOCK_AMPS >> 10) + 1  # two full blocks and one row
        forward_batch(model, np.random.default_rng(0).uniform(0, 1, (rows, 10)))
        assert calls == {"apply_circuit_batch": 3}


class TestRestrict:
    """sim.restrict: a circuit on a subset of its qubits, relabelled in order."""

    @staticmethod
    def _placed(part, qubits, shift):
        """The gates of part with qubit i moved to qubits[i] and every slot shifted."""
        return [
            GateOp(op.kind, qubits[op.target], None if op.control is None else qubits[op.control],
                   None if op.param_slot is None else op.param_slot + shift)
            for op in part.gates
        ]

    @given(
        q=st.integers(2, 7),
        n=st.integers(1, 3),
        num_gates=st.integers(0, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_disjoint_qubit_sets_give_a_kronecker_product(self, q, n, num_gates, seed):
        rng = np.random.default_rng(seed)
        a = sorted(rng.choice(q, size=int(rng.integers(1, q)), replace=False).tolist())
        b = [qubit for qubit in range(q) if qubit not in a]
        (part_a, params_a), (part_b, params_b) = (
            random_circuit(rng, len(side), num_gates) for side in (a, b)
        )
        # the two parts interleaved at random, b's slots after a's
        queues = [self._placed(part_a, a, 0), self._placed(part_b, b, part_a.num_params)]
        picks = rng.permutation([0] * len(queues[0]) + [1] * len(queues[1]))
        params = np.concatenate([params_a, params_b])
        p = len(params)
        circuit = CircuitSpec(q, [queues[k].pop(0) for k in picks], p)
        # each restriction is of the gates on its side; b is also given reversed and twice
        sub_a, sub_b = (
            restrict(CircuitSpec(q, [g for g in circuit.gates if g.target in side], p), qubits)
            for side, qubits in ((a, a), (b, b[::-1] + b))
        )
        assert sub_a == CircuitSpec(len(a), self._placed(part_a, range(len(a)), 0), p)
        assert sub_b == CircuitSpec(len(b), self._placed(part_b, range(len(b)), len(params_a)), p)
        # U = U_a (x) U_b on the qubits ordered a then b; row k of a pass over
        # the identity rows is column k of the block's matrix
        u_a, u_b = (apply_circuit_batch(np.eye(2**c.num_qubits), c, params).T
                    for c in (sub_a, sub_b))
        states = random_rows(rng, n, q)
        axes = [0] + [1 + qubit for qubit in a + b]
        split = states.reshape((n,) + (2,) * q).transpose(axes).reshape(n, 2 ** len(a), -1)
        mixed = np.einsum("ij,kl,njl->nik", u_a, u_b, split).reshape((n,) + (2,) * q)
        expected = mixed.transpose(np.argsort(axes)).reshape(n, 2**q)
        assert np.max(np.abs(expected - dense_circuit_apply(circuit, params, states))) < 1e-12

    @given(q=st.integers(1, 8), num_gates=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_all_qubits_is_the_circuit(self, q, num_gates, seed):
        circuit, _ = random_circuit(np.random.default_rng(seed), q, num_gates)
        assert restrict(circuit, range(q)) == circuit
        assert restrict(circuit, list(range(q))[::-1] * 2) == circuit

    def test_gate_outside_the_qubits_is_named(self):
        gates = (
            GateOp(Gate.RX, target=0, param_slot=0),
            GateOp(Gate.CZ, target=1, control=0),
            GateOp(Gate.CNOT, target=1, control=3),
        )
        circuit = CircuitSpec(4, gates, 2)
        assert restrict(circuit, [0, 1, 3]).gates[2] == GateOp(Gate.CNOT, target=1, control=2)
        with pytest.raises(SimulationError, match=r"gate 2: qubit 3 is not among \[0, 1, 2\]"):
            restrict(circuit, [0, 1, 2])
        with pytest.raises(SimulationError, match=r"gate 1: qubit 1 is not among \[0, 3\]"):
            restrict(circuit, [3, 0])

    def test_blocks_are_unchanged(self):
        # the blocks of both presets, every entanglement, q = 1-14 and 1-3
        # layers: a change to any block's window, relabelled gates or slots
        # moves the digest
        digest = hashlib.sha256()
        grid = itertools.product(ANSATZ_PRESETS, ENTANGLEMENTS, range(1, 15), (1, 2, 3))
        for preset, entanglement, q, layers in grid:
            circuit = build_ansatz_circuit(AnsatzSpec(preset, layers, entanglement), q)
            for lo, block in _group(circuit):
                ops = [(g.kind.value, g.target, g.control, g.param_slot) for g in block.gates]
                digest.update(repr((lo, block.num_qubits, block.num_params, ops)).encode())
        assert digest.hexdigest()[:16] == "3f108a56bcf3f180"


class TestRelabelling:
    """A metamorphic oracle where the dense one cannot reach (q 7-16): a
    preset circuit with its qubits relabelled by a permutation pi, run on
    rows whose basis-index bits are permuted to match, gives the permuted
    outputs, the same parameter gradients and the permuted input costates.
    Relabelling regroups the blocks, so _group, restrict, _mix, _overlap
    and the wide-block kernel each meet another grouping of the same map."""

    @staticmethod
    def _moved(rows, pi):
        """rows with qubit i's basis bit moved to qubit pi[i]."""
        n, q = len(rows), len(pi)
        axes = [1 + qubit for qubit in pi]
        return np.moveaxis(rows.reshape((n,) + (2,) * q), range(1, q + 1), axes).reshape(n, -1)

    @staticmethod
    def _relabelled(circuit, pi):
        """circuit with qubit i's gates on qubit pi[i]."""
        return CircuitSpec(circuit.num_qubits, [
            GateOp(g.kind, pi[g.target], None if g.control is None else pi[g.control], g.param_slot)
            for g in circuit.gates
        ], circuit.num_params)

    @given(
        q=st.integers(7, 16),
        preset=st.sampled_from(ANSATZ_PRESETS),
        entanglement=st.sampled_from(ENTANGLEMENTS),
        layers=st.integers(1, 2),
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_outputs_gradients_and_costates_follow_the_qubits(
        self, q, preset, entanglement, layers, n, seed, data
    ):
        pi = data.draw(st.permutations(range(q)))
        circuit = build_ansatz_circuit(AnsatzSpec(preset, layers, entanglement), q)
        relabelled = self._relabelled(circuit, pi)
        rng = np.random.default_rng(seed)
        params = rng.uniform(0.0, 2.0 * np.pi, size=circuit.num_params)
        states, costates = random_rows(rng, n, q), random_rows(rng, n, q)
        out = apply_circuit_batch(states, circuit, params)
        out_pi = apply_circuit_batch(self._moved(states, pi), relabelled, params)
        assert np.max(np.abs(out_pi - self._moved(out, pi))) < 1e-12
        grad, lam0 = adjoint_sweep(out, costates, circuit, params)
        grad_pi, lam0_pi = adjoint_sweep(out_pi, self._moved(costates, pi), relabelled, params)
        assert np.max(np.abs(grad_pi - grad)) <= 1e-12 * np.max(np.abs(grad))
        assert np.max(np.abs(lam0_pi - self._moved(lam0, pi))) < 1e-12


class TestRelationsOfTheForwardPass:
    """Three more metamorphic relations at widths the dense oracle does not
    reach: a last CNOT sublayer permutes the basis, amplitude encoding
    ignores a row's scale, and angle features move with their qubits."""

    @staticmethod
    def _cnot_image(q, pairs):
        """Where each basis index goes under the CNOTs (control, target) in order."""
        idx = np.arange(2**q)
        for control, target in pairs:
            idx = idx ^ (((idx >> (q - 1 - control)) & 1) << (q - 1 - target))
        return idx

    @given(
        q=st.integers(2, 16),
        preset=st.sampled_from(ANSATZ_PRESETS),
        entanglement=st.sampled_from(ENTANGLEMENTS),
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_circuits_that_differ_in_a_last_cnot_sublayer(
        self, q, preset, entanglement, n, seed, data
    ):
        # both end in G then their own CNOTs, so each equals G's probabilities, moved
        circuit = build_ansatz_circuit(AnsatzSpec(preset, 1, entanglement), q)
        pair = st.permutations(range(q)).map(lambda p: tuple(p[:2]))
        rng = np.random.default_rng(seed)
        params = rng.uniform(0.0, 2.0 * np.pi, size=circuit.num_params)
        states = random_rows(rng, n, q)
        moved = []
        for _ in range(2):
            pairs = data.draw(st.lists(pair, max_size=q))
            last = [GateOp(Gate.CNOT, target=t, control=c) for c, t in pairs]
            ended = CircuitSpec(q, circuit.gates + tuple(last), circuit.num_params)
            probs = np.abs(apply_circuit_batch(states, ended, params)) ** 2
            moved.append(probs[:, self._cnot_image(q, pairs)])
        assert np.max(np.abs(moved[0] - moved[1])) <= 1e-12 * np.max(moved[0])

    @given(
        q=st.integers(1, 12),
        preset=st.sampled_from(ANSATZ_PRESETS),
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_amplitude_rows_at_any_positive_scale(self, q, preset, n, seed, data):
        from statecov.qnn import EncoderSpec, build_model, forward_batch

        d = data.draw(st.integers(1, 2**q))
        ansatz = AnsatzSpec(preset, 2, "linear")
        model = build_model(EncoderSpec("amplitude", d), ansatz, q, 1, seed)
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0.0, 1.0, (n, d))
        xs[:, 0] += 0.5 * (xs.max(axis=1) == 0)  # no all-zero row
        scaled = xs * rng.uniform(0.0, 1.0, (n, 1)) / xs.max(axis=1, keepdims=True)  # c x in [0, 1]
        probs, probs_scaled = forward_batch(model, xs)[0], forward_batch(model, scaled)[0]
        assert np.max(np.abs(probs_scaled - probs)) <= 1e-15

    @given(
        q=st.integers(2, 16),
        preset=st.sampled_from(ANSATZ_PRESETS),
        entanglement=st.sampled_from(ENTANGLEMENTS),
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_angle_features_permuted_with_the_qubits(self, q, preset, entanglement, n, seed, data):
        from dataclasses import replace

        from statecov.qnn import EncoderSpec, build_model, forward_batch

        pi = data.draw(st.permutations(range(q)))
        ansatz = AnsatzSpec(preset, 1, entanglement)
        model = build_model(EncoderSpec("angle", q), ansatz, q, 1, seed)
        relabelled = replace(model, circuit=TestRelabelling._relabelled(model.circuit, pi))
        xs = np.random.default_rng(seed).uniform(0.0, 1.0, (n, q))
        xs_pi = np.empty_like(xs)
        xs_pi[:, pi] = xs  # feature i goes with qubit i to pi[i]
        probs, probs_pi = forward_batch(model, xs)[0], forward_batch(relabelled, xs_pi)[0]
        assert np.max(np.abs(probs_pi - TestRelabelling._moved(probs, pi))) <= 1e-12


class TestGateOpValidation:
    def test_rotation_requires_slot(self):
        with pytest.raises(SimulationError):
            GateOp(Gate.RX, target=0)

    def test_non_rotation_rejects_slot(self):
        with pytest.raises(SimulationError, match="cnot gate takes no parameter"):
            GateOp(Gate.CNOT, target=1, control=0, param_slot=0)

    def test_rotation_rejects_control(self):
        with pytest.raises(SimulationError, match="ry gate takes no control qubit"):
            GateOp(Gate.RY, target=1, control=0, param_slot=0)

    def test_only_the_five_preset_gates(self):
        assert [g.value for g in Gate] == ["rx", "ry", "rz", "cnot", "cz"]
        with pytest.raises(ValueError):
            Gate("h")

    def test_control_target_distinct(self):
        with pytest.raises(SimulationError):
            GateOp(Gate.CNOT, target=1, control=1)


class TestSampling:
    """The one-row shot draw in tests/oracles.py, which row i of
    collect_prob_vectors(..., shots, seed) equals at seed + i (test_coverage's
    test_sampled_rows_equal_oracle_per_row_seed)."""

    def test_degenerate_distribution(self):
        assert np.array_equal(sample_frequencies([1.0, 0.0], 17, rng_seed=0), [1.0, 0.0])

    def test_deterministic_per_seed(self):
        probs = np.abs(haar_random_state(2, 5)) ** 2
        a = sample_frequencies(probs, 1000, rng_seed=42)
        b = sample_frequencies(probs, 1000, rng_seed=42)
        assert np.array_equal(a, b)

    def test_uniform_superposition_accuracy(self):
        # binomial tail: at 1e5 shots, |p_hat - 0.5| <= 0.01 except w.p. < 1e-3
        circ = CircuitSpec(1, (GateOp(Gate.RY, target=0, param_slot=0),), 1)
        plus = np.abs(apply_circuit_batch(zero_state(1)[None], circ, [np.pi / 2])[0]) ** 2
        for seed in range(10):
            assert abs(sample_frequencies(plus, 100_000, rng_seed=seed)[0] - 0.5) <= 0.01

    def test_zero_shots_rejected(self, monkeypatch):
        # refused once, before the forward pass
        from statecov import coverage
        from statecov.qnn import EncoderSpec, LabeledDataset, build_model

        model = build_model(EncoderSpec("angle", 2), AnsatzSpec("layered", 1, "linear"), 2, 2)
        monkeypatch.setattr(coverage, "forward_batch", None)  # a call raises TypeError
        for shots in (0, -1):
            with pytest.raises(ValueError, match="shots must be >= 1"):
                coverage.collect_prob_vectors(model, LabeledDataset([[0.1, 0.2]], [0]), shots)

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
