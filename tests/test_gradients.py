import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from statecov.files import InputError
from statecov.gradients import input_grads
from statecov.qnn import (
    AnsatzSpec,
    EncoderSpec,
    QnnModel,
    TrainConfig,
    _backprop,
    build_model,
    cross_entropy_grad,
    encode_batch,
    forward_batch,
    train,
)
from statecov.sim import (
    BLOCK_QUBITS,
    SimulationError,
    _kernel_sweep,
    adjoint_sweep,
    apply_circuit_batch,
)

from conftest import dense_circuit_matrix, random_circuit
from fixtures import gaussian_blobs
from oracles import cross_entropy, finite_diff_grad, param_shift_grad


def _loss_fn(model, x, label):
    def f(feats):
        _, scores = forward_batch(model, feats[None, :])
        return cross_entropy(scores[0], label)

    return f


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_grad(lambda v: float(v[0] ** 2), np.array([3.0]), 1e-4)
        assert abs(g[0] - 6.0) < 1e-6

    def test_constant(self):
        g = finite_diff_grad(lambda v: 1.0, np.zeros(4), 1e-4)
        assert np.array_equal(g, np.zeros(4))

    def test_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda v: 0.0, np.zeros(1), 0.0)


class TestParamShift:
    def test_single_ry_cos_derivative(self):
        # <Z> = cos(theta) for RY(theta)|0>, so d<Z>/dtheta = -sin(theta)
        model = build_model(
            EncoderSpec("angle", 1), AnsatzSpec("layered", 1, "linear"), 1, 1, seed=0
        )
        params = np.zeros(3)
        params[1] = np.pi / 2  # the RY slot
        model = model.with_params(params)
        grad = param_shift_grad(model, [0.0], 0)
        assert abs(grad[1] - (-1.0)) < 1e-12

        model = model.with_params(np.zeros(3))
        grad = param_shift_grad(model, [0.0], 0)
        assert abs(grad[1]) < 1e-12

    @pytest.mark.parametrize("preset", ["layered", "entangling"])
    def test_matches_finite_differences(self, preset):
        rng = np.random.default_rng(4)
        model = build_model(
            EncoderSpec("angle", 3), AnsatzSpec(preset, 2, "cyclic"), 3, 2, seed=2
        )
        x = rng.uniform(0, 1, 3)
        for _ in range(3):
            model = model.with_params(rng.uniform(-np.pi, np.pi, model.params.size))
            grad = param_shift_grad(model, x, 0)

            def expectation(p, model=model, x=x):
                m = model.with_params(p)
                _, scores = forward_batch(m, x[None, :])
                return float(scores[0, 0])

            fd = finite_diff_grad(expectation, model.params, 1e-4)
            assert np.max(np.abs(grad - fd)) < 1e-6

    def test_bad_observable(self):
        model = build_model(
            EncoderSpec("angle", 2), AnsatzSpec("layered", 1, "linear"), 2, 2, seed=0
        )
        with pytest.raises(ValueError, match="observable index 5 out of range"):
            param_shift_grad(model, [0.1, 0.2], 5)

    def test_nonzero_on_random_draws(self):
        # guards against dead parameterizations of the presets
        hits = 0
        total = 20
        rng = np.random.default_rng(8)
        for i in range(total):
            preset = "layered" if i % 2 == 0 else "entangling"
            model = build_model(
                EncoderSpec("angle", 3), AnsatzSpec(preset, 1, "linear"), 3, 2, seed=100 + i
            )
            x = rng.uniform(0.1, 0.9, 3)
            g = input_grads(model, x[None, :], lambda s: cross_entropy_grad(s, [0]))[1][0]
            pg = param_shift_grad(model, x, 0)
            if np.linalg.norm(pg) > 1e-8 and np.linalg.norm(g) > 1e-12:
                hits += 1
        assert hits >= 0.9 * total


class TestInputGrad:
    @pytest.mark.parametrize(
        "encoder_kind,q,d", [("angle", 3, 3), ("amplitude", 2, 4), ("amplitude", 3, 6)]
    )
    def test_matches_finite_differences(self, encoder_kind, q, d):
        rng = np.random.default_rng(5)
        model = build_model(
            EncoderSpec(encoder_kind, d), AnsatzSpec("layered", 2, "linear"), q, 2, seed=3
        )
        for _ in range(3):
            x = rng.uniform(0.1, 0.9, d)
            grad = input_grads(model, x[None, :], lambda s: cross_entropy_grad(s, [1]))[1][0]
            fd = finite_diff_grad(_loss_fn(model, x, 1), x, 1e-5)
            assert np.max(np.abs(grad - fd)) < 1e-5

    def test_symmetry_under_equal_inputs(self):
        # star entanglement is symmetric in qubits 1..q-1; equal features on
        # those qubits with equal per-qubit rotations give pairwise equal grads
        model = build_model(
            EncoderSpec("angle", 3), AnsatzSpec("layered", 1, "star"), 3, 1, seed=0
        )
        base = np.tile(np.array([0.3, 0.7, 0.5]), 3)  # same 3 angles per qubit
        model = model.with_params(base * np.pi)
        x = np.array([0.4, 0.6, 0.6])
        grad = input_grads(model, x[None, :], lambda s: cross_entropy_grad(s, [0]))[1][0]
        assert abs(grad[1] - grad[2]) < 1e-9

    def test_zero_amplitude_input_rejected(self):
        model = build_model(
            EncoderSpec("amplitude", 4), AnsatzSpec("layered", 1, "linear"), 2, 2, seed=0
        )
        # the same error as encode_batch: the first all-zero row, counted from 1
        with pytest.raises(InputError, match="^data row 1 is all zeros, which amplitude encoding"):
            input_grads(model, np.zeros((2, 4)), lambda s: np.eye(2))

    def test_gradient_small_at_scanned_minimum(self):
        # vary one feature, locate the interior loss minimum by scanning for
        # the derivative's sign change, bisect it down, check the gradient
        model = build_model(
            EncoderSpec("angle", 2), AnsatzSpec("layered", 1, "linear"), 2, 2, seed=5
        )

        def deriv(t):
            xs = np.array([[t, 0.5]])
            return input_grads(model, xs, lambda s: cross_entropy_grad(s, [0]))[1][0, 0]

        grid = np.linspace(0.01, 0.99, 99)
        vals = [deriv(t) for t in grid]
        lo, hi = next(
            (grid[i], grid[i + 1]) for i in range(len(grid) - 1) if vals[i] < 0 < vals[i + 1]
        )
        for _ in range(60):
            mid = (lo + hi) / 2
            if deriv(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert abs(deriv((lo + hi) / 2)) < 1e-6


# -- the adjoint sweep against its oracles -----------------------------------

def _random_model(rng, q, num_gates, wide=0):
    circuit, params = random_circuit(rng, q, num_gates, wide)
    classes = min(q, 2)
    return QnnModel(
        EncoderSpec("angle", q), AnsatzSpec("layered", 1, "linear"), q, circuit, params,
        tuple(range(classes)), classes,
    )


class TestAdjointSweep:
    @given(
        q=st.integers(1, 6),
        n=st.integers(1, 5),
        num_gates=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_training_gradient_matches_shift_rules(self, q, n, num_gates, seed):
        rng = np.random.default_rng(seed)
        model = _random_model(rng, q, num_gates)
        xs = rng.uniform(0, 1, (n, q))
        labels = rng.integers(0, model.num_classes, n)
        states = encode_batch(model.encoder, xs, q)
        _, adjoint, _ = _backprop(
            model, states, model.params, lambda scores: cross_entropy_grad(scores, labels) / n
        )

        _, scores = forward_batch(model, xs)
        resid = cross_entropy_grad(scores, labels)
        oracle = np.zeros(model.params.size)
        for r in range(n):
            for c in range(model.num_classes):
                oracle += resid[r, c] * param_shift_grad(model, xs[r], c) / n
        assert np.max(np.abs(adjoint - oracle), initial=0.0) < 1e-10

    @given(
        q=st.integers(1, 6),
        n=st.integers(1, 5),
        num_gates=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_equals_row_by_row(self, q, n, num_gates, seed):
        rng = np.random.default_rng(seed)
        circuit, params = random_circuit(rng, q, num_gates)
        phi = rng.standard_normal((n, 2**q)) + 1j * rng.standard_normal((n, 2**q))
        out = apply_circuit_batch(phi, circuit, params)
        lam = rng.standard_normal((n, 2**q)) * out
        grad, lam0 = adjoint_sweep(out, lam, circuit, params)
        rows = [adjoint_sweep(out[r : r + 1], lam[r : r + 1], circuit, params) for r in range(n)]
        assert np.allclose(grad, sum(g for g, _ in rows), rtol=0, atol=1e-12)
        assert np.allclose(lam0, np.concatenate([l0 for _, l0 in rows]), rtol=0, atol=1e-12)

    @given(
        q=st.integers(BLOCK_QUBITS + 1, 9),
        num_gates=st.integers(15, 30),
        wide=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=12, deadline=None)
    def test_block_sweep_matches_shift_rules(self, q, num_gates, wide, seed):
        # the sweep over three or more blocks against the two-term shift
        # rule, one readout score at a time
        rng = np.random.default_rng(seed)
        model = _random_model(rng, q, num_gates, wide)
        assume(len(model.circuit.blocks) >= 3)
        x = rng.uniform(0, 1, q)
        states = encode_batch(model.encoder, x[None, :], q)
        for c in range(model.num_classes):
            _, adjoint, _ = _backprop(model, states, model.params, lambda s, c=c: np.eye(s.shape[1])[[c]])
            assert np.max(np.abs(adjoint - param_shift_grad(model, x, c)), initial=0.0) < 1e-10

    @given(
        q=st.integers(1, 10),
        n=st.integers(1, 4),
        num_gates=st.integers(1, 40),
        wide=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(q=10, n=4, num_gates=40, wide=2, seed=1)  # 6-qubit blocks and wide gates
    @settings(max_examples=40, deadline=None)
    def test_block_sweep_matches_kernel_sweep(self, q, n, num_gates, wide, seed):
        # the 2x2 kernel's own sweep over the whole circuit, step by step on
        # the state, is the reference for both outputs
        rng = np.random.default_rng(seed)
        circuit, params = random_circuit(rng, q, num_gates, wide if q > BLOCK_QUBITS else 0)
        out = rng.standard_normal((n, 2**q)) + 1j * rng.standard_normal((n, 2**q))
        lam = rng.standard_normal((n, 2**q)) + 1j * rng.standard_normal((n, 2**q))
        grad, lam0 = adjoint_sweep(out, lam, circuit, params)
        stacked = np.concatenate([out, lam])
        ref = _kernel_sweep(stacked, circuit, params)
        scale = max(1.0, np.abs(ref).max(initial=0.0))
        assert np.max(np.abs(grad - ref), initial=0.0) < 1e-12 * scale * 2**q
        assert np.max(np.abs(lam0 - stacked[n:])) < 1e-12

    def test_costate_pulls_back_to_the_input(self):
        # lam0 = U^dag lam, checked against the dense circuit matrix
        rng = np.random.default_rng(11)
        circuit, params = random_circuit(rng, 4, 30)
        out = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
        lam = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
        _, lam0 = adjoint_sweep(out, lam, circuit, params)
        dense = dense_circuit_matrix(circuit, params)
        assert np.max(np.abs(lam0 - lam @ dense.conj())) < 1e-12

    def test_inputs_unmodified_and_shapes_checked(self):
        rng = np.random.default_rng(12)
        circuit, params = random_circuit(rng, 3, 10)
        out = rng.standard_normal((2, 8)) + 0j
        lam = rng.standard_normal((2, 8)) + 0j
        before = (out.copy(), lam.copy())
        adjoint_sweep(out, lam, circuit, params)
        assert np.array_equal(out, before[0]) and np.array_equal(lam, before[1])
        with pytest.raises(SimulationError, match="costates"):
            adjoint_sweep(out, lam[:1], circuit, params)

    @given(
        encoder_kind=st.sampled_from(["angle", "amplitude"]),
        q=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_score_jacobian_matches_finite_differences(self, encoder_kind, q, seed):
        rng = np.random.default_rng(seed)
        d = q if encoder_kind == "angle" else int(rng.integers(1, 2**q + 1))
        model = build_model(
            EncoderSpec(encoder_kind, d), AnsatzSpec("entangling", 2, "full"), q,
            min(q, 2), seed=int(rng.integers(1 << 30)),
        )
        x = rng.uniform(0.1, 0.9, d)
        k = model.num_classes
        jac = input_grads(model, np.repeat(x[None, :], k, axis=0), lambda s: np.eye(k))[1]
        for c in range(k):
            fd = finite_diff_grad(lambda v, c=c: float(forward_batch(model, v[None, :])[1][0, c]), x, 1e-5)
            assert np.max(np.abs(jac[c] - fd)) < 1e-7

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_train_step_pass_count_independent_of_parameter_count(self, monkeypatch, layers):
        # one forward pass and one sweep per step, however many parameters:
        # guards against a per-parameter loop coming back
        import statecov.qnn as qnn

        calls = {"apply": 0, "sweep": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(qnn, "apply_circuit_batch", counting("apply", qnn.apply_circuit_batch))
        monkeypatch.setattr(qnn, "adjoint_sweep", counting("sweep", qnn.adjoint_sweep))
        model = build_model(
            EncoderSpec("angle", 3), AnsatzSpec("layered", layers, "linear"), 3, 2, seed=0
        )
        data = gaussian_blobs(2, 4, 3, seed=0)
        train(model, data, TrainConfig(epochs=1, batch_size=2, seed=0))
        # 4 steps of one pass, one loss pass per epoch; the last loss pass
        # gives the accuracy too
        assert calls == {"apply": 4 + 1, "sweep": 4}
