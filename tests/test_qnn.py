import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from statecov.attacks import AttackConfig
from statecov.files import FileFormatError, InputError
from statecov.fuzz import FuzzConfig
from statecov.qnn import (
    AnsatzSpec,
    EncoderSpec,
    LabeledDataset,
    TrainConfig,
    _row_blocks,
    angle_factors,
    build_ansatz_circuit,
    build_model,
    encode_batch,
    entanglement_pairs,
    forward_batch,
    load_model,
    save_model,
    scores_from_probs,
    softmax,
    train,
    z_sign_matrix,
)
from statecov.coverage import collect_prob_vectors
from statecov.sim import BLOCK_QUBITS, Gate

from fixtures import gaussian_blobs
from oracles import sample_frequencies


class TestEncoding:
    def test_amplitude_basis_vector(self):
        state = encode_batch(EncoderSpec("amplitude", 4), [[1, 0, 0, 0]], 2)[0]
        assert np.allclose(state, [1, 0, 0, 0], atol=1e-12)

    def test_amplitude_normalization(self):
        state = encode_batch(EncoderSpec("amplitude", 2), [[0.3, 0.4]], 1)[0]
        assert np.allclose(state, [0.6, 0.8], atol=1e-12)

    def test_angle_all_ones_is_all_excited(self):
        probs = np.abs(encode_batch(EncoderSpec("angle", 3), [[1, 1, 1]], 3)[0]) ** 2
        assert probs[-1] == pytest.approx(1.0, abs=1e-12)

    def test_angle_bit_order_big_endian(self):
        # only qubit 0 excited -> index 100 (binary) = 4
        probs = np.abs(encode_batch(EncoderSpec("angle", 3), [[1, 0, 0]], 3)[0]) ** 2
        assert probs[4] == pytest.approx(1.0, abs=1e-12)

    def test_amplitude_zero_vector_rejected(self):
        with pytest.raises(InputError, match="^data row 1 is all zeros"):
            encode_batch(EncoderSpec("amplitude", 2), [[0, 0]], 1)

    def test_amplitude_padding(self):
        state = encode_batch(EncoderSpec("amplitude", 3), [[0.5, 0.5, 0.5]], 2)[0]
        assert state[3] == 0
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12

    @given(n=st.integers(0, 5), q=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_angle_state_is_the_product_of_its_factors(self, n, q, seed):
        xs = np.random.default_rng(seed).uniform(0.0, 1.0, (n, q))
        factors = angle_factors(xs)
        assert factors.shape == (n, q, 2) and factors.dtype == np.float64
        assert np.array_equal(factors[..., 0], np.cos(np.pi * xs / 2.0))
        assert np.array_equal(factors[..., 1], np.sin(np.pi * xs / 2.0))
        # qubit 0 is the most significant bit: the Kronecker product from qubit 0 on
        states = encode_batch(EncoderSpec("angle", q), xs, q)
        assert states.dtype == np.complex128
        for row, pairs in zip(states, factors):
            expected = np.ones(1)
            for pair in pairs:
                expected = np.kron(expected, pair)
            assert np.array_equal(row, expected)

    @pytest.mark.parametrize("shape", [(3,), (1, 1, 3), ()])
    def test_feature_matrix_must_be_2d(self, shape):
        model = build_model(
            EncoderSpec("angle", 3), AnsatzSpec("layered", 1, "linear"), 3, 2, seed=0
        )
        xs = np.full(shape, 0.5)
        for call in (lambda: encode_batch(model.encoder, xs, 3), lambda: forward_batch(model, xs)):
            with pytest.raises(InputError, match=rf"2-D .* got shape {re.escape(str(shape))}"):
                call()


class TestAnsatzExpansion:
    @pytest.mark.parametrize(
        "strategy,expected",
        [("linear", 3), ("cyclic", 4), ("star", 3), ("full", 6)],
    )
    def test_entangler_counts(self, strategy, expected):
        assert len(entanglement_pairs(strategy, 4)) == expected

    def test_star_hub_is_qubit_zero(self):
        assert all(c == 0 for c, _ in entanglement_pairs("star", 5))

    @pytest.mark.parametrize("preset", ["layered", "entangling"])
    def test_param_count(self, preset):
        circ = build_ansatz_circuit(AnsatzSpec(preset, 3, "linear"), 4)
        assert circ.num_params == 3 * 4 * 3

    def test_layered_uses_cnot(self):
        circ = build_ansatz_circuit(AnsatzSpec("layered", 1, "cyclic"), 3)
        kinds = [g.kind for g in circ.gates]
        assert kinds.count(Gate.CNOT) == 3

    def test_entangling_uses_cz(self):
        circ = build_ansatz_circuit(AnsatzSpec("entangling", 2, "full"), 3)
        kinds = [g.kind for g in circ.gates]
        assert kinds.count(Gate.CZ) == 2 * 3


class TestForward:
    def test_zero_params_identity_scores(self):
        model = build_model(
            EncoderSpec("angle", 3), AnsatzSpec("layered", 2, "linear"), 3, 2, seed=0
        )
        model = model.with_params(np.zeros_like(model.params))
        _, scores = forward_batch(model, [[0.0, 0.0, 0.0]])
        assert np.allclose(scores, [[1.0, 1.0]], atol=1e-12)

    def test_scores_bounded(self):
        rng = np.random.default_rng(0)
        model = build_model(
            EncoderSpec("angle", 3), AnsatzSpec("entangling", 2, "star"), 3, 3, seed=1
        )
        _, scores = forward_batch(model, rng.uniform(0, 1, (10, 3)))
        assert np.all(scores >= -1.0 - 1e-12) and np.all(scores <= 1.0 + 1e-12)

    def test_marginal_consistency(self):
        # scores from the probability vector equal <Z> from the statevector
        from statecov.sim import apply_circuit_batch

        model = build_model(
            EncoderSpec("angle", 4), AnsatzSpec("layered", 2, "cyclic"), 4, 2, seed=2
        )
        x = np.array([0.1, 0.6, 0.3, 0.9])
        scores = forward_batch(model, x[None, :])[1][0]
        state = apply_circuit_batch(
            encode_batch(model.encoder, x[None, :], 4), model.circuit, model.params
        )[0]
        for c, qubit in enumerate(model.readout_qubits):
            z = z_sign_matrix([qubit], 4)[0]
            direct = float(np.sum(z * np.abs(state) ** 2))
            assert abs(scores[c] - direct) < 1e-10

    def test_sampled_scores_close_to_exact(self):
        model = build_model(
            EncoderSpec("angle", 3), AnsatzSpec("layered", 2, "linear"), 3, 2, seed=4
        )
        data = LabeledDataset([[0.2, 0.8, 0.5]], [0])
        probs, exact = forward_batch(model, data.features)
        freqs = collect_prob_vectors(model, data, shots=1_000_000, seed=1)
        sampled = scores_from_probs(freqs, model.readout_qubits, 3)
        assert np.max(np.abs(exact - sampled)) < 0.005
        assert np.array_equal(freqs[0], sample_frequencies(probs[0], 1_000_000, 1))

    @given(
        encoder=st.sampled_from(["angle", "amplitude"]),
        q=st.integers(1, 9),
        classes=st.integers(1, 4),
        n=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(encoder="angle", q=9, classes=2, n=7, seed=3)
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_rows_bit_for_bit(self, encoder, q, classes, n, seed):
        # a row's probabilities and scores must not depend on the batch it
        # comes in, so a batched argmax decides exactly as a one-row call
        rng = np.random.default_rng(seed)
        d = q if encoder == "angle" else int(rng.integers(1, 2**q + 1))
        model = build_model(
            EncoderSpec(encoder, d), AnsatzSpec("entangling", 2, "full"), q,
            min(classes, q), seed=int(rng.integers(1 << 30)),
        )
        if q == 9:  # several dense blocks, one on the lowest qubits, and wide gates
            widths = [(lo, block.num_qubits) for lo, block in model.circuit.blocks]
            dense = [(lo, w) for lo, w in widths if w <= BLOCK_QUBITS]
            assert len(dense) > 1 and any(lo + w == q for lo, w in dense)
            assert len(dense) < len(widths)
        xs = rng.uniform(0.05, 1.0, (n, d))
        probs, scores = forward_batch(model, xs)
        for i in range(n):
            p, s = forward_batch(model, xs[i : i + 1])
            assert np.array_equal(p[0], probs[i]) and np.array_equal(s[0], scores[i])
        # a sub-batch at an offset reduces its rows the same way
        assert np.array_equal(forward_batch(model, xs[1:])[1], scores[1:])

    @pytest.mark.parametrize("encoder, d", [("angle", 10), ("amplitude", 700)])
    def test_row_blocks_equal_rows_bit_for_bit(self, encoder, d):
        # 300 rows of 2^10 amplitudes run as three row blocks
        assert len(_row_blocks(300, 2**10)) == 3
        model = build_model(EncoderSpec(encoder, d), AnsatzSpec("entangling", 2, "full"), 10, 3, seed=5)
        xs = np.random.default_rng(5).uniform(0.05, 1.0, (300, d))
        probs, scores = forward_batch(model, xs)
        for i in range(300):
            p, s = forward_batch(model, xs[i : i + 1])
            assert np.array_equal(p[0], probs[i]) and np.array_equal(s[0], scores[i])


class TestTrain:
    def test_separable_blobs_reach_95(self):
        data = gaussian_blobs(2, 40, 4, spread=0.08, seed=7)
        model = build_model(
            EncoderSpec("angle", 4), AnsatzSpec("layered", 2, "linear"), 4, 2, seed=0
        )
        trained, history = train(
            model, data, TrainConfig(epochs=60, learning_rate=0.1, optimizer="adam", seed=0)
        )
        assert history["train_accuracy"] >= 0.95
        assert len(history["loss"]) == 60

    @pytest.mark.parametrize("config", [TrainConfig, AttackConfig, FuzzConfig], ids=lambda c: c.__name__)
    def test_negative_seed_named(self, config):
        with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
            config(seed=-1)

    def test_zero_learning_rate_is_inert(self):
        data = gaussian_blobs(2, 10, 4, seed=1)
        model = build_model(
            EncoderSpec("angle", 4), AnsatzSpec("layered", 1, "linear"), 4, 2, seed=0
        )
        trained, history = train(
            model, data, TrainConfig(epochs=5, learning_rate=0.0, optimizer="sgd", seed=0)
        )
        assert np.array_equal(trained.params, model.params)
        assert len(set(history["loss"])) == 1

    def test_deterministic_per_seed(self):
        data = gaussian_blobs(2, 10, 4, seed=2)
        model = build_model(
            EncoderSpec("angle", 4), AnsatzSpec("layered", 1, "linear"), 4, 2, seed=0
        )
        cfg = TrainConfig(epochs=5, learning_rate=0.05, batch_size=8, optimizer="adam", seed=3)
        _, h1 = train(model, data, cfg)
        _, h2 = train(model, data, cfg)
        assert h1["loss"] == h2["loss"]

    def test_single_class_rejected(self):
        data = LabeledDataset(np.random.default_rng(0).uniform(0, 1, (10, 4)), np.zeros(10))
        model = build_model(
            EncoderSpec("angle", 4), AnsatzSpec("layered", 1, "linear"), 4, 2, seed=0
        )
        with pytest.raises(InputError, match="at least 2 classes"):
            train(model, data, TrainConfig(epochs=1))

    @pytest.mark.parametrize("fixture", ["toy4", "grid6"])
    def test_history_agrees_with_forward_batch(self, request, fixture):
        # train scores its loss and accuracy passes as forward_batch does,
        # so the reported accuracy is forward_batch's argmax, ties included
        trained, history = request.getfixturevalue(f"{fixture}_training")
        data = request.getfixturevalue(f"{fixture}_train_data")
        _, scores = forward_batch(trained, data.features)
        accuracy = float((np.argmax(scores, axis=1) == data.labels).mean())
        assert history["train_accuracy"] == accuracy
        p = softmax(scores)[np.arange(len(data)), data.labels]
        loss = float(-np.log(p).mean())
        assert history["loss"][-1] == loss

    @pytest.mark.parametrize("batch_size", [None, 8], ids=["full", "minibatch"])
    def test_one_forward_batch_per_epoch(self, batch_size, monkeypatch):
        # a minibatch epoch's loss pass is train's only forward_batch call; a
        # full batch reads each epoch's loss off the next step's pass, so only
        # the last epoch has one. The final accuracy is read off the last pass.
        import statecov.qnn as qnn

        calls = []
        inner = qnn.forward_batch

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(qnn, "forward_batch", counting)
        data = gaussian_blobs(2, 10, 4, seed=2)
        model = build_model(
            EncoderSpec("angle", 4), AnsatzSpec("layered", 1, "linear"), 4, 2, seed=0
        )
        train(model, data, TrainConfig(epochs=4, batch_size=batch_size, seed=0))
        assert len(calls) == (1 if batch_size is None else 4)

    def test_loss_mostly_non_increasing(self):
        # stochastic optimizers may wobble; demand non-increase in >= 80% of runs
        ok = 0
        data = gaussian_blobs(2, 20, 4, spread=0.08, seed=5)
        for seed in range(5):
            model = build_model(
                EncoderSpec("angle", 4), AnsatzSpec("layered", 1, "linear"), 4, 2, seed=seed
            )
            _, h = train(
                model, data, TrainConfig(epochs=15, learning_rate=0.05, optimizer="adam", seed=seed)
            )
            if h["loss"][-1] <= h["loss"][0]:
                ok += 1
        assert ok >= 4


class TestPersistence:
    @given(
        encoder=st.sampled_from(["angle", "amplitude"]),
        q=st.integers(1, 5),
        preset=st.sampled_from(["layered", "entangling"]),
        entanglement=st.sampled_from(["linear", "cyclic", "star", "full"]),
        layers=st.integers(1, 3),
        digest=st.none() | st.text(max_size=20),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_save_load_round_trip_is_bit_exact(
        self, tmp_path_factory, encoder, q, preset, entanglement, layers, digest, data
    ):
        d = q if encoder == "angle" else data.draw(st.integers(1, 2**q))
        readout = data.draw(st.permutations(range(q)))[: data.draw(st.integers(1, q))]
        model = replace(build_model(
            EncoderSpec(encoder, d), AnsatzSpec(preset, layers, entanglement), q, len(readout)
        ), readout_qubits=tuple(readout))
        model = model.with_params(
            data.draw(st.lists(
                st.floats(allow_nan=False, allow_infinity=False),
                min_size=model.circuit.num_params, max_size=model.circuit.num_params,
            ))
        )
        model.train_data_digest = digest
        path = tmp_path_factory.mktemp("model") / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.params.tobytes() == model.params.tobytes()
        for field in ("encoder", "ansatz", "num_qubits", "circuit", "readout_qubits",
                      "num_classes", "train_data_digest"):
            assert getattr(loaded, field) == getattr(model, field)
        save_model(loaded, path.with_name("again.json"))
        assert path.with_name("again.json").read_text() == path.read_text()

    @pytest.mark.parametrize("preset", ["layered", "entangling"])
    def test_round_trip(self, preset, tmp_path):
        model = build_model(
            EncoderSpec("angle", 3), AnsatzSpec(preset, 2, "cyclic"), 3, 2, seed=9
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.params, model.params)
        assert loaded.encoder == model.encoder
        assert loaded.ansatz == model.ansatz
        assert loaded.readout_qubits == model.readout_qubits

    def test_forward_identical_after_round_trip(self, tmp_path):
        model = build_model(
            EncoderSpec("amplitude", 8), AnsatzSpec("layered", 2, "full"), 3, 2, seed=11
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        x = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        _, s1 = forward_batch(model, x[None, :])
        _, s2 = forward_batch(loaded, x[None, :])
        assert np.max(np.abs(s1 - s2)) < 1e-15

    def test_truncated_file_rejected(self, tmp_path):
        model = build_model(
            EncoderSpec("angle", 2), AnsatzSpec("layered", 1, "linear"), 2, 2, seed=0
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(FileFormatError):
            load_model(path)

    def test_out_of_range_readout_qubit_rejected(self, tmp_path):
        import json

        model = build_model(
            EncoderSpec("angle", 4), AnsatzSpec("layered", 1, "linear"), 4, 2, seed=0
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["readout_qubits"] = [0, 7]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="readout_qubits"):
            load_model(path)
        with pytest.raises(ValueError, match="readout_qubits"):
            replace(build_model(
                EncoderSpec("angle", 4), AnsatzSpec("layered", 1, "linear"), 4, 2
            ), readout_qubits=(-1, 0))

    def test_encoder_invariants_enforced_on_load(self, tmp_path):
        import json

        model = build_model(
            EncoderSpec("angle", 4), AnsatzSpec("layered", 1, "linear"), 4, 2, seed=0
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["encoder"]["input_dim"] = 3
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="encoder.input_dim"):
            load_model(path)
        doc["encoder"] = {"kind": "amplitude", "input_dim": 17}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="encoder.input_dim"):
            load_model(path)

    def test_missing_field_names_path(self, tmp_path):
        import json

        model = build_model(
            EncoderSpec("angle", 2), AnsatzSpec("layered", 1, "linear"), 2, 2, seed=0
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        del doc["encoder"]["kind"]
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="encoder.kind"):
            load_model(path)
