import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from statecov.attacks import AttackConfig, _rounding_zeroed, attack_suite
from statecov.gradients import input_grads
from statecov.qnn import AnsatzSpec, EncoderSpec, LabeledDataset, build_model, forward_batch


def _one_row(x, label=0):
    return LabeledDataset(np.asarray(x, dtype=np.float64)[None, :], [label])


class TestConfig:
    def test_defaults(self):
        cfg = AttackConfig()
        assert cfg.epsilon == pytest.approx(64 / 255)
        assert cfg.theta == 1.0
        assert cfg.gamma == 0.1

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            AttackConfig(kind="pgd")

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            AttackConfig(epsilon=-0.1)

    @pytest.mark.parametrize("kind", ["random", "fgsm", "jsma"])
    def test_epsilon_above_half_the_float_range(self, kind, toy4_model):
        # the random attack's uniform(-eps, eps) needs a finite 2 eps; one rule for every kind
        with pytest.raises(ValueError, match="epsilon must be in"):
            AttackConfig(kind=kind, epsilon=1e308)
        cfg = AttackConfig(kind=kind, epsilon=sys.float_info.max / 2)
        adv, _ = attack_suite(toy4_model, _one_row([0.1, 0.9, 0.5, 0.3]), cfg)
        assert np.all((adv.features >= 0) & (adv.features <= 1))


class TestRandomPerturb:
    def test_linf_bound_and_range(self, toy4_model):
        data = LabeledDataset(np.random.default_rng(0).uniform(0, 1, (10, 4)), np.zeros(10))
        adv, _ = attack_suite(toy4_model, data, AttackConfig(kind="random", epsilon=0.25))
        assert np.max(np.abs(adv.features - data.features)) <= 0.25 + 1e-12
        assert np.all(adv.features >= 0) and np.all(adv.features <= 1)

    def test_zero_epsilon_identity(self, toy4_model):
        data = _one_row([0.1, 0.9, 0.5, 0.3])
        adv, _ = attack_suite(toy4_model, data, AttackConfig(kind="random", epsilon=0.0, seed=3))
        assert np.array_equal(adv.features, data.features)

    def test_deterministic_per_seed(self, toy4_model):
        data = _one_row(np.full(4, 0.5))
        a, b, c = (
            attack_suite(toy4_model, data, AttackConfig(kind="random", epsilon=0.2, seed=s))[0]
            for s in (7, 7, 8)
        )
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)


class TestFgsm:
    def test_zero_epsilon_identity(self, toy4_model):
        data = _one_row([0.3, 0.4, 0.5, 0.6])
        adv, _ = attack_suite(toy4_model, data, AttackConfig(kind="fgsm", epsilon=0.0))
        assert np.array_equal(adv.features, data.features)

    def test_linf_bound_and_range(self, toy4_model, toy4_train_data):
        eps = 64 / 255
        data = toy4_train_data.subset(np.arange(10))
        adv, _ = attack_suite(toy4_model, data, AttackConfig(kind="fgsm", epsilon=eps))
        assert np.max(np.abs(adv.features - data.features)) <= eps + 1e-12
        assert np.all(adv.features >= 0) and np.all(adv.features <= 1)

    def test_beats_random_on_trained_model(self, toy4_model, toy4_train_data):
        eps = 64 / 255
        data = LabeledDataset(toy4_train_data.features[:40], toy4_train_data.labels[:40])
        _, asr_fgsm = attack_suite(toy4_model, data, AttackConfig(kind="fgsm", epsilon=eps))
        _, asr_rand = attack_suite(
            toy4_model, data, AttackConfig(kind="random", epsilon=eps, seed=0)
        )
        assert asr_fgsm >= asr_rand

    def test_success_flag_consistent(self, toy4_model, toy4_train_data):
        for i in range(5):
            data = toy4_train_data.subset([i])
            adv, asr = attack_suite(toy4_model, data, AttackConfig(kind="fgsm", epsilon=64 / 255))
            _, scores = forward_batch(toy4_model, adv.features)
            assert asr == float(np.argmax(scores[0]) != data.labels[0])


class TestJsma:
    def test_l0_budget(self, toy4_model, toy4_train_data):
        gamma = 0.5
        budget = math.ceil(gamma * 4)
        data = toy4_train_data.subset(np.arange(10))
        adv, _ = attack_suite(toy4_model, data, AttackConfig(kind="jsma", theta=1.0, gamma=gamma))
        assert np.all(np.sum(adv.features != data.features, axis=1) <= budget)
        assert np.all(adv.features >= 0) and np.all(adv.features <= 1)

    def test_modified_features_pushed_up(self, toy4_model, toy4_train_data):
        # theta is positive, so touched features only ever increase
        data = toy4_train_data.subset(np.arange(10))
        adv, _ = attack_suite(toy4_model, data, AttackConfig(kind="jsma", theta=1.0, gamma=0.5))
        changed = adv.features != data.features
        assert np.all(adv.features[changed] >= data.features[changed])

    def test_zero_gamma_touches_nothing(self, toy4_model, toy4_train_data):
        data = toy4_train_data.subset([0])
        adv, _ = attack_suite(toy4_model, data, AttackConfig(kind="jsma", theta=1.0, gamma=0.0))
        assert np.array_equal(adv.features, data.features)

    def test_finds_flips_on_trained_model(self, toy4_model, toy4_train_data):
        data = LabeledDataset(toy4_train_data.features[:40], toy4_train_data.labels[:40])
        _, asr = attack_suite(
            toy4_model, data, AttackConfig(kind="jsma", theta=1.0, gamma=0.5)
        )
        assert asr > 0.0


    def test_three_classes_push_toward_the_runner_up(self):
        # the step favours the second-highest class over the true one; with
        # three classes that is not the lowest-scoring one
        ansatz = AnsatzSpec("layered", 2, "cyclic")
        model = build_model(EncoderSpec("angle", 4), ansatz, 4, 3, seed=1)
        xs = np.random.default_rng(2).uniform(0.0, 0.6, (40, 4))
        _, scores = forward_batch(model, xs)
        labels = np.argmax(scores, axis=1)  # every row starts correctly classified
        config = AttackConfig(kind="jsma", gamma=0.25)
        adv, _ = attack_suite(model, LabeledDataset(xs, labels), config)

        def bumped(x, truth, target):  # the feature one JSMA round bumps, or None
            w = np.zeros((1, 3))
            w[0, target] += 1.0
            w[0, truth] -= 1.0
            grad = input_grads(model, x[None], lambda _: w)[1][0]
            return int(np.argmax(grad)) if grad.max() > 0 else None

        differs = 0
        for x, truth, row, s in zip(xs, labels, adv.features, scores):
            ranked = sorted(range(3), key=lambda c: -s[c])
            best = bumped(x, truth, ranked[1])
            expected = x.copy()
            if best is not None:
                expected[best] = 1.0
            assert np.array_equal(row, expected)
            differs += bumped(x, truth, ranked[2]) != best
        assert differs  # the lowest class would have moved some row elsewhere


class TestRoundingZeroed:
    def test_small_but_real_gradients_kept(self):
        # rounding noise sits near 1e-16 of the largest entry; a gradient
        # between 1e-10 and 1e-6 of it is real and must steer FGSM and JSMA
        grads = np.array([[1.0, -1e-8, 3e-7, 1e-12, -5e-11], [0.0, 0.0, 0.0, 0.0, 0.0]])
        expected = np.array([[1.0, -1e-8, 3e-7, 0.0, 0.0], [0.0] * 5])
        assert np.array_equal(_rounding_zeroed(grads), expected)


class TestAttackSuite:
    def test_labels_preserved(self, toy4_model, toy4_train_data):
        adv, _ = attack_suite(
            toy4_model, toy4_train_data, AttackConfig(kind="random", epsilon=0.1)
        )
        assert np.array_equal(adv.labels, toy4_train_data.labels)
        assert adv.features.shape == toy4_train_data.features.shape

    def test_asr_in_unit_interval(self, toy4_model, toy4_train_data):
        for kind in ("random", "fgsm", "jsma"):
            _, asr = attack_suite(toy4_model, toy4_train_data, AttackConfig(kind=kind))
            assert 0.0 <= asr <= 1.0

    def test_deterministic(self, toy4_model, toy4_train_data):
        cfg = AttackConfig(kind="random", epsilon=0.2, seed=11)
        a, asr_a = attack_suite(toy4_model, toy4_train_data, cfg)
        b, asr_b = attack_suite(toy4_model, toy4_train_data, cfg)
        assert np.array_equal(a.features, b.features)
        assert asr_a == asr_b


def _per_row(model, data, config):
    """attack_suite on each row alone, as a one-row suite with its batch seed."""
    rows = [
        attack_suite(model, data.subset([i]), replace(config, seed=config.seed + i))
        for i in range(len(data))
    ]
    return np.concatenate([adv.features for adv, _ in rows]), np.mean([asr for _, asr in rows])


class TestBatchedEqualsPerRow:
    @pytest.mark.parametrize("fixture", ["toy4", "grid6"])
    def test_fgsm_suite_equals_per_row(self, fixture, request):
        model = request.getfixturevalue(f"{fixture}_model")
        data = request.getfixturevalue(f"{fixture}_train_data")
        cfg = AttackConfig(kind="fgsm", epsilon=64 / 255)
        adv, asr = attack_suite(model, data, cfg)
        features, mean_asr = _per_row(model, data, cfg)
        assert np.array_equal(adv.features, features)
        assert asr == mean_asr

    @pytest.mark.parametrize("fixture", ["toy4", "grid6"])
    def test_jsma_suite_equals_per_row(self, fixture, request):
        model = request.getfixturevalue(f"{fixture}_model")
        data = request.getfixturevalue(f"{fixture}_train_data").subset(np.arange(0, 80, 4))
        cfg = AttackConfig(kind="jsma", theta=1.0, gamma=0.5)
        adv, asr = attack_suite(model, data, cfg)
        features, mean_asr = _per_row(model, data, cfg)
        assert np.array_equal(adv.features, features)
        assert asr == mean_asr

    def test_random_suite_equals_per_row_seeds(self, toy4_model, toy4_train_data):
        cfg = AttackConfig(kind="random", epsilon=0.2, seed=11)
        adv, _ = attack_suite(toy4_model, toy4_train_data, cfg)
        assert np.array_equal(adv.features, _per_row(toy4_model, toy4_train_data, cfg)[0])

    @pytest.mark.parametrize("kind", ["random", "fgsm", "jsma"])
    def test_empty_suite(self, toy4_model, kind):
        adv, asr = attack_suite(
            toy4_model, LabeledDataset(np.zeros((0, 4)), np.zeros(0)), AttackConfig(kind=kind)
        )
        assert adv.features.shape == (0, 4) and asr == 0.0

    def test_feature_outside_light_cone_left_alone(self, toy4_model, toy4_train_data):
        # with linear CNOTs 0->1->2->3 qubit 3 never reaches readout qubits 0
        # and 1, so its exact gradient is zero and no attack step may move it
        for cfg in (AttackConfig(kind="fgsm"), AttackConfig(kind="jsma", gamma=1.0)):
            adv, _ = attack_suite(toy4_model, toy4_train_data, cfg)
            assert np.array_equal(adv.features[:, 3], toy4_train_data.features[:, 3])


def test_random_row_clipped_to_zeros_keeps_clean_features():
    """Under amplitude encoding an all-zero row has no state, so a perturbed
    row that clips to zeros is written and scored with its clean features."""
    model = build_model(EncoderSpec("amplitude", 4), AnsatzSpec("layered", 1, "linear"), 2, 2, seed=0)
    data = LabeledDataset(np.random.default_rng(0).uniform(0.02, 0.08, (300, 4)), np.zeros(300))
    adv, asr = attack_suite(model, data, AttackConfig(kind="random", epsilon=0.1, seed=0))
    noisy = np.clip(
        data.features
        + np.array([np.random.default_rng(i).uniform(-0.1, 0.1, 4) for i in range(300)]),
        0.0, 1.0,
    )
    dead = ~noisy.any(axis=1)
    assert dead.any()
    assert np.array_equal(adv.features[dead], data.features[dead])
    assert np.array_equal(adv.features[~dead], noisy[~dead])
    _, scores = forward_batch(model, adv.features)
    assert asr == float((np.argmax(scores, axis=1) != 0).mean())
