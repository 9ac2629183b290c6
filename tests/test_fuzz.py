import importlib
import json
from collections import deque

import numpy as np
import pytest

from statecov.coverage import CoverageConfig, CoverageTracker, collect_prob_vectors, profile
from statecov.datasets import gaussian_blobs
from statecov.fuzz import (
    FuzzConfig,
    FuzzOutcome,
    FuzzSeed,
    fuzz,
    mutate,
    random_test,
    save_outcome,
)
from statecov.qnn import AnsatzSpec, EncoderSpec, LabeledDataset, TrainConfig, build_model, train

from oracles import _eval_one

fuzz_module = importlib.import_module("statecov.fuzz")  # the package re-exports fuzz()


def _seed(x, label=0, reference=None):
    x = np.asarray(x, dtype=np.float64)
    return FuzzSeed(x.copy(), label, x.copy() if reference is None else reference)


class TestMutate:
    def test_stays_in_unit_box_and_budget(self):
        rng = np.random.default_rng(0)
        base = _seed(rng.uniform(0, 1, 16))
        alpha = 0.15
        cur = base
        for _ in range(50):
            cur = mutate(cur, rng, alpha)
            assert np.all(cur.features >= 0) and np.all(cur.features <= 1)
            assert np.max(np.abs(cur.features - base.reference)) <= alpha + 1e-12

    def test_depth_and_lineage_tracked(self):
        rng = np.random.default_rng(1)
        s = _seed(np.full(9, 0.5), label=1)
        s.origin = 7
        m = mutate(mutate(s, rng, 0.3), rng, 0.3)
        assert m.mutation_depth == 2
        assert m.label == 1
        assert m.origin == 7
        assert np.array_equal(m.reference, s.reference)

    def test_operator_mix_is_uniform(self):
        # chi-squared over 4 operators at 2000 draws; crit value 16.27 (p=0.001)
        rng = np.random.default_rng(2)
        counts = np.zeros(4)
        probe = np.random.default_rng(2)
        for _ in range(2000):
            counts[int(probe.integers(4))] += 1
        chi2 = np.sum((counts - 500) ** 2 / 500)
        assert chi2 < 16.27

    def test_translation_on_square_grid(self):
        # force the translation operator by seeding until features move as a shift
        rng = np.random.default_rng(3)
        img = np.zeros(16)
        img[5] = 1.0  # row 1, col 1 of a 4x4 grid
        found_shift = False
        for _ in range(100):
            m = mutate(_seed(img), rng, 1.0)
            if np.count_nonzero(m.features) == 1 and m.features[5] == 0:
                moved = int(np.flatnonzero(m.features)[0])
                assert moved in (1, 9, 4, 6)  # up, down, left, right
                found_shift = True
                break
        assert found_shift

    def test_alpha_zero_pins_to_reference(self):
        rng = np.random.default_rng(4)
        s = _seed(np.full(4, 0.4))
        m = mutate(s, rng, 0.0)
        assert np.array_equal(m.features, s.reference)


@pytest.fixture(scope="module")
def toy_setup(toy4_model, toy4_train_data):
    prof = profile(toy4_model, toy4_train_data)
    seeds = LabeledDataset(toy4_train_data.features[:10], toy4_train_data.labels[:10])
    return toy4_model, seeds, prof


@pytest.fixture(scope="module")
def boundary_setup(toy4_model, toy4_train_data):
    """toy_setup with the 10 training rows of smallest score margin as seeds:
    from the first 10 rows no SCC, KSC or TSC run at seeds 1-2 finds a
    failure, and from these the SCC run at seed 1 and the KSC run at seed 2
    each find one."""
    from statecov.qnn import forward_batch

    _, scores = forward_batch(toy4_model, toy4_train_data.features)
    assert np.array_equal(np.argmax(scores, axis=1), toy4_train_data.labels)
    nearest = np.argsort(np.abs(scores[:, 0] - scores[:, 1]), kind="stable")[:10]
    return toy4_model, toy4_train_data.subset(nearest), profile(toy4_model, toy4_train_data)


class TestFuzzLoop:
    def test_deterministic_per_seed(self, toy_setup):
        model, seeds, prof = toy_setup
        cfg = FuzzConfig(criterion="ksc", max_iterations=200, seed=5)
        a = fuzz(model, seeds, prof, cfg)
        b = fuzz(model, seeds, prof, cfg)
        assert a.tsr == b.tsr
        assert a.iterations == b.iterations
        assert len(a.failed_cases) == len(b.failed_cases)
        for fa, fb in zip(a.failed_cases, b.failed_cases):
            assert np.array_equal(fa.features, fb.features)

    def test_budget_respected(self, toy_setup):
        model, seeds, prof = toy_setup
        cfg = FuzzConfig(criterion="ksc", max_iterations=150, seed=0)
        out = fuzz(model, seeds, prof, cfg)
        assert out.iterations <= 150
        rnd = random_test(model, seeds, prof, cfg)
        assert rnd.iterations == 150  # unit re-enqueue keeps the queue alive

    def test_failed_cases_all_misclassify(self, boundary_setup):
        model, seeds, prof = boundary_setup
        out = fuzz(model, seeds, prof, FuzzConfig(criterion="scc", max_iterations=400, seed=1))
        assert out.failed_cases
        for case in out.failed_cases:
            assert _eval_one(model, case.features)[1] != case.label

    def test_tsr_definition(self, boundary_setup):
        model, seeds, prof = boundary_setup
        out = fuzz(model, seeds, prof, FuzzConfig(criterion="ksc", max_iterations=400, seed=2))
        assert out.failed_cases
        origins = {c.origin for c in out.failed_cases}
        assert out.tsr == pytest.approx(100.0 * len(origins) / out.num_initial_seeds)
        assert 0.0 <= out.tsr <= 100.0

    def test_coverage_monotone_over_run(self, toy_setup):
        model, seeds, prof = toy_setup
        out = fuzz(model, seeds, prof, FuzzConfig(criterion="ksc", max_iterations=300, seed=3))
        assert out.coverage_after.ksc >= out.coverage_before.ksc
        assert out.coverage_after.scc >= out.coverage_before.scc
        assert out.coverage_after.tsc >= out.coverage_before.tsc

    def test_constant_model_zero_tsr(self, toy4_train_data):
        # an untrained-but-accurate-on-one-class setup: give the model only
        # seeds it classifies correctly and a zero mutation budget, so every
        # mutant equals its ancestor and cannot fail
        from statecov.qnn import AnsatzSpec, EncoderSpec, build_model, forward_batch

        model = build_model(
            EncoderSpec("angle", 4), AnsatzSpec("layered", 1, "linear"), 4, 2, seed=0
        )
        _, scores = forward_batch(model, toy4_train_data.features)
        preds = np.argmax(scores, axis=1)
        keep = preds == toy4_train_data.labels
        assert keep.sum() >= 2
        seeds = LabeledDataset(
            toy4_train_data.features[keep][:5], toy4_train_data.labels[keep][:5]
        )
        prof = profile(model, seeds)
        out = fuzz(model, seeds, prof, FuzzConfig(criterion="ksc", alpha=0.0, max_iterations=100, seed=0))
        assert out.tsr == 0.0
        assert out.failed_cases == []

    def test_misclassified_seeds_excluded(self, toy4_model, toy4_train_data):
        from statecov.qnn import forward_batch

        _, scores = forward_batch(toy4_model, toy4_train_data.features)
        preds = np.argmax(scores, axis=1)
        prof = profile(toy4_model, toy4_train_data)
        out = fuzz(
            toy4_model,
            toy4_train_data,
            prof,
            FuzzConfig(criterion="ksc", max_iterations=10, seed=0),
        )
        assert out.num_initial_seeds == int((preds == toy4_train_data.labels).sum())

    def test_empty_seed_set_rejected(self, toy4_model):
        prof_dummy = profile(
            toy4_model,
            LabeledDataset(np.full((2, 4), 0.5), np.array([0, 1])),
        )
        with pytest.raises(ValueError):
            fuzz(
                toy4_model,
                LabeledDataset(np.empty((0, 4)), np.empty(0)),
                prof_dummy,
                FuzzConfig(),
            )

    def test_tracker_state_equals_batch_recompute(self, toy_setup):
        # after a guided run, tracker contents must equal a batch pass over
        # the initial suite plus every committed mutant; verify via the
        # reported coverage by replaying with the same rng
        model, seeds, prof = toy_setup
        cfg = FuzzConfig(criterion="ksc", max_iterations=200, seed=9)
        out = fuzz(model, seeds, prof, cfg)

        from statecov.fuzz import _CRITERION_FLAG, _initial_queue, mutate as _mutate
        from collections import deque

        rng = np.random.default_rng(cfg.seed)
        queue = deque(_initial_queue(model, seeds)[0])
        committed = [pv for pv in collect_prob_vectors(model, seeds)]
        flag = _CRITERION_FLAG[cfg.criterion]
        shadow = CoverageTracker(prof, cfg.coverage)
        for pv in committed:
            shadow.add_input(pv)
        it = 0
        extra = []
        while queue and it < cfg.max_iterations:
            it += 1
            s = queue.popleft()
            m = _mutate(s, rng, cfg.alpha)
            pv, pred = _eval_one(model, m.features)
            if pred != m.label:
                shadow.add_input(pv)
                extra.append(pv)
                continue
            if shadow.peek_input(pv)[flag]:
                shadow.add_input(pv)
                extra.append(pv)
                queue.append(m)

        batch = CoverageTracker(prof, cfg.coverage)
        for pv in committed + extra:
            batch.add_input(pv)
        assert batch.cells.sum() == shadow.cells.sum()
        assert out.coverage_after.ksc == batch.report().ksc

    def test_random_baseline_reenqueue_prob(self, toy_setup):
        model, seeds, prof = toy_setup
        cfg = FuzzConfig(criterion="ksc", max_iterations=300, seed=4)
        full = random_test(model, seeds, prof, cfg, reenqueue_prob=1.0)
        none = random_test(model, seeds, prof, cfg, reenqueue_prob=0.0)
        assert full.reenqueue_rate == 1.0
        assert none.reenqueue_rate == 0.0
        # with no re-enqueuing the queue drains after one pass over the seeds
        assert none.iterations <= full.iterations

    def test_save_outcome(self, toy_setup, tmp_path):
        model, seeds, prof = toy_setup
        cfg = FuzzConfig(criterion="tsc", max_iterations=300, seed=6)
        out = fuzz(model, seeds, prof, cfg)
        save_outcome(out, cfg, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["tsr"] == out.tsr
        assert summary["num_failed_cases"] == len(out.failed_cases)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["criterion"] == "tsc"
        assert manifest["seed"] == 6
        if out.failed_cases:
            assert (tmp_path / "failed_cases.csv").exists()


def _sequential_loop(model, seeds, prof, config, guided, reenqueue_prob=1.0):
    """Reference loop: pop one seed, mutate it, evaluate it as a one-row
    batch, gate it with peek_input/add_input. Returns the outcome, the number
    of generations (the queue's contents at the start of each) it went
    through and whether the budget ended one part-way."""
    rng = np.random.default_rng(config.seed)
    initial, _ = fuzz_module._initial_queue(model, seeds)
    tracker = CoverageTracker(prof, config.coverage)
    for pv in collect_prob_vectors(model, seeds):
        tracker.add_input(pv)
    before = tracker.report()
    queue = deque(initial)
    failed, origins = [], set()
    flag = fuzz_module._CRITERION_FLAG[config.criterion]
    iterations = non_failing = re_enqueued = generations = gen_left = 0
    while queue and iterations < config.max_iterations:
        if gen_left == 0:
            generations += 1
            gen_left = len(queue)
        gen_left -= 1
        iterations += 1
        m = mutate(queue.popleft(), rng, config.alpha)
        pv, pred = _eval_one(model, m.features)
        if pred != m.label:
            tracker.add_input(pv)
            failed.append(m)
            origins.add(m.origin)
            continue
        non_failing += 1
        if guided:
            if tracker.peek_input(pv)[flag]:
                tracker.add_input(pv)
                queue.append(m)
                re_enqueued += 1
        elif rng.random() < reenqueue_prob:
            queue.append(m)
            re_enqueued += 1
    outcome = FuzzOutcome(
        failed_cases=failed,
        tsr=100.0 * len(origins) / len(initial),
        iterations=iterations,
        coverage_before=before,
        coverage_after=tracker.report(),
        num_initial_seeds=len(initial),
        reenqueue_rate=re_enqueued / non_failing if non_failing else 0.0,
    )
    return outcome, generations, gen_left > 0


def _assert_same_outcome(got, ref):
    assert got.iterations == ref.iterations
    assert got.tsr == ref.tsr
    assert got.reenqueue_rate == ref.reenqueue_rate
    assert got.num_initial_seeds == ref.num_initial_seeds
    assert got.coverage_before == ref.coverage_before
    assert got.coverage_after == ref.coverage_after
    assert len(got.failed_cases) == len(ref.failed_cases)
    for a, b in zip(got.failed_cases, ref.failed_cases):
        assert np.array_equal(a.features, b.features)
        assert (a.label, a.origin, a.mutation_depth) == (b.label, b.origin, b.mutation_depth)


@pytest.fixture(scope="module")
def weak_setup():
    # a briefly trained model on overlapping blobs: mutants fail often
    data = gaussian_blobs(num_classes=2, samples_per_class=20, num_features=4, spread=0.3, seed=2)
    model = build_model(EncoderSpec("angle", 4), AnsatzSpec("layered", 2, "linear"), 4, 2, seed=0)
    model, _ = train(model, data, TrainConfig(epochs=5, learning_rate=0.1, seed=0))
    return model, data, profile(model, data)


# 28 of the 40 seeds are classified correctly: a budget of 20 ends the first
# generation part-way, 29 the second unless it holds a single mutant
BUDGETS = (20, 29, 300)


class TestGenerationBatching:
    @pytest.mark.parametrize("criterion", ["ksc", "scc", "tsc"])
    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("coverage", [CoverageConfig(), CoverageConfig(k_cells=1000, top_k=2)])
    def test_guided_equals_sequential(self, weak_setup, criterion, budget, coverage):
        model, data, prof = weak_setup
        cfg = FuzzConfig(criterion=criterion, max_iterations=budget, alpha=0.3, seed=3, coverage=coverage)
        ref, _, cut = _sequential_loop(model, data, prof, cfg, guided=True)
        assert ref.failed_cases
        assert cut or budget != 20
        _assert_same_outcome(fuzz(model, data, prof, cfg), ref)

    @pytest.mark.parametrize("criterion", ["ksc", "scc", "tsc"])
    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("reenqueue_prob", [0.0, 0.5, 1.0])
    def test_random_equals_sequential(self, weak_setup, criterion, budget, reenqueue_prob):
        model, data, prof = weak_setup
        cfg = FuzzConfig(criterion=criterion, max_iterations=budget, alpha=0.3, seed=4)
        ref, _, _ = _sequential_loop(model, data, prof, cfg, guided=False, reenqueue_prob=reenqueue_prob)
        assert ref.failed_cases
        _assert_same_outcome(random_test(model, data, prof, cfg, reenqueue_prob), ref)

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        inner = fuzz_module.forward_batch

        def counting(model, xs, *args, **kwargs):
            calls.append(len(xs))
            return inner(model, xs, *args, **kwargs)

        monkeypatch.setattr(fuzz_module, "forward_batch", counting)
        return calls

    def test_guided_one_forward_batch_per_generation(self, weak_setup, counted):
        model, data, prof = weak_setup
        cfg = FuzzConfig(criterion="ksc", max_iterations=300, alpha=0.3, seed=3)
        _, generations, _ = _sequential_loop(model, data, prof, cfg, guided=True)
        counted.clear()
        out = fuzz(model, data, prof, cfg)
        # the initial queue's pass, then one pass over each generation
        assert len(counted) == 1 + generations
        assert sum(counted[1:]) == out.iterations

    def test_random_one_more_batch_per_failure_at_most(self, weak_setup, counted):
        model, data, prof = weak_setup
        cfg = FuzzConfig(criterion="ksc", max_iterations=300, alpha=0.3, seed=4)
        _, generations, _ = _sequential_loop(model, data, prof, cfg, guided=False)
        counted.clear()
        out = random_test(model, data, prof, cfg)
        assert out.failed_cases
        assert 1 + generations <= len(counted) <= 1 + generations + len(out.failed_cases)


class TestConfigValidation:
    def test_bad_criterion(self):
        with pytest.raises(ValueError):
            FuzzConfig(criterion="branch")

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            FuzzConfig(alpha=-0.1)
