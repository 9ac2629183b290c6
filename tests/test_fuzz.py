import copy
import importlib
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statecov.coverage import CoverageConfig, CoverageTracker, collect_prob_vectors, profile
from statecov.fuzz import FuzzConfig, FuzzOutcome, fuzz, mutate, random_test
from statecov.qnn import (
    AnsatzSpec,
    EncoderSpec,
    LabeledDataset,
    TrainConfig,
    build_model,
    forward_batch,
    train,
)

from fixtures import gaussian_blobs
from oracles import _eval_one, mutate_row

fuzz_module = importlib.import_module("statecov.fuzz")  # the package re-exports fuzz()


class TestMutate:
    def test_stays_in_unit_box_and_budget(self):
        rng = np.random.default_rng(0)
        ref = rng.uniform(0, 1, (1, 16))
        alpha = 0.15
        cur = ref
        for _ in range(50):
            cur = mutate(cur, ref, rng, alpha)
            assert np.all(cur >= 0) and np.all(cur <= 1)
            assert np.max(np.abs(cur - ref)) <= alpha + 1e-12

    def test_lineage_tracked(self, boundary_setup):
        # mutate leaves its rows and their ancestors as they were; the loop
        # gives each failing mutant its initial seed's label, and the seed
        # it names is the ancestor whose budget bounds it
        rng = np.random.default_rng(1)
        xs = np.full((1, 9), 0.5)
        mutate(mutate(xs, xs, rng, 0.3), xs, rng, 0.3)
        assert np.array_equal(xs, np.full((1, 9), 0.5))
        model, seeds, prof = boundary_setup
        cfg = FuzzConfig(criterion="scc", max_iterations=400, seed=1)
        out = fuzz(model, seeds, prof, cfg)
        assert len(out.failed_cases)
        assert np.array_equal(out.failed_cases.labels, seeds.labels[out.failed_origins])
        ancestors = seeds.features[out.failed_origins]
        assert np.max(np.abs(out.failed_cases.features - ancestors)) <= cfg.alpha + 1e-12

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
            m = mutate(img[None, :], img[None, :], rng, 1.0)[0]
            if np.count_nonzero(m) == 1 and m[5] == 0:
                moved = int(np.flatnonzero(m)[0])
                assert moved in (1, 9, 4, 6)  # up, down, left, right
                found_shift = True
                break
        assert found_shift

    def test_alpha_zero_pins_to_reference(self):
        rng = np.random.default_rng(4)
        s = np.full((1, 4), 0.4)
        m = mutate(s, s, rng, 0.0)
        assert np.array_equal(m, s)

    @given(
        width=st.sampled_from([4, 5, 16, 64]),
        n=st.integers(1, 12),
        alpha=st.sampled_from([0.0, 0.15, 1.0]),
        gate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_batches_of_one(self, width, n, alpha, gate, seed):
        # n rows draw and mutate bit for bit as n batch-of-one calls and as
        # the one-row oracle, and leave the rng in the same state
        data = np.random.default_rng(seed)
        refs = data.uniform(0, 1, (n, width))
        xs = np.clip(refs + data.uniform(-alpha, alpha, (n, width)), 0, 1)
        rng = np.random.default_rng(seed + 1)
        one, oracle = copy.deepcopy(rng), copy.deepcopy(rng)
        got = mutate(xs, refs, rng, alpha, gate=gate)
        singles = [mutate(xs[i : i + 1], refs[i : i + 1], one, alpha, gate=gate) for i in range(n)]
        rows = []
        for i in range(n):
            rows.append(mutate_row(xs[i], refs[i], oracle, alpha))
            if gate:
                oracle.random()
        if gate:
            got, draws, states = got
            assert draws.tobytes() == np.concatenate([s[1] for s in singles]).tobytes()
            assert states == [state for s in singles for state in s[2]]
            singles = [s[0] for s in singles]
        assert got.tobytes() == np.concatenate(singles).tobytes() == np.stack(rows).tobytes()
        assert rng.bit_generator.state == one.bit_generator.state == oracle.bit_generator.state


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
        assert np.array_equal(a.failed_cases.features, b.failed_cases.features)
        assert np.array_equal(a.failed_origins, b.failed_origins)

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
        assert len(out.failed_cases)
        for x, label in zip(out.failed_cases.features, out.failed_cases.labels):
            assert _eval_one(model, x)[1] != label

    def test_tsr_definition(self, boundary_setup):
        model, seeds, prof = boundary_setup
        out = fuzz(model, seeds, prof, FuzzConfig(criterion="ksc", max_iterations=400, seed=2))
        assert len(out.failed_cases)
        origins = set(out.failed_origins.tolist())
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
        assert len(out.failed_cases) == 0 and out.failed_origins.size == 0

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

        from statecov.fuzz import _initial_queue, mutate as _mutate
        from collections import deque

        rng = np.random.default_rng(cfg.seed)
        queue = deque((seeds.features[o], o) for o in _initial_queue(model, seeds)[0])
        committed = [pv for pv in collect_prob_vectors(model, seeds)]
        shadow = CoverageTracker(prof, cfg.coverage)
        for pv in committed:
            shadow.add_input(pv)
        it = 0
        extra = []
        while queue and it < cfg.max_iterations:
            it += 1
            x, o = queue.popleft()
            m = _mutate(x[None, :], seeds.features[o][None, :], rng, cfg.alpha)[0]
            pv, pred = _eval_one(model, m)
            if pred != seeds.labels[o]:
                shadow.add_input(pv)
                extra.append(pv)
                continue
            if shadow.peek_input(pv)[cfg.criterion]:
                shadow.add_input(pv)
                extra.append(pv)
                queue.append((m, o))

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


def _sequential_loop(model, seeds, prof, config, guided, reenqueue_prob=1.0):
    """Reference loop: pop one (features, origin) row, mutate it as a batch
    of one, evaluate it as a one-row batch, gate it with
    peek_input/add_input. An all-zero mutant of an amplitude model is not
    evaluated and counts as not failing. Returns the outcome, the number of
    generations (the queue's contents at the start of each) it went through
    and whether the budget ended one part-way."""
    rng = np.random.default_rng(config.seed)
    initial, _ = fuzz_module._initial_queue(model, seeds)
    tracker = CoverageTracker(prof, config.coverage)
    for pv in collect_prob_vectors(model, seeds):
        tracker.add_input(pv)
    before = tracker.report()
    queue = deque((seeds.features[o], o) for o in initial)
    failed, origins = [], []
    iterations = non_failing = re_enqueued = generations = gen_left = 0
    while queue and iterations < config.max_iterations:
        if gen_left == 0:
            generations += 1
            gen_left = len(queue)
        gen_left -= 1
        iterations += 1
        x, o = queue.popleft()
        m = mutate(x[None, :], seeds.features[o][None, :], rng, config.alpha)[0]
        if model.encoder.kind == "amplitude" and not m.any():
            non_failing += 1
            if not guided:
                rng.random()
            continue
        pv, pred = _eval_one(model, m)
        if pred != seeds.labels[o]:
            tracker.add_input(pv)
            failed.append(m)
            origins.append(o)
            continue
        non_failing += 1
        if guided:
            if tracker.peek_input(pv)[config.criterion]:
                tracker.add_input(pv)
                queue.append((m, o))
                re_enqueued += 1
        elif rng.random() < reenqueue_prob:
            queue.append((m, o))
            re_enqueued += 1
    origins = np.array(origins, dtype=np.int64)
    d = seeds.features.shape[1]
    outcome = FuzzOutcome(
        failed_cases=LabeledDataset(np.reshape(failed, (-1, d)), seeds.labels[origins]),
        failed_origins=origins,
        tsr=100.0 * len(set(origins.tolist())) / len(initial),
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
    assert got.failed_cases.features.tobytes() == ref.failed_cases.features.tobytes()
    assert np.array_equal(got.failed_cases.labels, ref.failed_cases.labels)
    assert np.array_equal(got.failed_origins, ref.failed_origins)


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
        assert len(ref.failed_cases)
        assert cut or budget != 20
        _assert_same_outcome(fuzz(model, data, prof, cfg), ref)

    @pytest.mark.parametrize("criterion", ["ksc", "scc", "tsc"])
    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("reenqueue_prob", [0.0, 0.5, 1.0])
    def test_random_equals_sequential(self, weak_setup, criterion, budget, reenqueue_prob):
        model, data, prof = weak_setup
        cfg = FuzzConfig(criterion=criterion, max_iterations=budget, alpha=0.3, seed=4)
        ref, _, _ = _sequential_loop(model, data, prof, cfg, guided=False, reenqueue_prob=reenqueue_prob)
        assert len(ref.failed_cases)
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
        assert len(out.failed_cases)
        assert 1 + generations <= len(counted) <= 1 + generations + len(out.failed_cases)


class TestAmplitudeAllZeroMutant:
    """Faint seeds of an amplitude model: a brightness step clips a mutant to
    all zeros, which the encoder cannot map to a state. Such a mutant uses
    its iteration and counts as not failing, but is never evaluated,
    committed or re-enqueued; the random baseline still draws its gate."""

    @pytest.fixture(scope="class")
    def faint_setup(self):
        model = build_model(EncoderSpec("amplitude", 4), AnsatzSpec("layered", 1, "linear"), 2, 2, seed=0)
        feats = np.random.default_rng(12).uniform(0.02, 0.08, (6, 4))
        _, scores = forward_batch(model, feats)
        seeds = LabeledDataset(feats, np.argmax(scores, axis=1))
        return model, seeds, profile(model, seeds)

    @pytest.mark.parametrize("guided", [True, False], ids=["guided", "random"])
    def test_dropped_before_evaluation(self, faint_setup, guided, monkeypatch):
        model, seeds, prof = faint_setup
        cfg = FuzzConfig(max_iterations=500, seed=1)
        dropped = []
        inner = fuzz_module._unencodable

        def counting(encoder, xs):
            mask = inner(encoder, xs)
            dropped.append(int(mask.sum()))
            return mask

        monkeypatch.setattr(fuzz_module, "_unencodable", counting)
        out = fuzz(model, seeds, prof, cfg) if guided else random_test(model, seeds, prof, cfg)
        assert sum(dropped) > 0
        ref, _, _ = _sequential_loop(model, seeds, prof, cfg, guided=guided)
        _assert_same_outcome(out, ref)


class TestConfigValidation:
    def test_bad_criterion(self):
        with pytest.raises(ValueError):
            FuzzConfig(criterion="branch")

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            FuzzConfig(alpha=-0.1)
