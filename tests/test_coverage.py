from dataclasses import replace
from types import SimpleNamespace

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statecov.coverage import (
    BOUNDARY_MODES,
    CRITERIA,
    CoverageConfig,
    CoverageTracker,
    StateProfile,
    collect_prob_vectors,
    coverage_suite,
    profile,
    profile_from_samples,
    resolve_boundaries,
)
from statecov.qnn import (
    BLOCK_AMPS,
    AnsatzSpec,
    EncoderSpec,
    LabeledDataset,
    _row_blocks,
    build_model,
    forward_batch,
)

from conftest import brute_force_coverage, random_profile_and_suite
from fixtures import (
    REFERENCE_EXPECTED,
    gaussian_blobs,
    reference_coverage_config,
    reference_input_vector,
    reference_two_qubit_profile,
)
from oracles import mad_bounds_whole, merge, sample_frequencies


class TestStateProfile:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            StateProfile(lower=[0.5, 0.2], upper=[0.4, 0.9])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            StateProfile(lower=[-0.1, 0.0], upper=[0.5, 0.5])
        with pytest.raises(ValueError):
            StateProfile(lower=[0.0, 0.0], upper=[0.5, 1.5])

    def test_mad_bounds_must_nest(self):
        with pytest.raises(ValueError):
            StateProfile(
                lower=[0.2, 0.2],
                upper=[0.8, 0.8],
                mad_lower=[0.1, 0.3],
                mad_upper=[0.7, 0.7],
            )

    def test_json_round_trip(self, tmp_path):
        prof = profile_from_samples(
            np.random.default_rng(0).dirichlet(np.ones(4), size=10), provenance="abc"
        )
        path = tmp_path / "profile.json"
        prof.to_json(path)
        loaded = StateProfile.from_json(path)
        assert np.array_equal(loaded.lower, prof.lower)
        assert np.array_equal(loaded.upper, prof.upper)
        assert np.array_equal(loaded.sigma, prof.sigma)
        assert loaded.provenance == "abc"

    @given(
        n=st.integers(1, 8),
        with_sigma=st.booleans(),
        with_mad=st.booleans(),
        provenance=st.text(max_size=20),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip_is_bit_exact(
        self, tmp_path_factory, n, with_sigma, with_mad, provenance, data
    ):
        # per state: lower <= mad_lower <= mad_upper <= upper
        unit = st.floats(-0.0, 1.0)
        bounds = np.sort(
            data.draw(st.lists(st.lists(unit, min_size=4, max_size=4), min_size=n, max_size=n)),
            axis=1,
        )
        sigma = data.draw(
            st.lists(st.floats(0.0, 1e300), min_size=n, max_size=n)
        ) if with_sigma else None
        prof = StateProfile(
            lower=bounds[:, 0], upper=bounds[:, 3], sigma=sigma,
            mad_lower=bounds[:, 1] if with_mad else None,
            mad_upper=bounds[:, 2] if with_mad else None,
            provenance=provenance,
        )
        path = tmp_path_factory.mktemp("profile") / "profile.json"
        prof.to_json(path)
        loaded = StateProfile.from_json(path)
        for name in ("lower", "upper", "sigma", "mad_lower", "mad_upper"):
            want, got = getattr(prof, name), getattr(loaded, name)
            assert (got is None) == (want is None)
            assert want is None or (got.dtype == want.dtype and got.tobytes() == want.tobytes())
        assert loaded.provenance == provenance

    def _written(self, tmp_path, drop=None, **changes):
        import json

        path = tmp_path / "profile.json"
        StateProfile(
            lower=[0.1, 0.2], upper=[0.5, 0.6], sigma=[0.01, 0.02],
            mad_lower=[0.1, 0.2], mad_upper=[0.5, 0.6],
        ).to_json(path)
        doc = json.loads(path.read_text())
        doc.update(changes)
        doc.pop(drop, None)
        path.write_text(json.dumps(doc))
        return path

    def test_from_json_rejects_unknown_format_version(self, tmp_path):
        with pytest.raises(ValueError, match="format_version"):
            StateProfile.from_json(self._written(tmp_path, format_version=99))

    def test_from_json_names_missing_field(self, tmp_path):
        with pytest.raises(ValueError, match="missing field: upper"):
            StateProfile.from_json(self._written(tmp_path, drop="upper"))

    @pytest.mark.parametrize("field", ["sigma", "mad_lower", "mad_upper"])
    def test_from_json_rejects_wrong_length(self, tmp_path, field):
        with pytest.raises(ValueError, match=field):
            StateProfile.from_json(self._written(tmp_path, **{field: [0.3]}))


class TestProfiling:
    def test_min_max_oracle(self):
        rng = np.random.default_rng(1)
        samples = rng.dirichlet(np.ones(8), size=20)
        prof = profile_from_samples(samples)
        for s in range(8):
            assert prof.lower[s] == samples[:, s].min()
            assert prof.upper[s] == samples[:, s].max()
        assert np.allclose(prof.sigma, samples.std(axis=0, ddof=1))

    def test_model_profile_contains_training_vectors(self, toy4_model, toy4_train_data):
        from statecov.coverage import collect_prob_vectors

        prof = profile(toy4_model, toy4_train_data)
        pvs = collect_prob_vectors(toy4_model, toy4_train_data)
        assert np.all(pvs >= prof.lower - 1e-15)
        assert np.all(pvs <= prof.upper + 1e-15)
        assert prof.provenance == toy4_train_data.digest()

    def test_empty_dataset_rejected(self, toy4_model):
        from statecov.qnn import LabeledDataset

        empty = LabeledDataset(np.empty((0, 4)), np.empty(0))
        with pytest.raises(ValueError):
            profile(toy4_model, empty)


class TestMadRefine:
    def test_single_outlier_discarded(self):
        col = np.array([0.50, 0.51, 0.49, 0.50, 0.90])
        samples = np.stack([col, 1 - col], axis=1)
        prof = profile_from_samples(samples, confidence=0.99)
        assert prof.mad_upper[0] == pytest.approx(0.51)
        assert prof.upper[0] == pytest.approx(0.90)

    def test_zero_mad_keeps_median_equal_only(self):
        col = np.array([0.5, 0.5, 0.5, 0.9])
        samples = np.stack([col, 1 - col], axis=1)
        prof = profile_from_samples(samples, confidence=0.99)
        assert prof.mad_lower[0] == 0.5
        assert prof.mad_upper[0] == 0.5

    def test_no_outliers_leaves_bounds_unchanged(self):
        rng = np.random.default_rng(3)
        col = rng.uniform(0.4, 0.6, 30)
        samples = np.stack([col, 1 - col], axis=1)
        prof = profile_from_samples(samples, confidence=0.99)
        assert prof.mad_lower[0] == prof.lower[0]
        assert prof.mad_upper[0] == prof.upper[0]

    def test_nesting_always_holds(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            samples = rng.dirichlet(np.ones(4), size=int(rng.integers(3, 40)))
            prof = profile_from_samples(samples, confidence=0.99)
            assert np.all(prof.mad_lower >= prof.lower)
            assert np.all(prof.mad_upper <= prof.upper)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 3 samples per state, got 2"):
            profile_from_samples(np.ones((2, 4)) * 0.25, confidence=0.99)

    def test_state_with_no_sample_inside_the_cut_keeps_the_nearest(self):
        # at confidence 1e-300 the cut is |x - m| <= 0: only samples at the
        # median pass. Column 0's median 0.5 is no sample; column 1's MAD is 0
        samples = np.array([[0.0, 0.5], [0.25, 0.5], [0.75, 0.5], [1.0, 0.125]])
        prof = profile_from_samples(samples, confidence=1e-300)
        assert prof.mad_lower.tolist() == [0.25, 0.5]
        assert prof.mad_upper.tolist() == [0.75, 0.5]


class TestBoundaryModes:
    def test_sigma_widens(self):
        rng = np.random.default_rng(5)
        prof = profile_from_samples(rng.dirichlet(np.ones(4), size=15))
        lb_raw, ub_raw = resolve_boundaries(prof, CoverageConfig(boundary_mode="raw"))
        lb_sig, ub_sig = resolve_boundaries(prof, CoverageConfig(boundary_mode="sigma"))
        assert np.all(lb_sig <= lb_raw) and np.all(ub_sig >= ub_raw)
        assert np.all(lb_sig >= 0) and np.all(ub_sig <= 1)

    def test_mad_narrows(self):
        rng = np.random.default_rng(6)
        prof = profile_from_samples(rng.dirichlet(np.ones(4), size=25), confidence=0.99)
        lb_raw, ub_raw = resolve_boundaries(prof, CoverageConfig(boundary_mode="raw"))
        lb_mad, ub_mad = resolve_boundaries(prof, CoverageConfig(boundary_mode="mad"))
        assert np.all(lb_mad >= lb_raw) and np.all(ub_mad <= ub_raw)

    def test_missing_fields_rejected(self):
        prof = StateProfile(lower=[0.1, 0.1], upper=[0.9, 0.9])
        with pytest.raises(ValueError):
            resolve_boundaries(prof, CoverageConfig(boundary_mode="sigma"))
        with pytest.raises(ValueError):
            resolve_boundaries(prof, CoverageConfig(boundary_mode="mad"))

    def test_sigma_tracker_matches_oracle(self):
        # the oracle works out its own bounds, one sigma wider on each side
        rng = np.random.default_rng(17)
        for _ in range(20):
            prof, suite = random_profile_and_suite(rng, int(rng.integers(1, 4)), 40)
            config = CoverageConfig(k_cells=int(rng.integers(2, 20)), boundary_mode="sigma")
            tracker = CoverageTracker(prof, config)
            tracker.fold(suite)
            oracle = brute_force_coverage(prof, config, suite)
            assert set(map(tuple, np.argwhere(tracker.cells).tolist())) == oracle["cells"]
            sides = np.argwhere(tracker.corners).tolist()
            assert {(s, ("low", "high")[side]) for s, side in sides} == oracle["corners"]

    def test_scc_ordering_sigma_vs_raw(self):
        # wider major regions can only shrink the set of corner hits
        rng = np.random.default_rng(7)
        for _ in range(10):
            prof, suite = random_profile_and_suite(rng, 2, 30)
            raw = brute_force_coverage(prof, CoverageConfig(k_cells=10), suite)
            sig = brute_force_coverage(
                prof, CoverageConfig(k_cells=10, boundary_mode="sigma"), suite
            )
            assert sig["scc"] <= raw["scc"]


class TestWorkedExample:
    def test_reference_vector_exact(self):
        tracker = CoverageTracker(
            reference_two_qubit_profile(), reference_coverage_config()
        )
        delta = tracker.add_input(reference_input_vector())
        rep = tracker.report()
        assert rep.ksc == REFERENCE_EXPECTED["ksc"]
        assert rep.scc == REFERENCE_EXPECTED["scc"]
        assert rep.tsc == REFERENCE_EXPECTED["tsc"]
        assert delta == {"ksc": True, "scc": True, "tsc": True}

    def test_reference_counts(self):
        tracker = CoverageTracker(
            reference_two_qubit_profile(), reference_coverage_config()
        )
        tracker.add_input(reference_input_vector())
        rep = tracker.report()
        assert rep.covered_cells == 3  # one state is below its lower boundary
        assert rep.covered_corners == 1
        assert rep.covered_top_states == 1


class TestTracker:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            q = int(rng.integers(1, 4))
            prof, suite = random_profile_and_suite(rng, q, int(rng.integers(1, 40)))
            config = CoverageConfig(
                k_cells=int(rng.integers(2, 30)), top_k=int(rng.integers(1, 2**q + 1))
            )
            tracker = CoverageTracker(prof, config)
            for pv in suite:
                tracker.add_input(pv)
            rep = tracker.report()
            oracle = brute_force_coverage(prof, config, suite)
            assert rep.ksc == pytest.approx(oracle["ksc"], abs=1e-12)
            assert rep.scc == pytest.approx(oracle["scc"], abs=1e-12)
            assert rep.tsc == pytest.approx(oracle["tsc"], abs=1e-12)

    def test_monotone_in_suite_growth(self):
        rng = np.random.default_rng(9)
        prof, suite = random_profile_and_suite(rng, 2, 40)
        config = CoverageConfig(k_cells=12)
        tracker = CoverageTracker(prof, config)
        prev = (0.0, 0.0, 0.0)
        for pv in suite:
            tracker.add_input(pv)
            rep = tracker.report()
            cur = (rep.ksc, rep.scc, rep.tsc)
            assert all(a >= b for a, b in zip(cur, prev))
            prev = cur

    def test_order_independent(self):
        rng = np.random.default_rng(10)
        prof, suite = random_profile_and_suite(rng, 2, 25)
        config = CoverageConfig(k_cells=7, top_k=2)
        reports = []
        for perm_seed in range(3):
            order = np.random.default_rng(perm_seed).permutation(len(suite))
            tracker = CoverageTracker(prof, config)
            for i in order:
                tracker.add_input(suite[i])
            reports.append(tracker.report())
        assert reports[0] == reports[1] == reports[2]

    def test_peek_does_not_mutate(self):
        rng = np.random.default_rng(11)
        prof, suite = random_profile_and_suite(rng, 2, 5)
        tracker = CoverageTracker(prof, CoverageConfig(k_cells=5))
        flags = tracker.peek_input(suite[0])
        assert any(flags.values())
        assert tracker.report().covered_cells == 0
        assert tracker.num_inputs == 0

    def test_duplicate_input_adds_nothing(self):
        rng = np.random.default_rng(12)
        prof, suite = random_profile_and_suite(rng, 2, 1)
        tracker = CoverageTracker(prof, CoverageConfig(k_cells=5))
        first = tracker.add_input(suite[0])
        second = tracker.add_input(suite[0])
        assert any(first.values())
        assert not any(second.values())

    def test_merge_equals_union(self):
        rng = np.random.default_rng(13)
        prof, suite = random_profile_and_suite(rng, 2, 30)
        config = CoverageConfig(k_cells=9)
        whole = CoverageTracker(prof, config)
        for pv in suite:
            whole.add_input(pv)
        a = CoverageTracker(prof, config)
        b = CoverageTracker(prof, config)
        for pv in suite[:14]:
            a.add_input(pv)
        for pv in suite[14:]:
            b.add_input(pv)
        merge(a, b)
        assert a.report() == whole.report()

    def test_merge_shape_mismatch(self):
        prof = StateProfile(lower=[0.1, 0.1], upper=[0.9, 0.9])
        a = CoverageTracker(prof, CoverageConfig(k_cells=5))
        b = CoverageTracker(prof, CoverageConfig(k_cells=6))
        with pytest.raises(ValueError):
            merge(a, b)

    def test_length_mismatch_rejected(self):
        prof = StateProfile(lower=[0.1, 0.1], upper=[0.9, 0.9])
        tracker = CoverageTracker(prof, CoverageConfig(k_cells=5))
        with pytest.raises(ValueError):
            tracker.add_input([0.2, 0.3, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected(self, bad):
        prof = StateProfile(lower=[0.1, 0.1], upper=[0.9, 0.9])
        tracker = CoverageTracker(prof, CoverageConfig(k_cells=5))
        for call in (tracker.peek_input, tracker.add_input):
            with pytest.raises(ValueError, match="probability vector"):
                call([0.5, bad])
        assert tracker.num_inputs == 0
        assert not tracker.cells.any() and not tracker.corners.any()
        assert not tracker.top_states.any()

    def test_degenerate_state_single_cell(self):
        prof = StateProfile(lower=[0.3, 0.3], upper=[0.3, 0.9])
        tracker = CoverageTracker(prof, CoverageConfig(k_cells=10))
        tracker.add_input([0.3, 0.7])
        assert tracker.cells[0].sum() == 1
        assert tracker.cells[0, 0]

    def test_boundary_values_inside(self):
        # probabilities exactly on the boundaries land in cells, not corners
        prof = StateProfile(lower=[0.2, 0.0], upper=[0.8, 1.0])
        tracker = CoverageTracker(prof, CoverageConfig(k_cells=4))
        tracker.add_input([0.2, 0.8])
        tracker.add_input([0.8, 0.2])
        rep = tracker.report()
        assert rep.covered_corners == 0
        assert tracker.cells[0, 0] and tracker.cells[0, 3]

    def test_top_k_tie_breaks_by_index(self):
        prof = StateProfile(lower=[0.0] * 4, upper=[1.0] * 4)
        tracker = CoverageTracker(prof, CoverageConfig(k_cells=5, top_k=2))
        tracker.add_input([0.25, 0.25, 0.25, 0.25])
        assert list(np.flatnonzero(tracker.top_states)) == [0, 1]


# grid values make ties, zero-width states and probabilities exactly on a
# boundary or a cell edge common; the floats cover everything in between
_GRID = st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0])
_PROB = st.one_of(_GRID, st.floats(0.0, 1.0))


@st.composite
def _tracker_case(draw):
    s = draw(st.integers(1, 6))
    a = np.array(draw(st.lists(_PROB, min_size=s, max_size=s)))
    b = np.array(draw(st.lists(_PROB, min_size=s, max_size=s)))
    lower, upper = np.minimum(a, b), np.maximum(a, b)
    if draw(st.booleans()):
        upper = lower.copy()  # every state zero-width
    n = draw(st.integers(1, 12))
    pvs = np.array(draw(st.lists(st.lists(_PROB, min_size=s, max_size=s), min_size=n, max_size=n)))
    config = CoverageConfig(k_cells=draw(st.integers(1, 8)), top_k=draw(st.integers(1, s + 1)))
    return StateProfile(lower=lower, upper=upper), config, pvs


class TestAddBatch:
    @given(case=_tracker_case(), split=st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_equals_folding_add_input(self, case, split):
        prof, config, pvs = case
        folded = CoverageTracker(prof, config)
        deltas = []
        for pv in pvs:
            before = [folded.cells.copy(), folded.corners.copy(), folded.top_states.copy()]
            deltas.append(folded.add_input(pv))
            # an input opens coverage of a kind exactly when it sets a bit of it
            after = [folded.cells, folded.corners, folded.top_states]
            assert deltas[-1] == {
                c: bool((x != y).any()) for c, x, y in zip(CRITERIA, before, after)
            }
        batched = CoverageTracker(prof, config)
        hits = batched.locate(pvs[:split])
        first = {c: batched.row_opens(hits, c).any() for c in deltas[0]}
        batched.commit(hits)
        batched.commit(batched.locate(pvs[split:]))
        for name in ("cells", "corners", "top_states"):
            assert np.array_equal(getattr(batched, name), getattr(folded, name))
        assert batched.num_inputs == folded.num_inputs == len(pvs)
        # the top-k states are the first k of a stable argsort on -pv
        top = np.argsort(-pvs, axis=1, kind="stable")[:, : config.top_k]
        assert np.array_equal(np.flatnonzero(folded.top_states), np.unique(top))
        # a batch opens new coverage of a kind iff some row of it would,
        # folded in order
        for c in first:
            assert first[c] == any(d[c] for d in deltas[:split])

    @given(
        case=_tracker_case(),
        top_k=st.sampled_from([None, 2]),
        prefix=st.integers(0, 4),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_row_opens_equals_peek_then_add(self, case, top_k, prefix, data):
        """row_opens over a batch says what peek_input would say of each row
        with the rows before it gated as the fuzz loop gates them: failing
        rows always added, the others only when they open the kind."""
        prof, config, pvs = case
        if top_k is not None:
            config = replace(config, top_k=top_k)
        failing = np.array(data.draw(st.lists(st.booleans(), min_size=len(pvs), max_size=len(pvs))))
        for criterion in CRITERIA:
            seq = CoverageTracker(prof, config)
            for pv in pvs[:prefix]:  # a tracker that already holds some bits
                seq.add_input(pv)
            batch = CoverageTracker(prof, config)
            batch.commit(batch.locate(pvs[:prefix]))
            want = []
            for pv, fails in zip(pvs, failing):
                want.append(seq.peek_input(pv)[criterion])
                if fails or want[-1]:
                    seq.add_input(pv)
            hits = batch.locate(pvs)
            opens = batch.row_opens(hits, criterion)
            assert opens.dtype == bool and opens.tolist() == want
            batch.commit(hits.rows(failing | opens))
            for name in ("cells", "corners", "top_states", "num_inputs"):
                assert np.array_equal(getattr(batch, name), getattr(seq, name))

    def test_bad_row_named_and_nothing_committed(self):
        prof = StateProfile(lower=[0.1, 0.1], upper=[0.9, 0.9])
        tracker = CoverageTracker(prof, CoverageConfig(k_cells=5))
        pvs = np.array([[0.5, 0.5], [0.2, 0.8], [0.3, np.nan]])
        with pytest.raises(ValueError, match="probability vector 2 "):
            tracker.locate(pvs)
        with pytest.raises(ValueError, match="shape"):
            tracker.locate(pvs[:, :1])
        with pytest.raises(ValueError, match="shape"):
            tracker.add_input(pvs[:2])
        assert tracker.num_inputs == 0 and not tracker.cells.any()


@st.composite
def _choice_case(draw):
    """(MAD profile of 3-29 Dirichlet rows, 1-40 suite rows) at q = 1-4, the
    rows rounded to 1-3 decimals in some cases so that ties are common."""
    s = 2 ** draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = rng.dirichlet(np.ones(s), size=draw(st.integers(3, 29)))
    suite = rng.dirichlet(np.ones(s), size=draw(st.integers(1, 40)))
    decimals = draw(st.sampled_from([None, 1, 2, 3]))
    if decimals is not None:
        samples, suite = samples.round(decimals), suite.round(decimals)
    return profile_from_samples(samples, confidence=0.99), suite


def _fold(prof, suite, **config):
    tracker = CoverageTracker(prof, CoverageConfig(**config))
    tracker.fold(suite)
    return tracker.report()


def _brute(prof, suite, **config):
    """The figures of _fold's report that the invariants read, by brute force."""
    got = brute_force_coverage(prof, CoverageConfig(**config), suite)
    return SimpleNamespace(
        covered_cells=len(got["cells"]), covered_corners=len(got["corners"]),
        scc=got["scc"], tsc=got["tsc"],
    )


def _parameter_choice(fold):
    """The four invariants below as hypothesis tests of fold, called as
    fold(prof, suite, **config); each call makes its own given wrappers, so
    hypothesis sees one executor per test."""

    class Invariants:
        @given(case=_choice_case(), k=st.integers(1, 39), mode=st.sampled_from(BOUNDARY_MODES))
        @settings(max_examples=150, deadline=None)
        def test_refining_k_splits_cells(self, case, k, mode):
            # each cell at k is two cells at 2k
            prof, suite = case
            coarse = fold(prof, suite, k_cells=k, boundary_mode=mode).covered_cells
            fine = fold(prof, suite, k_cells=2 * k, boundary_mode=mode).covered_cells
            assert coarse <= fine <= 2 * coarse

        @given(case=_choice_case(), k=st.integers(1, 39))
        @settings(max_examples=150, deadline=None)
        def test_tsc_never_falls_as_top_k_grows(self, case, k):
            prof, suite = case
            tsc = [fold(prof, suite, k_cells=k, top_k=t).tsc for t in range(1, prof.num_states + 1)]
            assert tsc == sorted(tsc) and tsc[-1] == 100.0

        @given(
            case=_choice_case(),
            ks=st.tuples(st.integers(1, 39), st.integers(1, 39)),
            top_ks=st.tuples(st.integers(1, 16), st.integers(1, 16)),
            mode=st.sampled_from(BOUNDARY_MODES),
        )
        @settings(max_examples=150, deadline=None)
        def test_scc_does_not_depend_on_k_or_top_k(self, case, ks, top_ks, mode):
            prof, suite = case
            a, b = (
                fold(prof, suite, k_cells=k, top_k=t, boundary_mode=mode)
                for k, t in zip(ks, top_ks)
            )
            assert (a.scc, a.covered_corners) == (b.scc, b.covered_corners)

        @given(case=_choice_case(), k=st.integers(1, 39), top_k=st.integers(1, 16))
        @settings(max_examples=150, deadline=None)
        def test_scc_ordered_sigma_raw_mad(self, case, k, top_k):
            # sigma bounds contain the raw bounds, which contain the MAD bounds
            prof, suite = case
            sigma, raw, mad = (
                fold(prof, suite, k_cells=k, top_k=top_k, boundary_mode=mode).scc
                for mode in ("sigma", "raw", "mad")
            )
            assert sigma <= raw <= mad

    return Invariants


class TestParameterChoice(_parameter_choice(_fold)):
    """The paper's parameter choices (k, top_k, the boundary mode) as exact
    invariants of the folded report."""


class TestParameterChoiceOnOracle(_parameter_choice(_brute)):
    """The same invariants on the brute-force oracle of tests/conftest.py."""


class TestSuiteEvaluation:
    def test_suite_matches_incremental(self, toy4_model, toy4_train_data):
        from statecov.coverage import collect_prob_vectors

        prof = profile(toy4_model, toy4_train_data)
        config = CoverageConfig(k_cells=20, top_k=1)
        rep = coverage_suite(toy4_model, toy4_train_data, prof, config)
        tracker = CoverageTracker(prof, config)
        for pv in collect_prob_vectors(toy4_model, toy4_train_data):
            tracker.add_input(pv)
        assert rep == tracker.report()

    def test_profiling_set_has_zero_scc(self, toy4_model, toy4_train_data):
        prof = profile(toy4_model, toy4_train_data)
        rep = coverage_suite(
            toy4_model, toy4_train_data, prof, CoverageConfig(k_cells=10)
        )
        assert rep.scc == 0.0

    def test_state_count_mismatch(self, toy4_model, toy4_train_data):
        prof = StateProfile(lower=[0.1, 0.1], upper=[0.9, 0.9])
        with pytest.raises(ValueError):
            coverage_suite(toy4_model, toy4_train_data, prof, CoverageConfig())

    def test_sampled_vectors_deterministic(self, toy4_model, toy4_train_data):
        from statecov.coverage import collect_prob_vectors

        a = collect_prob_vectors(toy4_model, toy4_train_data, shots=1000, seed=5)
        b = collect_prob_vectors(toy4_model, toy4_train_data, shots=1000, seed=5)
        assert np.array_equal(a, b)
        c = collect_prob_vectors(toy4_model, toy4_train_data, shots=1000, seed=6)
        assert not np.array_equal(a, c)

    def test_shots_above_int64_refused_before_the_forward_pass(self, toy4_model, monkeypatch):
        from statecov import coverage

        data = LabeledDataset([[0.1, 0.2, 0.3, 0.4]], [0])
        assert collect_prob_vectors(toy4_model, data, shots=2**63 - 1).sum() == 1.0
        monkeypatch.setattr(coverage, "forward_batch", None)  # a call raises TypeError
        for shots in (2**63, 10**19):
            with pytest.raises(ValueError, match="shots must be >= 1 and < 2\\*\\*63"):
                coverage.collect_prob_vectors(toy4_model, data, shots)

    def test_sampled_rows_equal_oracle_per_row_seed(self, toy4_model):
        # row i is the one-row draw at seed + i
        suite = gaussian_blobs(2, 4, 4, spread=0.12, seed=3)
        probs, _ = forward_batch(toy4_model, suite.features)
        sampled = collect_prob_vectors(toy4_model, suite, shots=500, seed=11)
        assert len(sampled) == 8
        for i, row in enumerate(probs):
            assert np.array_equal(sampled[i], sample_frequencies(row, 500, 11 + i))

    def test_sampled_vectors_equal_statevector_round_trip(self, toy4_model, toy4_train_data):
        # the draws match the earlier sqrt -> square path row by row (one
        # multinomial draw from default_rng(seed base + i)) on the seeds the
        # shot tests use
        from statecov.coverage import collect_prob_vectors
        from statecov.qnn import forward_batch

        suite = gaussian_blobs(2, 25, 4, spread=0.12, seed=77)
        for data, shots, seed in [(toy4_train_data, 1000, 5), (toy4_train_data, 1000, 6)] + [
            (suite, shots, s) for shots in (100, 1_000, 10_000, 100_000) for s in range(3)
        ]:
            probs, _ = forward_batch(toy4_model, data.features)
            old = []
            for i, p in enumerate(probs):
                squared = np.abs(np.sqrt(p) + 0j) ** 2
                rng = np.random.default_rng(seed + i)
                old.append(rng.multinomial(shots, squared / squared.sum()) / shots)
            new = collect_prob_vectors(toy4_model, data, shots=shots, seed=seed)
            assert np.array_equal(new, np.array(old))


class TestStatePermutation:
    """A metamorphic relation: relabelling the basis states in the profile
    and in the probability columns alike moves every cell and corner bit
    with its state, so the KSC and SCC counts stay. The TSC count stays too
    unless a row ties at its k-th largest probability, which locate breaks
    by index."""

    @given(
        q=st.integers(1, 6),
        n=st.integers(1, 8),
        k_cells=st.integers(1, 50),
        top_k=st.integers(1, 4),
        mode=st.sampled_from(BOUNDARY_MODES),
        levels=st.sampled_from([0, 4, 16]),  # 0: exact, else rounded to 1/levels, so ties occur
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_permuted_states_keep_the_counts(self, q, n, k_cells, top_k, mode, levels, seed, data):
        rng = np.random.default_rng(seed)
        train, pvs = (rng.dirichlet(np.ones(2**q), size=m) for m in (int(rng.integers(3, 9)), n))
        if levels:
            train, pvs = np.round(train * levels) / levels, np.round(pvs * levels) / levels
        pi = np.array(data.draw(st.permutations(range(2**q))))
        prof = profile_from_samples(train, confidence=0.9)
        permuted = StateProfile(*(getattr(prof, f)[pi] for f in
                                  ("lower", "upper", "sigma", "mad_lower", "mad_upper")))
        config = CoverageConfig(k_cells, top_k, mode)
        plain, moved = CoverageTracker(prof, config), CoverageTracker(permuted, config)
        plain.fold(pvs)
        moved.fold(pvs[:, pi])
        assert np.array_equal(moved.cells, plain.cells[pi])
        assert np.array_equal(moved.corners, plain.corners[pi])
        top = min(top_k, 2**q)
        kth = -np.partition(-pvs, top - 1, axis=1)[:, [top - 1]]
        tie = bool(((pvs >= kth).sum(axis=1) > top).any())
        a, b = plain.report(), moved.report()
        assert (a.covered_cells, a.covered_corners) == (b.covered_cells, b.covered_corners)
        assert tie or np.array_equal(moved.top_states, plain.top_states[pi])
        assert tie or a.covered_top_states == b.covered_top_states


class TestRowBlocks:
    """The coverage stages walk their matrices in blocks of about BLOCK_AMPS
    entries; the blocks must not change a bit."""

    def test_suite_over_three_locate_blocks_matches_brute_force(self, toy4_model, toy4_train_data):
        # each of the three blocks sets cells no earlier one set
        suite = gaussian_blobs(2, 9000, 4, spread=0.1, seed=12)
        assert len(_row_blocks(len(suite), 16)) == 3
        prof = profile(toy4_model, toy4_train_data)
        config = CoverageConfig(k_cells=1000, top_k=2)
        pvs = collect_prob_vectors(toy4_model, suite)
        oracle = brute_force_coverage(prof, config, pvs)
        rep = coverage_suite(toy4_model, suite, prof, config)
        assert (rep.ksc, rep.scc, rep.tsc) == (oracle["ksc"], oracle["scc"], oracle["tsc"])
        assert rep.num_inputs == len(suite)
        assert 0 < rep.ksc < 100 and 0 < rep.tsc < 100
        tracker = CoverageTracker(prof, config)
        tracker.fold(pvs)
        assert set(zip(*map(list, np.nonzero(tracker.cells)))) == oracle["cells"]
        assert set(np.flatnonzero(tracker.top_states).tolist()) == oracle["tops"]

    def test_fold_names_the_row_of_the_whole_matrix(self):
        prof = StateProfile(lower=np.zeros(4), upper=np.ones(4))
        pvs = np.full((3 * BLOCK_AMPS // 4, 4), 0.25)
        pvs[BLOCK_AMPS // 4 + 5, 2] = np.nan
        with pytest.raises(ValueError, match=f"probability vector {BLOCK_AMPS // 4 + 5} contains"):
            CoverageTracker(prof, CoverageConfig()).fold(pvs)

    # (100, 1311) leaves a one-column last block; one or two rows get no MAD bounds
    @pytest.mark.parametrize(
        "n, s", [(64, 4096), (3000, 128), (100, 1311), (1, 1 << 18), (2, 1 << 17)]
    )
    def test_mad_refine_over_column_blocks_equals_whole_matrix(self, n, s):
        assert len(_row_blocks(s, n)) >= 2
        rng = np.random.default_rng(n)
        samples = rng.dirichlet(np.ones(s), size=n)
        samples[:, ::3] = np.round(samples[:, ::3] * 200) / 200  # ties, so some MADs are 0
        samples[rng.integers(n, size=s), np.arange(s)] = rng.uniform(0.5, 1.0, s)  # outliers
        prof = profile_from_samples(samples)
        assert np.array_equal(prof.lower, samples.min(axis=0))
        assert np.array_equal(prof.upper, samples.max(axis=0))
        sigma = samples.std(axis=0, ddof=1) if n > 1 else np.zeros(s)
        assert np.array_equal(prof.sigma, sigma)
        if n < 3:
            assert prof.mad_lower is None and prof.mad_upper is None
            return
        # below about 0.5 some state keeps no sample inside the cut
        for confidence in (*rng.uniform(0, 0.5, 2), *rng.uniform(0.5, 1, 2), 0.99):
            prof = profile_from_samples(samples, confidence=confidence)
            lower, upper = mad_bounds_whole(samples, confidence)
            assert np.array_equal(prof.mad_lower, lower) and np.array_equal(prof.mad_upper, upper)
            assert np.any(prof.mad_upper < prof.upper)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRowBlockMemory:
    """At q = 14 and 64 rows each stage holds the one (n, 2^q) float64
    matrix plus a few block buffers (one encoded block and the kernel's two
    work buffers)."""

    BLOCK = 16 * BLOCK_AMPS  # one complex128 block

    @pytest.fixture(scope="class")
    def q14(self):
        model = build_model(EncoderSpec("angle", 14), AnsatzSpec("layered", 2, "linear"), 14, 2, seed=0)
        rng = np.random.default_rng(0)
        data = LabeledDataset(rng.uniform(0, 1, (64, 14)), np.zeros(64, dtype=np.int64))
        forward_batch(model, data.features[:1])  # builds and keeps the block matrices
        return model, data, collect_prob_vectors(model, data)

    def test_collect_prob_vectors(self, q14):
        model, data, probs = q14
        for shots in (None, 1000):
            peak = _traced_peak(lambda: collect_prob_vectors(model, data, shots=shots, seed=1))
            assert peak <= probs.nbytes + 3 * self.BLOCK + (1 << 16)

    def test_mad_refine(self, q14):
        # one pass over column blocks: a few block-sized temporaries, none samples-sized
        _, _, probs = q14
        peak = _traced_peak(lambda: profile_from_samples(probs, confidence=0.99))
        assert peak <= 5 * 8 * BLOCK_AMPS

    def test_coverage_suite(self, q14):
        # plus the tracker's bits: S x k_cells bools and the boundaries
        model, data, probs = q14
        prof = profile_from_samples(probs, confidence=0.99)
        config = CoverageConfig(boundary_mode="mad")
        bits = probs.shape[1] * (config.k_cells + 2 * 8 + 3)
        peak = _traced_peak(lambda: coverage_suite(model, data, prof, config))
        assert peak <= probs.nbytes + 3 * self.BLOCK + bits + (1 << 16)
