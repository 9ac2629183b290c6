import tracemalloc

import numpy as np
import pytest

from statecov.diversity import (
    NUM_BINS,
    FidelityHistogram,
    js_divergence,
    suite_diversity,
)
from statecov.qnn import EncoderSpec, encode_batch

from oracles import haar_random_state, pairwise_fidelity_hist

HAAR_BIN_TOL = 5e-3


def _sampled_haar_densities(q, num_states=400):
    """Oracle: histogram of all pair fidelities of seeded Haar-random states."""
    return pairwise_fidelity_hist(
        np.stack([haar_random_state(q, s) for s in range(num_states)]), max_pairs=num_states**2
    ).densities


def _basis(q, idx):
    amps = np.zeros(2**q, dtype=complex)
    amps[idx] = 1.0
    return amps


class TestHistogram:
    def test_binning_layout(self):
        hist = FidelityHistogram.from_fidelities([0.0, 0.5, 1.0])
        assert hist.bin_edges.shape == (NUM_BINS + 1,)
        assert hist.densities.shape == (NUM_BINS,)
        assert hist.densities.sum() == pytest.approx(1.0, abs=1e-12)
        assert hist.sample_count == 3

    def test_identical_states_mass_in_last_bin(self):
        hist = pairwise_fidelity_hist(np.stack([_basis(2, 1) for _ in range(5)]))
        assert hist.densities[-1] == 1.0

    def test_orthogonal_states_mass_in_first_bin(self):
        hist = pairwise_fidelity_hist(np.stack([_basis(2, i) for i in range(4)]))
        assert hist.densities[0] == 1.0
        assert hist.sample_count == 6

    def test_too_few_states(self):
        with pytest.raises(ValueError):
            pairwise_fidelity_hist(_basis(1, 0)[None])

    def test_mismatched_shapes_rejected(self):
        edges = np.linspace(0, 1, NUM_BINS + 1)
        with pytest.raises(ValueError):
            FidelityHistogram(edges, np.zeros(NUM_BINS - 1), 0)

    def test_subsampled_pairs_deterministic(self):
        states = np.stack([haar_random_state(2, s) for s in range(40)])
        a = pairwise_fidelity_hist(states, max_pairs=100, seed=7)
        b = pairwise_fidelity_hist(states, max_pairs=100, seed=7)
        assert np.array_equal(a.densities, b.densities)
        assert a.sample_count == 100

    def test_csv_export(self, tmp_path):
        hist = FidelityHistogram.from_fidelities([0.1, 0.2, 0.9])
        path = tmp_path / "hist.csv"
        hist.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_left,bin_right,density"
        assert len(lines) == NUM_BINS + 1


class TestJsDivergence:
    def test_self_is_zero(self):
        hist = FidelityHistogram.from_fidelities(np.linspace(0, 1, 200))
        assert js_divergence(hist, hist) == pytest.approx(0.0, abs=1e-15)

    def test_disjoint_is_one(self):
        low = FidelityHistogram.from_fidelities([0.01, 0.02, 0.03])
        high = FidelityHistogram.from_fidelities([0.97, 0.98, 0.99])
        assert js_divergence(low, high) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric(self):
        a = FidelityHistogram.from_fidelities(np.random.default_rng(0).uniform(0, 1, 500))
        b = FidelityHistogram.from_fidelities(np.random.default_rng(1).beta(2, 5, 500))
        assert js_divergence(a, b) == pytest.approx(js_divergence(b, a), abs=1e-15)

    def test_two_bin_closed_form(self):
        # p = (1, 0), q = (0.5, 0.5) concentrated over two bins:
        # JS = 0.5*log2(4/3) + 0.25*log2(2) + 0.25*log2(2/3)
        p = FidelityHistogram.from_fidelities([0.005, 0.005])
        q = FidelityHistogram.from_fidelities([0.005, 0.025])
        expected = 0.5 * np.log2(4 / 3) + 0.25 * np.log2(2) + 0.25 * np.log2(2 / 3)
        assert js_divergence(p, q) == pytest.approx(expected, abs=1e-12)

    def test_bounded_zero_one(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = FidelityHistogram.from_fidelities(rng.uniform(0, 1, 100))
            b = FidelityHistogram.from_fidelities(rng.beta(0.5, 0.5, 100))
            d = js_divergence(a, b)
            assert 0.0 <= d <= 1.0

    def test_binning_mismatch_rejected(self):
        hist = FidelityHistogram.from_fidelities([0.5])
        other = FidelityHistogram(hist.bin_edges + 0.001, hist.densities, 1)
        with pytest.raises(ValueError):
            js_divergence(hist, other)


class TestHaarBaseline:
    def test_haar_mean_fidelity_moment(self):
        # E|<a|b>|^2 = 1/2^q = 1/16 for q = 4
        amps = np.stack([haar_random_state(4, s) for s in range(80)])
        gram = np.abs(amps @ amps.conj().T) ** 2
        iu = np.triu_indices(80, k=1)
        fids = gram[iu]
        sem = fids.std() / np.sqrt(fids.size)
        assert abs(fids.mean() - 1 / 16) < 4 * max(sem, 1e-3)

    @pytest.mark.parametrize("q", [1, 2, 4, 6])
    def test_closed_form_matches_sampled_pairs(self, q):
        hist = FidelityHistogram.haar(q)
        assert hist.sample_count is None
        assert np.array_equal(hist.bin_edges, np.linspace(0.0, 1.0, NUM_BINS + 1))
        assert np.max(np.abs(hist.densities - _sampled_haar_densities(q))) <= HAAR_BIN_TOL

    @pytest.mark.parametrize("q", [2, 4])
    def test_sampled_oracle_rejects_wrong_exponent(self, q):
        # (1-a)^(d-2) - (1-b)^(d-2), the integral of (d-2)(1-F)^(d-3), is
        # outside the tolerance of the test above
        tail = (1.0 - np.linspace(0.0, 1.0, NUM_BINS + 1)) ** (2**q - 2)
        wrong = tail[:-1] - tail[1:]
        assert np.max(np.abs(wrong - _sampled_haar_densities(q))) > 2 * HAAR_BIN_TOL

    def test_wide_register_puts_mass_near_zero(self):
        # at q = 14 the first bin holds 1 - 0.98^16383 and the others underflow
        hist = FidelityHistogram.haar(14)
        assert hist.densities[0] == pytest.approx(1.0, abs=1e-15)
        assert hist.densities.sum() == pytest.approx(1.0, abs=1e-12)


class TestSuiteDiversity:
    def test_clustered_suite_less_diverse_than_spread(self):
        rng = np.random.default_rng(3)
        clustered = np.clip(0.5 + 0.01 * rng.standard_normal((30, 4)), 0, 1)
        spread = rng.uniform(0, 1, (30, 4))
        enc = EncoderSpec("angle", 4)
        s_clustered, _, _ = suite_diversity(enc, 4, clustered, seed=0)
        s_spread, _, _ = suite_diversity(enc, 4, spread, seed=0)
        assert s_clustered.mean_fidelity > s_spread.mean_fidelity
        assert s_clustered.js_vs_haar > s_spread.js_vs_haar

    def test_closest_neighbor_with_duplicate(self):
        feats = np.array([[0.2, 0.8], [0.2, 0.8], [0.9, 0.1]])
        summary, _, _ = suite_diversity(EncoderSpec("angle", 2), 2, feats, seed=0)
        # two identical inputs give each of them a unit-fidelity neighbor
        assert summary.closest_neighbor_fidelity > 2 / 3

    def test_closest_neighbor_blocks_match_full_gram(self, grid6_train_data):
        # 1500 rows read in blocks of 2^20 // 1500 = 699 rows: three blocks,
        # the last one partial, with a duplicate pair split across blocks
        rng = np.random.default_rng(8)
        base = grid6_train_data.features
        noise = rng.normal(0.0, 0.2, (1500, 64))
        feats = np.clip(base[rng.integers(len(base), size=1500)] + noise, 0.0, 1.0)
        feats[1400] = feats[5]
        enc = EncoderSpec("amplitude", 64)
        summary, _, _ = suite_diversity(enc, 6, feats, seed=0)
        amps = encode_batch(enc, feats, 6)
        gram = np.abs(amps @ amps.conj().T) ** 2
        np.fill_diagonal(gram, -np.inf)
        best = gram.max(axis=1)
        assert best[[5, 1400]] == pytest.approx([1.0, 1.0], abs=1e-12)
        assert np.sort(best)[-3] < 1.0 - 1e-6  # only the duplicates have a twin
        assert abs(summary.closest_neighbor_fidelity - best.mean()) <= 1e-12

    def test_wide_suite_memory_is_bounded(self):
        # 64 rows at q = 14 are 16 MiB of amplitudes; the baseline and the
        # closest-neighbour pass must not allocate pairs x 2^q arrays
        feats = np.random.default_rng(6).uniform(0, 1, (64, 14))
        tracemalloc.start()
        try:
            summary, _, haar_hist = suite_diversity(EncoderSpec("angle", 14), 14, feats, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert haar_hist.sample_count is None and 0.0 <= summary.js_vs_haar <= 1.0

    def test_returns_both_histograms(self):
        feats = np.random.default_rng(4).uniform(0, 1, (10, 3))
        summary, suite_hist, haar_hist = suite_diversity(
            EncoderSpec("angle", 3), 3, feats, seed=1
        )
        assert suite_hist.sample_count == 45
        # the baseline is the exact 3-qubit Haar histogram, which
        # test_closed_form_matches_sampled_pairs checks against sampled states
        assert haar_hist.sample_count is None
        assert np.array_equal(haar_hist.densities, FidelityHistogram.haar(3).densities)
        assert summary.js_vs_haar == js_divergence(suite_hist, haar_hist)
        assert 0.0 <= summary.js_vs_haar <= 1.0

    def test_deterministic_per_seed(self):
        feats = np.random.default_rng(5).uniform(0, 1, (12, 3))
        a = suite_diversity(EncoderSpec("angle", 3), 3, feats, seed=9)
        b = suite_diversity(EncoderSpec("angle", 3), 3, feats, seed=9)
        assert a[0] == b[0]

    def test_too_small_suite(self):
        with pytest.raises(ValueError):
            suite_diversity(EncoderSpec("angle", 2), 2, np.ones((1, 2)) * 0.5)

    def test_amplitude_encoder_supported(self, grid6_train_data):
        summary, _, _ = suite_diversity(
            EncoderSpec("amplitude", 64),
            6,
            grid6_train_data.features[:20],
            seed=2,
        )
        assert 0.0 <= summary.mean_fidelity <= 1.0
