import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CountingStream, make_layered_machine, random_bits
from flowbm.metrics import (
    EvalReport,
    PATTERNS,
    activation_stats,
    corrupt,
    parzen_ll,
    recon_error,
    reconstruct,
    reconstruct_batch,
    squared_weight,
    weight_sparsity,
)
from flowbm.model import BoltzmannMachine, LayerSpec, build_mask, new_machine
from flowbm.sampling import RngStream


def rbm_with_block(block: np.ndarray) -> BoltzmannMachine:
    n_vis, n_hid = block.shape
    layout = LayerSpec((n_vis, n_hid), (False,))
    n = layout.n
    w = np.zeros((n, n))
    w[:n_vis, n_vis:] = block
    w[n_vis:, :n_vis] = block.T
    return BoltzmannMachine(layout, w, np.zeros(n), build_mask(layout))


def sparsity_reference(block: np.ndarray) -> float:
    """Two-line independent recomputation of the participation ratio."""
    total = 0.0
    for j in range(block.shape[1]):
        col = block[:, j]
        if (col**4).sum() > 0:
            total += (col**2).sum() ** 2 / (col**4).sum()
    return total / (block.shape[0] * block.shape[1])


class TestWeightStatistics:
    def test_constant_matrix_is_dense(self):
        m = rbm_with_block(np.full((6, 4), 0.3))
        assert weight_sparsity(m) == pytest.approx(1.0, rel=1e-14)

    def test_one_hot_columns(self):
        block = np.zeros((6, 4))
        block[0, 0] = block[3, 1] = block[2, 2] = block[5, 3] = 1.7
        assert weight_sparsity(rbm_with_block(block)) == pytest.approx(1 / 6, rel=1e-14)

    def test_degenerate_column_counts_zero(self):
        block = np.zeros((6, 4))
        block[:, 0] = 0.5
        assert weight_sparsity(rbm_with_block(block)) == pytest.approx(
            6 / (6 * 4), rel=1e-14
        )

    def test_random_matrix_matches_reference(self):
        rng = np.random.default_rng(0)
        block = rng.normal(0, 1, (6, 4))
        m = rbm_with_block(block)
        assert weight_sparsity(m) == pytest.approx(sparsity_reference(block), rel=1e-12)
        assert squared_weight(m) == pytest.approx((block**2).sum() / 4, rel=1e-12)

    def test_squared_weight_examples(self):
        assert squared_weight(rbm_with_block(np.zeros((5, 3)))) == 0.0
        m = rbm_with_block(np.full((5, 3), 2.0))
        assert squared_weight(m) == pytest.approx(4.0 * 5, rel=1e-14)


class TestCorrupt:
    def test_band_locations(self):
        image = random_bits(np.random.default_rng(0), 784)
        _, known = corrupt(image, "top", RngStream(0))
        grid = known.reshape(28, 28)
        assert not grid[:12].any() and grid[12:].all()
        _, known = corrupt(image, "left", RngStream(0))
        grid = known.reshape(28, 28)
        assert not grid[:, :12].any() and grid[:, 12:].all()
        _, known = corrupt(image, "bottom", RngStream(0))
        assert not known.reshape(28, 28)[16:].any()
        _, known = corrupt(image, "right", RngStream(0))
        assert not known.reshape(28, 28)[:, 16:].any()

    def test_known_region_untouched(self):
        image = random_bits(np.random.default_rng(1), 784)
        for pattern in PATTERNS:
            corrupted, known = corrupt(image, pattern, RngStream(7))
            np.testing.assert_array_equal(corrupted[known], image[known])
            assert np.isin(corrupted, (0, 1)).all()

    def test_noise_is_fair_coin(self):
        image = np.zeros(784, dtype=np.uint8)
        means = [
            corrupt(image, "top", RngStream(3, i))[0][:336].mean() for i in range(200)
        ]
        assert abs(np.mean(means) - 0.5) < 0.01

    def test_rejects_wrong_size_and_pattern(self):
        with pytest.raises(ValueError):
            corrupt(np.zeros(100, dtype=np.uint8), "top", RngStream(0))
        with pytest.raises(ValueError):
            corrupt(np.zeros(784, dtype=np.uint8), "diagonal", RngStream(0))


class TestReconError:
    def test_examples(self):
        a = np.zeros(784, dtype=np.uint8)
        assert recon_error(a, a) == 0.0
        assert recon_error(a, 1 - a) == 784.0
        b = a.copy()
        b[:12] = 1
        assert recon_error(a, b) == 12.0

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            recon_error(np.zeros(3), np.zeros(4))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(1, 64))
    def test_counts_differing_bits(self, seed, n):
        rng = np.random.default_rng(seed)
        a, b = random_bits(rng, n), random_bits(rng, n)
        assert recon_error(a, b) == int((a != b).sum())


class TestReconstruct:
    def small_machine(self, seed=0, intra=False):
        return make_layered_machine((784, 12), (intra,), seed=seed, w_scale=0.05)

    def test_all_pixels_known_is_identity(self):
        m = self.small_machine()
        image = random_bits(np.random.default_rng(0), 784)
        out = reconstruct(m, image, np.ones(784, dtype=bool), gibbs_steps=3, rng=RngStream(1))
        np.testing.assert_array_equal(out, image)

    def test_never_alters_known_pixels(self):
        m = self.small_machine(seed=3, intra=True)
        image = random_bits(np.random.default_rng(5), 784)
        corrupted, known = corrupt(image, "bottom", RngStream(2))
        out = reconstruct(m, corrupted, known, gibbs_steps=4, rng=RngStream(3))
        np.testing.assert_array_equal(out[known], image[known])

    def test_zero_weight_machine_gives_fair_unknowns(self):
        # With zero weights and biases the visible probabilities are exactly
        # 1/2, so thresholding keeps the sampled bit: fair coin flips.
        layout = LayerSpec((784, 8), (False,))
        n = layout.n
        m = BoltzmannMachine(layout, np.zeros((n, n)), np.zeros(n), build_mask(layout))
        image = np.zeros(784, dtype=np.uint8)
        trials = 10_000
        corrupted = np.tile(image, (trials, 1))
        known = np.zeros((trials, 784), dtype=bool)
        known[:, 336:] = True
        out = reconstruct_batch(
            m, corrupted, known, 2, [RngStream(11, i) for i in range(trials)]
        )
        assert abs(out[:, :336].mean() - 0.5) < 0.02
        np.testing.assert_array_equal(out[:, 336:], 0)

    def test_informative_probabilities_are_thresholded(self):
        layout = LayerSpec((784, 8), (False,))
        n = layout.n
        m = BoltzmannMachine(layout, np.zeros((n, n)), np.zeros(n), build_mask(layout))
        m.biases[:784] = 0.15  # sigmoid(0.15) > 0.5 everywhere
        image = np.zeros(784, dtype=np.uint8)
        known = np.ones(784, dtype=bool)
        known[:336] = False
        draws = np.stack(
            [
                reconstruct(m, image, known, gibbs_steps=1, rng=RngStream(13, i))
                for i in range(50)
            ]
        )
        np.testing.assert_array_equal(draws[:, :336], 1)

    def test_default_protocol_steps(self):
        # The trained-flow evaluation protocol uses 2 Gibbs transitions.
        m = self.small_machine(seed=1)
        image = random_bits(np.random.default_rng(1), 784)
        corrupted, known = corrupt(image, "top", RngStream(4))
        out = reconstruct(m, corrupted, known, gibbs_steps=2, rng=RngStream(5))
        assert np.isin(out, (0, 1)).all()

    def test_shape_validation(self):
        m = self.small_machine()
        with pytest.raises(ValueError):
            reconstruct(m, np.zeros(10), np.ones(10, dtype=bool), 2, RngStream(0))
        with pytest.raises(ValueError):
            reconstruct(m, np.zeros(784), np.ones(784, dtype=bool), 0, RngStream(0))

    def test_batch_argument_validation(self):
        m = self.small_machine()
        images = np.zeros((3, 784), dtype=np.uint8)
        known = np.ones((3, 784), dtype=bool)
        streams = [RngStream(0, i) for i in range(3)]
        with pytest.raises(ValueError, match="gibbs_steps"):
            reconstruct_batch(m, images, known, 0, streams)
        with pytest.raises(ValueError, match="RngStream per row"):
            reconstruct_batch(m, images, known, 2, streams[:2])
        with pytest.raises(ValueError, match="expected"):
            reconstruct_batch(m, images[:, :700], known[:, :700], 2, streams)

    def test_layer_update_count(self):
        # One uniform block per layer update: each Gibbs step draws the
        # hidden layer, its intra sweeps, then the visible layer.
        sweeps, steps = 2, 3
        m = make_layered_machine((6, 4), (True,), seed=2)
        stream = CountingStream(9)
        reconstruct_batch(m, np.zeros((1, 6)), np.zeros((1, 6), dtype=bool), steps, [stream],
                          intra_sweeps=sweeps)
        assert stream.calls == steps * (1 + sweeps + 1)

    def test_thread_count_does_not_change_batch(self):
        # 1100 rows make three shards, so threads=3 takes the pooled path.
        m = make_layered_machine((20, 6, 4), (True, True), seed=4)
        rng = np.random.default_rng(8)
        images = random_bits(rng, (1100, 20))
        known = rng.random((1100, 20)) < 0.5
        streams = lambda: [RngStream(21, i) for i in range(1100)]
        a = reconstruct_batch(m, images, known, 2, streams(), threads=1)
        b = reconstruct_batch(m, images, known, 2, streams(), threads=3)
        np.testing.assert_array_equal(a, b)


class TestParzen:
    def test_single_sample_self_evaluation(self):
        d, sigma = 784, 0.2
        s = random_bits(np.random.default_rng(0), d).astype(float)
        mean, stderr = parzen_ll(s[None, :], s[None, :], sigma)
        expected = -(d / 2) * math.log(2 * math.pi * sigma**2)
        assert expected == pytest.approx(541.3515, abs=1e-3)
        assert mean == pytest.approx(expected, abs=1e-9)
        assert stderr == 0.0

    def test_duplicate_samples_do_not_change_result(self):
        rng = np.random.default_rng(1)
        s = rng.random((1, 20))
        t = random_bits(rng, (5, 20))
        one, _ = parzen_ll(s, t, 0.2)
        two, _ = parzen_ll(np.vstack([s, s]), t, 0.2)
        assert one == pytest.approx(two, rel=1e-12)

    def test_matches_naive_summation_low_dimension(self):
        rng = np.random.default_rng(2)
        samples = rng.random((30, 10))
        test = rng.random((8, 10))
        sigma = 0.3
        mean, _ = parzen_ll(samples, test, sigma)
        naive = []
        for t in test:
            kernels = [
                math.exp(-float(((t - s) ** 2).sum()) / (2 * sigma**2))
                / ((2 * math.pi * sigma**2) ** (10 / 2))
                for s in samples
            ]
            naive.append(math.log(sum(kernels) / len(kernels)))
        assert mean == pytest.approx(float(np.mean(naive)), rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.random((12, 6))
        test = rng.random((7, 6))
        base = parzen_ll(samples, test, 0.25)
        shuffled = parzen_ll(samples[rng.permutation(12)], test, 0.25)
        assert base[0] == pytest.approx(shuffled[0], rel=1e-12)
        permuted_test = parzen_ll(samples, test[rng.permutation(7)], 0.25)
        assert base[0] == pytest.approx(permuted_test[0], rel=1e-12)
        assert base[1] == pytest.approx(permuted_test[1], rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            parzen_ll(np.zeros((0, 5)), np.zeros((2, 5)), 0.2)
        with pytest.raises(ValueError):
            parzen_ll(np.zeros((2, 5)), np.zeros((2, 5)), 0.0)
        with pytest.raises(ValueError):
            parzen_ll(np.zeros((2, 5)), np.zeros((2, 6)), 0.2)

    def test_stderr_is_standard_error_of_mean(self):
        rng = np.random.default_rng(3)
        samples = rng.random((10, 4))
        test = rng.random((50, 4))
        mean, stderr = parzen_ll(samples, test, 0.2)
        assert stderr > 0
        # doubling identical test points halves nothing but keeps mean
        mean2, _ = parzen_ll(samples, np.vstack([test, test]), 0.2)
        assert mean == pytest.approx(mean2, rel=1e-12)


class TestActivationStats:
    def test_zero_machine_mean_half(self):
        layout = LayerSpec((8, 6), (False,))
        n = layout.n
        m = BoltzmannMachine(layout, np.zeros((n, n)), np.zeros(n), build_mask(layout))
        data = random_bits(np.random.default_rng(0), (4000, 8))
        stats = activation_stats(m, data, RngStream(1))
        assert abs(stats.mean - 0.5) < 0.03
        assert stats.counts.sum() == 6

    def test_histogram_partitions_units(self):
        m = make_layered_machine((10, 7, 5), (True, False), seed=2, w_scale=0.3)
        data = random_bits(np.random.default_rng(1), (200, 10))
        stats = activation_stats(m, data, RngStream(2))
        assert stats.counts.sum() == 12  # all hidden units across layers
        assert stats.per_unit.shape == (12,)
        assert stats.bin_edges[0] == 0.0 and stats.bin_edges[-1] == 1.0

    def test_rejects_empty_data(self):
        m = make_layered_machine((10, 7), (False,), seed=0)
        with pytest.raises(ValueError):
            activation_stats(m, np.zeros((0, 10)), RngStream(0))


class TestEvalReport:
    def test_text_and_csv_serialization(self):
        report = EvalReport(
            recon_errors={"top": 32.9, "left": 36.7},
            parzen_ll=78.0,
            parzen_stderr=5.9,
            mean_activation=0.26,
            rho=0.15,
            w2=12.0,
        )
        text = report.to_text()
        assert '"parzen_ll": 78.0' in text
        rows = dict(report.csv_rows())
        assert rows["recon_top"] == 32.9
        assert rows["rho"] == 0.15
