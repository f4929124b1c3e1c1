import itertools
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from conftest import make_layered_machine, random_bits
from flowbm.metrics import (
    PATTERNS,
    check_sigma,
    corrupt,
    parzen_ll,
    recon_error,
    reconstruct_batch,
    squared_weight,
    weight_sparsity,
)
from conftest import zero_machine
from flowbm.model import BoltzmannMachine, LayerSpec, new_machine
from flowbm.sampling import _draw, _update_hidden, map_shards, row_streams, stream


def reference_rows(m, gibbs_steps, intra_sweeps, streams, corrupted, known):
    """`sampling.reconstruct_rows` as it was before the final visible update
    learnt to skip its draw: every step draws the visible layer, and the
    final one keeps the sampled bit only where the probability is 1/2."""
    v = given = corrupted.astype(np.float64)
    for t in range(gibbs_steps):
        h = _update_hidden(m, 1, [v], streams, intra_sweeps)
        probs_v = expit(m.local_field(0, [v, h]))
        sampled = _draw(probs_v, streams)
        if t == gibbs_steps - 1:
            sampled = np.where(probs_v == 0.5, sampled, probs_v > 0.5)
        v = np.where(known, given, sampled)
    return v.astype(np.uint8)


# Visible biases at and around the 2**-30 field below which the final
# update keeps its draw, fields whose probability rounds to exactly 1/2,
# and the saturated and undefined ends.
TIE = 2.0**-30
FIELDS = [sign * float(x) for x in (TIE, np.nextafter(TIE, 0.0), np.nextafter(TIE, np.inf),
                                    1e-17, 5e-324, 0.0, 1.0, np.inf) for sign in (1.0, -1.0)]
FIELDS.append(np.nan)


def rbm_with_block(block: np.ndarray) -> BoltzmannMachine:
    n_vis, n_hid = block.shape
    m = zero_machine(LayerSpec((n_vis, n_hid), (False,)))
    m.block(0, 1)[...] = block
    return m


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

    @settings(max_examples=25, deadline=None)
    @given(rows=st.integers(1, 784), cols=st.integers(1, 196),
           log_scale=st.floats(-6.0, 1.0), zero_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_on_paper_sized_blocks(self, rows, cols, log_scale, zero_share,
                                                      seed):
        # Scales 1e-6 to 10, with a share of all-zero columns.
        rng = np.random.default_rng(seed)
        block = rng.normal(0, 10.0**log_scale, (rows, cols))
        block[:, rng.random(cols) < zero_share] = 0.0
        assert weight_sparsity(rbm_with_block(block)) == pytest.approx(
            sparsity_reference(block), rel=1e-12, abs=0.0)

    def test_squared_weight_examples(self):
        assert squared_weight(rbm_with_block(np.zeros((5, 3)))) == 0.0
        m = rbm_with_block(np.full((5, 3), 2.0))
        assert squared_weight(m) == pytest.approx(4.0 * 5, rel=1e-14)


class TestCorrupt:
    def test_band_locations(self):
        images = random_bits(np.random.default_rng(0), (1, 784))
        _, known = corrupt(images, "top", row_streams(0, 0, count=1))
        grid = known[0].reshape(28, 28)
        assert not grid[:12].any() and grid[12:].all()
        _, known = corrupt(images, "left", row_streams(0, 0, count=1))
        grid = known[0].reshape(28, 28)
        assert not grid[:, :12].any() and grid[:, 12:].all()
        _, known = corrupt(images, "bottom", row_streams(0, 0, count=1))
        assert not known[0].reshape(28, 28)[16:].any()
        _, known = corrupt(images, "right", row_streams(0, 0, count=1))
        assert not known[0].reshape(28, 28)[:, 16:].any()

    def test_known_region_untouched(self):
        images = random_bits(np.random.default_rng(1), (3, 784))
        for pattern in PATTERNS:
            corrupted, known = corrupt(images, pattern, row_streams(7, 0, count=3))
            assert known.shape == images.shape and (known == known[0]).all()
            np.testing.assert_array_equal(corrupted[known], images[known])
            assert np.isin(corrupted, (0, 1)).all()

    def test_each_row_flips_one_block_of_its_stream(self):
        images = random_bits(np.random.default_rng(2), (4, 784))
        corrupted, known = corrupt(images, "right", row_streams(9, 0, count=4))
        for i in range(4):
            expected = (stream(9, 0, i).random(336) < 0.5).astype(np.uint8)
            np.testing.assert_array_equal(corrupted[i][~known[i]], expected)

    def test_noise_is_fair_coin(self):
        images = np.zeros((200, 784), dtype=np.uint8)
        corrupted, _ = corrupt(images, "top", row_streams(3, 0, count=200))
        assert abs(corrupted[:, :336].mean() - 0.5) < 0.01

    def test_draws_shard_by_shard_in_bounded_memory(self):
        # The flips of 4,096 rows run on map_shards' 512-row shards: every
        # row still takes the first block of its own stream, and the peak
        # beyond the result stays near one shard's uniforms, where one
        # whole-batch draw would hold 11 MB of them.
        rows = 4096
        images = random_bits(np.random.default_rng(5), (rows, 784))
        streams = row_streams(6, 0, count=rows)
        tracemalloc.start()
        try:
            corrupted, known = corrupt(images, "bottom", streams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - corrupted.nbytes < 10 * 2**20
        for i in (0, 511, 512, 4095):
            expected = (stream(6, 0, i).random(336) < 0.5).astype(np.uint8)
            np.testing.assert_array_equal(corrupted[i][~known[i]], expected)
        with pytest.raises(ValueError, match="already sliced out"):
            corrupt(images, "bottom", streams)

    def test_rejects_wrong_size_and_pattern(self):
        with pytest.raises(ValueError):
            corrupt(np.zeros((1, 100), dtype=np.uint8), "top", row_streams(0, 0, count=1))
        with pytest.raises(ValueError):
            corrupt(np.zeros(784, dtype=np.uint8), "top", row_streams(0, 0, count=1))
        with pytest.raises(ValueError):
            corrupt(np.zeros((1, 784), dtype=np.uint8), "diagonal", row_streams(0, 0, count=1))
        with pytest.raises(ValueError, match="one stream per row"):
            corrupt(np.zeros((2, 784), dtype=np.uint8), "top", row_streams(0, 0, count=1))


class TestReconError:
    def test_examples(self):
        a = np.zeros((1, 784), dtype=np.uint8)
        assert recon_error(a, a) == 0.0
        assert recon_error(a, 1 - a) == 784.0
        b = a.copy()
        b[0, :12] = 1
        assert recon_error(a, b) == 12.0

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            recon_error(np.zeros((1, 3)), np.zeros((1, 4)))
        with pytest.raises(ValueError, match="expected"):
            recon_error(np.zeros(3), np.zeros(3))  # a vector is not a row matrix

    @pytest.mark.parametrize("original", [[[0.5, 255]], [[0, 2]], [[np.nan, 0]], [[-1, 0]]])
    def test_non_bits_rejected(self, original):
        with pytest.raises(ValueError, match="original rows: expected only 0 and 1"):
            recon_error(original, [[0, 0]])
        with pytest.raises(ValueError, match="reconstructed rows: expected only 0 and 1"):
            recon_error([[0, 0]], original)

    def test_one_distance_per_row(self):
        # The form `cmd_reconstruct` uses: one L1 error per image.
        rng = np.random.default_rng(4)
        a, b = random_bits(rng, (5, 784)), random_bits(rng, (5, 784))
        np.testing.assert_array_equal(recon_error(a, b), (a != b).sum(axis=1))
        with pytest.raises(ValueError):
            recon_error(a, b[:4])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(1, 64))
    def test_counts_differing_bits(self, seed, n):
        rng = np.random.default_rng(seed)
        a, b = random_bits(rng, (1, n)), random_bits(rng, (1, n))
        assert recon_error(a, b) == int((a != b).sum())


class TestReconstruct:
    def small_machine(self, seed=0, intra=False):
        return make_layered_machine((784, 12), (intra,), seed=seed, w_scale=0.05)

    def test_all_pixels_known_is_identity(self):
        m = self.small_machine()
        image = random_bits(np.random.default_rng(0), 784)
        out = reconstruct_batch(m, image[None], np.ones((1, 784), dtype=bool), 3,
                                row_streams(1, 0, count=1))
        np.testing.assert_array_equal(out[0], image)

    def test_never_alters_known_pixels(self):
        m = self.small_machine(seed=3, intra=True)
        image = random_bits(np.random.default_rng(5), 784)
        corrupted, known = corrupt(image[None], "bottom", row_streams(2, 0, count=1))
        out = reconstruct_batch(m, corrupted, known, 4, row_streams(3, 0, count=1))[0]
        np.testing.assert_array_equal(out[known[0]], image[known[0]])

    def test_zero_weight_machine_gives_fair_unknowns(self):
        # With zero weights and biases the visible probabilities are exactly
        # 1/2, so thresholding keeps the sampled bit: fair coin flips.
        m = zero_machine(LayerSpec((784, 8), (False,)))
        image = np.zeros(784, dtype=np.uint8)
        trials = 10_000
        corrupted = np.tile(image, (trials, 1))
        known = np.zeros((trials, 784), dtype=bool)
        known[:, 336:] = True
        out = reconstruct_batch(
            m, corrupted, known, 2, row_streams(11, 0, count=trials)
        )
        assert abs(out[:, :336].mean() - 0.5) < 0.02
        np.testing.assert_array_equal(out[:, 336:], 0)

    def test_informative_probabilities_are_thresholded(self):
        m = zero_machine(LayerSpec((784, 8), (False,)))
        m.biases[:784] = 0.15  # sigmoid(0.15) > 0.5 everywhere
        image = np.zeros(784, dtype=np.uint8)
        known = np.ones(784, dtype=bool)
        known[:336] = False
        draws = reconstruct_batch(
            m, np.tile(image, (50, 1)), np.tile(known, (50, 1)), 1,
            row_streams(13, 0, count=50),
        )
        np.testing.assert_array_equal(draws[:, :336], 1)

    def test_default_protocol_steps(self):
        # The trained-flow evaluation protocol uses 2 Gibbs transitions.
        m = self.small_machine(seed=1)
        image = random_bits(np.random.default_rng(1), 784)
        corrupted, known = corrupt(image[None], "top", row_streams(4, 0, count=1))
        out = reconstruct_batch(m, corrupted, known, 2, row_streams(5, 0, count=1))
        assert out.shape == (1, 784) and np.isin(out, (0, 1)).all()

    def test_shape_validation(self):
        m = self.small_machine()
        with pytest.raises(ValueError):
            reconstruct_batch(m, np.zeros((1, 10)), np.ones((1, 10), dtype=bool), 2,
                              row_streams(0, 0, count=1))
        with pytest.raises(ValueError):
            reconstruct_batch(m, np.zeros((1, 784)), np.ones((1, 784), dtype=bool), 0,
                              row_streams(0, 0, count=1))

    def test_batch_argument_validation(self):
        m = self.small_machine()
        images = np.zeros((3, 784), dtype=np.uint8)
        known = np.ones((3, 784), dtype=bool)
        streams = lambda count=3: row_streams(0, 0, count=count)
        with pytest.raises(ValueError, match="gibbs_steps"):
            reconstruct_batch(m, images, known, 0, streams())
        with pytest.raises(ValueError, match="stream per row"):
            reconstruct_batch(m, images, known, 2, streams(2))
        with pytest.raises(ValueError, match="expected"):
            reconstruct_batch(m, images[:, :700], known[:, :700], 2, streams())
        with pytest.raises(ValueError, match="mask shape mismatch"):
            reconstruct_batch(m, images, known[:2], 2, streams())
        observed = BoltzmannMachine(LayerSpec((4,)), np.zeros(16), np.zeros(4))
        with pytest.raises(ValueError, match="needs a hidden layer"):
            reconstruct_batch(observed, images, known, 2, streams())

    def test_layer_update_count(self, drawn_widths):
        # One uniform block per layer draw and per intra sweep, as wide as
        # the layer: each Gibbs step draws the hidden layer, its intra
        # sweeps, then the visible layer, except the final step, whose
        # visible fields all lie more than 2**-30 from 0 for every hidden
        # state, so its threshold needs no draw.
        sweeps, steps = 2, 3
        m = make_layered_machine((6, 4), (True,), seed=2)
        hidden = np.array(list(itertools.product((0.0, 1.0), repeat=4)))
        assert np.abs(m.local_field(0, [None, hidden])).min() > TIE
        reconstruct_batch(m, np.zeros((1, 6)), np.zeros((1, 6), dtype=bool), steps,
                          row_streams(9, 0, count=1), intra_sweeps=sweeps)
        assert drawn_widths == [4, 4, 4, 6] * (steps - 1) + [4, 4, 4]

    def test_a_possible_tie_keeps_the_final_draw(self, drawn_widths):
        # Zero weights and biases: every visible probability is exactly 1/2.
        sweeps, steps = 2, 3
        m = zero_machine(LayerSpec((6, 4), (True,)))
        reconstruct_batch(m, np.zeros((1, 6)), np.zeros((1, 6), dtype=bool), steps,
                          row_streams(9, 0, count=1), intra_sweeps=sweeps)
        assert drawn_widths == [4, 4, 4, 6] * steps

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("fields", [[x] for x in FIELDS] + [
        FIELDS, [x for x in FIELDS if abs(x) > TIE]],
        ids=[str(x) for x in FIELDS] + ["all", "clear of 0"])
    def test_final_update_matches_the_drawn_threshold(self, fields, threads):
        # A zero-weight machine's visible fields are its visible biases;
        # each case sets them to `fields` next to a field of 2 and one of -2.
        # 600 rows make two shards.
        biases = np.array(fields + [2.0, -2.0])
        m = zero_machine(LayerSpec((len(biases), 3), (True,)))
        m.biases[: len(biases)] = biases
        rng = np.random.default_rng(3)
        images = random_bits(rng, (600, len(biases)))
        known = rng.random(images.shape) < 0.3
        streams = lambda: row_streams(17, 0, count=len(images))
        out = reconstruct_batch(m, images, known, 2, streams(), threads=threads)
        expected = map_shards(partial(reference_rows, m, 2, 1), streams(), images, known,
                              threads=threads)
        np.testing.assert_array_equal(out, expected)

    def test_thread_count_does_not_change_batch(self):
        # 1100 rows make three shards, so threads=3 takes the pooled path.
        m = make_layered_machine((20, 6, 4), (True, True), seed=4)
        rng = np.random.default_rng(8)
        images = random_bits(rng, (1100, 20))
        known = rng.random((1100, 20)) < 0.5
        streams = lambda: row_streams(21, 0, count=1100)
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

    def test_rejects_empty_test_set_and_nonfinite_values(self):
        # An empty test set used to give a nan mean; a nan sigma or point a
        # nan result.
        samples, test = np.zeros((2, 5)), np.zeros((3, 5))
        with pytest.raises(ValueError, match="empty"):
            parzen_ll(samples, np.zeros((0, 5)), 0.2)
        for sigma in (math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma"):
                parzen_ll(samples, test, sigma)
        bad = test.copy()
        bad[1, 2] = math.nan
        with pytest.raises(ValueError, match="finite"):
            parzen_ll(samples, bad, 0.2)
        with pytest.raises(ValueError, match="finite"):
            parzen_ll(np.full((2, 5), math.inf), test, 0.2)

    def test_pinned_bits_at_sigma_0_2(self):
        # Two kernel blocks of test points, five of them on a sample.
        rng = np.random.default_rng(12)
        samples = (rng.random((300, 784)) < 0.14).astype(np.uint8)
        test = (rng.random((260, 784)) < 0.14).astype(np.uint8)
        test[:5] = samples[:5]
        mean, stderr = parzen_ll(samples, test, 0.2)
        assert (mean.hex(), stderr.hex()) == ("-0x1.67bfb0757aa9dp+10", "0x1.228d517454869p+4")

    @pytest.mark.parametrize("sigma", [1e-300, 1e-160, 1.4e-154, 5.4e153, 1e200, -0.2])
    def test_sigma_whose_variance_is_no_normal_finite_double_is_rejected(self, sigma):
        # 1e-300 gave a nan estimate, 1e-160 one off by 0.0095 nats through a
        # subnormal 2*pi*sigma**2, and 1e200 raised OverflowError.
        samples, test = np.zeros((2, 5)), np.ones((3, 5))
        with pytest.raises(ValueError, match="normal finite doubles"):
            parzen_ll(samples, test, sigma)

    @pytest.mark.parametrize("sigma", [1.5e-154, 0.2, 5.3e153])
    def test_sigma_at_the_ends_of_the_range_is_accepted(self, sigma):
        check_sigma(sigma)

    def test_estimate_or_stderr_that_overflows_is_rejected(self):
        # Raw pixels at a tiny width: every log-likelihood is finite, near
        # -1e286, but their variance overflows, so stderr was inf.
        rng = np.random.default_rng(4)
        samples, test = rng.random((20, 784)), rng.random((20, 784))
        with pytest.raises(ValueError, match="not finite"):
            parzen_ll(samples, test, 1e-150)

    def test_stderr_is_standard_error_of_mean(self):
        rng = np.random.default_rng(3)
        samples = rng.random((10, 4))
        test = rng.random((50, 4))
        mean, stderr = parzen_ll(samples, test, 0.2)
        assert stderr > 0
        # doubling identical test points halves nothing but keeps mean
        mean2, _ = parzen_ll(samples, np.vstack([test, test]), 0.2)
        assert mean == pytest.approx(mean2, rel=1e-12)

