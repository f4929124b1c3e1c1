import math

import numpy as np
import pytest
from scipy.stats import chisquare

from conftest import CountingStream, make_layered_machine, random_bits
from flowbm.model import BoltzmannMachine, LayerSpec, build_mask, new_machine
from flowbm.sampling import (
    RngStream,
    async_gibbs,
    conditional_prob,
    e_step,
    e_step_batch,
    generate,
    generate_batch,
    mean_activation_prior,
    sample_layer,
    visible_prob,
)


def zero_machine(sizes, intra):
    layout = LayerSpec(sizes, intra)
    n = layout.n
    return BoltzmannMachine(layout, np.zeros((n, n)), np.zeros(n), build_mask(layout))


class TestRngStream:
    def test_reproducible_sequences(self):
        a = RngStream(123, 4).uniforms(10)
        b = RngStream(123, 4).uniforms(10)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        assert not np.array_equal(RngStream(1, 0).uniforms(8), RngStream(1, 1).uniforms(8))
        assert not np.array_equal(RngStream(1, 0).uniforms(8), RngStream(2, 0).uniforms(8))

    def test_children_are_pure_functions_of_path(self):
        root = RngStream(7, 2)
        np.testing.assert_array_equal(
            root.child(3, 5).uniforms(6), RngStream(7, 2).child(3, 5).uniforms(6)
        )
        assert not np.array_equal(root.child(3).uniforms(6), root.child(4).uniforms(6))

    def test_known_anchor_values(self):
        # Frozen draws guard against platform or library drift.
        draws = RngStream(2024, 0).uniforms(3)
        np.testing.assert_allclose(
            draws,
            [0.9519162250141477, 0.8073363654740311, 0.3228850844831094],
            rtol=0,
            atol=1e-15,
        )


class TestConditionalProb:
    def test_zero_machine_is_half(self):
        m = zero_machine((4, 3), (False,))
        probs = conditional_prob(m, 1, [np.zeros(4), np.zeros(3)], zero_above=True)
        np.testing.assert_array_equal(probs, 0.5 * np.ones(3))

    def test_single_active_input(self):
        m = zero_machine((3, 2), (False,))
        m.weights[0, 3] = m.weights[3, 0] = 2.0
        m.biases[3] = -1.0
        probs = conditional_prob(m, 1, [np.array([1, 0, 0]), np.zeros(2)], zero_above=True)
        assert probs[0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), rel=1e-12)
        assert probs[0] == pytest.approx(0.7310585786300049, rel=1e-12)
        assert probs[1] == 0.5

    def test_zero_above_ignores_upper_weights(self):
        m = make_layered_machine((4, 3, 2), (False, False), seed=5)
        states = [random_bits(np.random.default_rng(0), w) for w in (4, 3, 2)]
        base = conditional_prob(m, 1, states, zero_above=True)
        sl = m.layout.slices()
        m.weights[sl[1], sl[2]] += 3.0
        m.weights[sl[2], sl[1]] += 3.0
        np.testing.assert_array_equal(
            base, conditional_prob(m, 1, states, zero_above=True)
        )
        assert not np.array_equal(
            base, conditional_prob(m, 1, states, zero_above=False)
        )

    def test_monotone_in_weight_with_active_input(self):
        m = zero_machine((2, 2), (False,))
        states = [np.array([1, 0]), np.zeros(2)]
        last = 0.0
        for w in (0.0, 0.5, 1.0, 2.0):
            m.weights[0, 2] = m.weights[2, 0] = w
            p = conditional_prob(m, 1, states, zero_above=True)[0]
            assert p > last or w == 0.0
            assert 0.0 < p < 1.0
            last = p

    def test_index_out_of_range(self):
        m = zero_machine((4, 3), (False,))
        with pytest.raises(ValueError):
            conditional_prob(m, 0, [np.zeros(4), np.zeros(3)], zero_above=True)
        with pytest.raises(ValueError):
            conditional_prob(m, 2, [np.zeros(4), np.zeros(3)], zero_above=True)

    def test_visible_prob_uses_layer_above(self):
        m = zero_machine((3, 2), (False,))
        m.biases[:3] = (0.2, -0.3, 0.0)
        probs = visible_prob(m, [np.zeros(3), np.zeros(2)])
        expected = 1.0 / (1.0 + np.exp(-m.biases[:3]))
        np.testing.assert_allclose(probs, expected, rtol=1e-14)


class TestSampleLayer:
    def test_deterministic_extremes(self):
        rng = RngStream(0)
        assert not sample_layer(np.zeros(6), rng).any()
        assert sample_layer(np.ones(6), rng).all()

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            sample_layer(np.array([0.5, 1.2]), RngStream(0))
        with pytest.raises(ValueError):
            sample_layer(np.array([-0.1]), RngStream(0))

    def test_mean_concentration(self):
        draws = np.stack(
            [sample_layer(np.full(10, 0.5), RngStream(3, i)) for i in range(10_000)]
        )
        per_bit = draws.mean(axis=0)
        assert np.abs(per_bit - 0.5).max() < 0.01 * 2  # binomial 4-sigma bound

    def test_fixed_seed_bit_identical(self):
        a = sample_layer(np.full(32, 0.37), RngStream(9, 1))
        b = sample_layer(np.full(32, 0.37), RngStream(9, 1))
        np.testing.assert_array_equal(a, b)


class TestAsyncGibbs:
    def test_requires_intra_connections(self):
        m = zero_machine((3, 2), (False,))
        with pytest.raises(ValueError):
            async_gibbs(m, 1, [np.zeros(3), np.zeros(2)], RngStream(0))

    def test_zero_intra_weights_match_factorial_conditional(self):
        # With vanishing intra weights the update degenerates to independent
        # Bernoulli draws from the inter-layer conditional.
        m = zero_machine((2, 2), (True,))
        m.weights[0, 2] = m.weights[2, 0] = 0.8
        m.weights[1, 3] = m.weights[3, 1] = -0.6
        m.biases[2:] = (0.2, 0.4)
        below = np.array([1, 1])
        probs = conditional_prob(m, 1, [below, np.zeros(2)], zero_above=True)
        exact = np.array(
            [
                (1 - probs[0]) * (1 - probs[1]),
                probs[0] * (1 - probs[1]),
                (1 - probs[0]) * probs[1],
                probs[0] * probs[1],
            ]
        )
        n_draws = 10_000
        counts = np.zeros(4)
        for i in range(n_draws):
            h = async_gibbs(m, 1, [below, np.zeros(2)], RngStream(77, i))
            counts[int(h[0]) + 2 * int(h[1])] += 1
        result = chisquare(counts, f_exp=n_draws * exact)
        assert result.pvalue > 0.01

    def test_strong_intra_coupling_aligns_units(self):
        # Exact stationary law of the 2-unit layer: p(h) ~ exp(10 h1 h2),
        # so agreement probability (1 + e^10) / (3 + e^10) ~ 0.9999.
        m = zero_machine((1, 2), (True,))
        m.weights[1, 2] = m.weights[2, 1] = 10.0
        exact_agree = (1 + math.exp(10.0)) / (3 + math.exp(10.0))
        assert exact_agree > 0.999
        agree = 0
        chains = 400
        for c in range(chains):
            rng = RngStream(13, c)
            states = [np.zeros(1), sample_layer(np.full(2, 0.5), rng)]
            for _ in range(50):
                states[1] = async_gibbs(m, 1, states, rng)
            agree += int(states[1][0] == states[1][1])
        assert agree / chains >= 0.95

    def test_stationary_distribution_total_variation(self):
        # Long-run occupancy of a 2-unit intra-connected layer against the
        # enumerated Boltzmann conditional given the layer below.
        m = zero_machine((2, 2), (True,))
        m.weights[2, 3] = m.weights[3, 2] = 1.2
        m.weights[0, 2] = m.weights[2, 0] = 0.7
        m.weights[1, 3] = m.weights[3, 1] = -0.4
        m.biases[2:] = (0.1, -0.2)
        below = np.array([1, 1])
        c = below @ m.weights[:2, 2:] + m.biases[2:]
        w12 = m.weights[2, 3]
        logits = np.array([0.0, c[0], c[1], c[0] + c[1] + w12])
        exact = np.exp(logits - logits.max())
        exact /= exact.sum()
        sweeps = 100_000
        rng = RngStream(31)
        states = [below, sample_layer(np.full(2, 0.5), rng)]
        counts = np.zeros(4)
        for _ in range(sweeps):
            states[1] = async_gibbs(m, 1, states, rng)
            counts[int(states[1][0]) + 2 * int(states[1][1])] += 1
        tv = 0.5 * np.abs(counts / sweeps - exact).sum()
        assert tv < 0.02

    def test_fixed_seed_bit_identical(self):
        m = make_layered_machine((3, 4), (True,), seed=2)
        states = [random_bits(np.random.default_rng(1), 3), np.zeros(4)]
        a = async_gibbs(m, 1, states, RngStream(5, 5))
        b = async_gibbs(m, 1, states, RngStream(5, 5))
        np.testing.assert_array_equal(a, b)


class TestEStep:
    def test_zero_weight_rbm_hidden_is_fair(self):
        m = zero_machine((6, 4), (False,))
        rows = e_step_batch(
            m,
            np.zeros((10_000, 6), dtype=np.uint8),
            [RngStream(3, i) for i in range(10_000)],
        )
        assert abs(rows[1].mean() - 0.5) < 0.02

    def test_dbm_shape(self):
        m = new_machine(LayerSpec((784, 196, 196, 64), (True, True, True)), seed=0)
        layers = e_step(m, random_bits(np.random.default_rng(0), 784), RngStream(1))
        assert [len(layer) for layer in layers] == [784, 196, 196, 64]

    def test_bottom_up_ignores_deeper_weights(self):
        m = make_layered_machine((5, 4, 3), (False, False), seed=7)
        x = random_bits(np.random.default_rng(2), 5)
        h_before = e_step(m, x, RngStream(4))[1]
        sl = m.layout.slices()
        m.weights[sl[1], sl[2]] *= -2.5
        m.weights[sl[2], sl[1]] *= -2.5
        h_after = e_step(m, x, RngStream(4))[1]
        np.testing.assert_array_equal(h_before, h_after)

    def test_batch_thread_count_invariance(self):
        m = make_layered_machine((8, 5, 4), (True, False), seed=9)
        x = random_bits(np.random.default_rng(3), (1500, 8))
        streams = lambda: [RngStream(6, i) for i in range(1500)]
        single = e_step_batch(m, x, streams(), threads=1)
        multi = e_step_batch(m, x, streams(), threads=4)
        for a, b in zip(single, multi):
            np.testing.assert_array_equal(a, b)

    def test_width_mismatch_rejected(self):
        m = zero_machine((6, 4), (False,))
        with pytest.raises(ValueError):
            e_step(m, np.zeros(5), RngStream(0))


class TestGenerate:
    def test_default_round_count_is_five(self):
        from flowbm.optim import TrainConfig

        assert TrainConfig().r == 5

    def test_zero_weight_machine_returns_visible_bias_probs(self):
        m = zero_machine((5, 3), (False,))
        m.biases[:5] = (0.5, -0.5, 0.0, 2.0, -2.0)
        probs = generate(m, "uniform", r=5, rng=RngStream(0))
        np.testing.assert_allclose(probs, 1.0 / (1.0 + np.exp(-m.biases[:5])), rtol=1e-14)

    def test_output_shape_and_range(self):
        m = new_machine(LayerSpec((784, 16), (False,)), seed=1, init_scale=0.5)
        probs = generate(m, "uniform", r=2, rng=RngStream(2))
        assert probs.shape == (784,)
        assert probs.min() >= 0.0 and probs.max() <= 1.0

    def test_prior_initialization_and_validation(self):
        m = zero_machine((4, 3), (False,))
        probs = generate(m, np.array([0.9, 0.1, 0.5]), r=1, rng=RngStream(1))
        assert probs.shape == (4,)
        with pytest.raises(ValueError):
            generate(m, np.array([0.9, 0.1]), r=1, rng=RngStream(1))
        with pytest.raises(ValueError):
            generate(m, "weird", r=1, rng=RngStream(1))
        with pytest.raises(ValueError):
            generate(m, "uniform", r=0, rng=RngStream(1))

    def test_layer_update_count(self):
        # One uniform block per layer update: top init, then per pair r
        # rounds of (down, up) plus intra sweeps on the upper layer.
        sweeps = 2
        r = 3
        m = make_layered_machine((4, 3, 2), (True, False), seed=11)
        stream = CountingStream(8)
        generate(m, "uniform", r=r, rng=stream, intra_sweeps=sweeps)
        expected = 1 + r * (2 + sweeps) + r * 2  # pair (2,1) has intra, pair (1,0) not
        assert stream.calls == expected

    def test_fixed_seed_bit_identical_batch(self):
        m = make_layered_machine((6, 4, 3), (True, True), seed=3)
        streams = lambda: [RngStream(12, i) for i in range(700)]
        a = generate_batch(m, "uniform", 2, streams(), threads=1)
        b = generate_batch(m, "uniform", 2, streams(), threads=3)
        np.testing.assert_array_equal(a, b)


class TestMeanActivationPrior:
    def test_zero_machine_prior_is_half(self):
        m = zero_machine((4, 3), (False,))
        data = np.zeros((10_000, 4), dtype=np.uint8)
        prior = mean_activation_prior(m, data, RngStream(5))
        assert np.abs(prior - 0.5).max() < 0.02

    def test_saturated_weights_reproduce_top_state(self):
        m = zero_machine((2, 2), (False,))
        m.biases[2:] = (40.0, -40.0)  # sigmoid saturates to exactly 1 / almost 0
        prior = mean_activation_prior(m, np.array([[1, 0]], dtype=np.uint8), RngStream(0))
        np.testing.assert_array_equal(prior, [1.0, 0.0])

    def test_range_and_empty_rejection(self):
        m = make_layered_machine((5, 4), (True,), seed=1)
        prior = mean_activation_prior(m, random_bits(np.random.default_rng(0), (50, 5)), RngStream(2))
        assert prior.min() >= 0.0 and prior.max() <= 1.0
        with pytest.raises(ValueError):
            mean_activation_prior(m, np.zeros((0, 5)), RngStream(2))
