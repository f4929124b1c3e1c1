import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit
from scipy.stats import chisquare

from conftest import make_layered_machine, random_bits
from flowbm import metrics
from flowbm.model import BoltzmannMachine, LayerSpec, new_machine
from flowbm.sampling import (
    _AHEAD,
    _SeedWords,
    _async_sweep,
    _draw,
    _key_words,
    _pcg_states,
    _update_hidden,
    e_step_batch,
    generate_batch,
    map_shards,
    row_streams,
    stream,
)


def zero_machine(sizes, intra):
    layout = LayerSpec(sizes, intra)
    return BoltzmannMachine(layout, np.zeros(layout.edges), np.zeros(layout.n))


def conditional(m, layer, states, zero_above):
    """Unit probabilities of `layer` from the samplers' `local_field` kernel,
    for one state given as a list of per-layer vectors.  The layer's own row
    is left out, and with `zero_above` the list ends below the layer."""
    rows = [np.atleast_2d(np.asarray(s, dtype=np.float64)) for s in states]
    rows[layer] = None
    return expit(m.local_field(layer, rows[:layer] if zero_above else rows))[0]


def sweep_input(m, layer, below, count):
    """Bottom-up input to `layer` for `count` copies of the state `below`."""
    return m.local_field(layer, [np.tile(np.asarray(below, dtype=np.float64), (count, 1))])


def reference_generate(m, r, intra_sweeps, top_probs, streams):
    """`sampling._generate_rows` as it was before it skipped the updates
    that no output reads: every round updates both layers of its pair."""
    top = len(m.layout.sizes) - 1
    rows = [None] * (top + 1)
    rows[top] = _draw(top_probs, streams)
    for i in range(top, 0, -1):
        for _ in range(r):
            rows[i - 1] = None
            rows[i - 1] = _draw(expit(m.local_field(i - 1, rows)), streams)
            rows[i] = _update_hidden(m, i, rows, streams, intra_sweeps)
    return expit(m.local_field(0, rows))


class TestRngStream:
    """`stream` and `row_streams`: one stream per (seed, tag, path)."""

    def test_reproducible_sequences(self):
        a = stream(123, 4).random(10)
        b = stream(123, 4).random(10)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        assert not np.array_equal(stream(1, 0).random(8), stream(1, 1).random(8))
        assert not np.array_equal(stream(1, 0).random(8), stream(2, 0).random(8))

    def test_children_are_pure_functions_of_path(self):
        np.testing.assert_array_equal(
            stream(7, 2, 3, 5).random(6), stream(7, 2, 3, 5).random(6)
        )
        assert not np.array_equal(stream(7, 2, 3).random(6), stream(7, 2, 4).random(6))

    def test_known_anchor_values(self):
        # Frozen draws guard against platform or library drift.
        draws = stream(2024, 0).random(3)
        np.testing.assert_allclose(
            draws,
            [0.9519162250141477, 0.8073363654740311, 0.3228850844831094],
            rtol=0,
            atol=1e-15,
        )

    @pytest.mark.parametrize("seed, tag, path, first", [
        (0, 0, (), [0.5651317655614634, 0.935433136976671, 0.47987454708253907]),
        (2**64 - 1, 3, (1,), [0.16058536893804187, 0.6474628722242014, 0.22871654059253121]),
        (-1, 12, (0, 7), [0.5280828472634489, 0.8871955326844335, 0.4737691922908739]),
        (5, 2, (2**32,), [0.4623050921308316, 0.9566791808998197, 0.8207449228991149]),
        (5, 2, (2**64 - 1, 9), [0.9650752668460324, 0.24982686358329498, 0.9470615120247678]),
        (2024, 2, (3, 2**32, 1), [0.7928300549726502, 0.39299529860887383, 0.7284982106316337]),
    ])
    def test_pinned_first_draws(self, seed, tag, path, first):
        # Recorded from the stream class that `stream` replaced, addressed by
        # the same (seed, tag, path): the spawn-key words must not drift.
        np.testing.assert_array_equal(stream(seed, tag, *path).random(3), first)

    def test_negative_seed_is_its_64_bit_pattern(self):
        np.testing.assert_array_equal(stream(-1, 12, 0, 7).random(4),
                                      stream(2**64 - 1, 12, 0, 7).random(4))

    def test_row_streams_are_streams_with_the_row_last(self):
        rows = row_streams(9, 2, 4, 1, count=3)
        assert len(rows) == 3 and len(row_streams(9, 2, count=0)) == 0
        block = rows.random(5)
        assert block.shape == (3, 5)
        for i in range(3):
            np.testing.assert_array_equal(block[i], stream(9, 2, 4, 1, i).random(5))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), tag=st.integers(0, 2**64 - 1),
           prefix=st.lists(st.integers(0, 2**64 - 1), max_size=3),
           rows=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4))
    @example(seed=0, tag=0, prefix=[], rows=[0, 1])
    @example(seed=2**64 - 1, tag=2**32, prefix=[2**32 + 5, 7], rows=[2**32, 2**64 - 1])
    def test_batched_seeding_matches_seed_sequence(self, seed, tag, prefix, rows):
        # Row streams are seeded without a `SeedSequence` per row; each
        # row's seed words, and the PCG64 state they seed, must be the ones
        # `stream` builds for its path.
        words = _pcg_states(seed, _key_words(tag, *prefix), np.array(rows, dtype=np.uint64))
        for i, row in enumerate(rows):
            seq = np.random.SeedSequence(seed, spawn_key=_key_words(tag, *prefix, row))
            np.testing.assert_array_equal(words[i], seq.generate_state(4, np.uint64))
            assert (np.random.PCG64(_SeedWords(words[i])).state
                    == stream(seed, tag, *prefix, row).bit_generator.state)

    def test_blocks_join_into_each_rows_stream(self):
        # The widths sum to several times the draw-ahead bound, and cross it
        # with blocks wider and narrower than the bound, and empty.
        widths = [196, 196, 700, 0, 1, _AHEAD, 1500, 64, 3 * _AHEAD + 1, 5, 900]
        assert sum(widths) > 6 * _AHEAD
        streams = row_streams(7, 2, 3, count=4)
        joined = np.concatenate([streams.random(w) for w in widths], axis=1)
        for i in range(4):
            np.testing.assert_array_equal(joined[i], stream(7, 2, 3, i).random(sum(widths)))

    def test_a_reserve_draws_what_the_block_lacks_in_one_refill(self, refill_widths):
        # The draws after a reserve come from its block until it runs out;
        # then `random` refills as before, from twice the block's width.
        streams = row_streams(7, 2, 3, count=4)
        parts = [streams.random(5)]
        streams.reserve(300)
        parts += [streams.random(100), streams.random(200)]
        streams.reserve(0)
        parts.append(streams.random(7))
        streams.reserve(650)
        parts += [streams.random(600), streams.random(50)]
        assert refill_widths == [5, 300, 600, 57]
        joined = np.concatenate(parts, axis=1)
        for i in range(4):
            np.testing.assert_array_equal(joined[i], stream(7, 2, 3, i).random(joined.shape[1]))
        sliced = row_streams(1, 0, count=2)
        sliced[:1]
        with pytest.raises(ValueError, match="sliced out cannot draw"):
            sliced.reserve(3)

    def test_per_row_generators_stay_small(self):
        # Each row holds its own Generator from the first draw on: about
        # 0.76 KB per row beyond the uniforms.  The bound, twice that, keeps
        # a larger per-row object from showing up only in a process's RSS.
        rows = 1024
        tracemalloc.start()
        try:
            streams = row_streams(3, 1, count=rows)
            block = streams.random(196)
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # The block drawn ahead and the copy handed out, 1.6 MB each.
        assert current - 2 * block.nbytes < rows * 1536


class TestConditionalProb:
    def test_zero_machine_is_half(self):
        m = zero_machine((4, 3), (False,))
        probs = conditional(m, 1, [np.zeros(4), np.zeros(3)], zero_above=True)
        np.testing.assert_array_equal(probs, 0.5 * np.ones(3))

    def test_single_active_input(self):
        m = zero_machine((3, 2), (False,))
        m.block(0, 1)[0, 0] = 2.0  # vertex 0 to vertex 3
        m.biases[3] = -1.0
        probs = conditional(m, 1, [np.array([1, 0, 0]), np.zeros(2)], zero_above=True)
        assert probs[0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), rel=1e-12)
        assert probs[0] == pytest.approx(0.7310585786300049, rel=1e-12)
        assert probs[1] == 0.5

    def test_zero_above_ignores_upper_weights(self):
        m = make_layered_machine((4, 3, 2), (False, False), seed=5)
        states = [random_bits(np.random.default_rng(0), w) for w in (4, 3, 2)]
        base = conditional(m, 1, states, zero_above=True)
        m.block(1, 2)[...] += 3.0
        np.testing.assert_array_equal(
            base, conditional(m, 1, states, zero_above=True)
        )
        assert not np.array_equal(
            base, conditional(m, 1, states, zero_above=False)
        )

    def test_monotone_in_weight_with_active_input(self):
        m = zero_machine((2, 2), (False,))
        states = [np.array([1, 0]), np.zeros(2)]
        last = 0.0
        for w in (0.0, 0.5, 1.0, 2.0):
            m.block(0, 1)[0, 0] = w  # vertex 0 to vertex 2
            p = conditional(m, 1, states, zero_above=True)[0]
            assert p > last or w == 0.0
            assert 0.0 < p < 1.0
            last = p

    def test_visible_prob_uses_layer_above(self):
        m = zero_machine((3, 2), (False,))
        m.biases[:3] = (0.2, -0.3, 0.0)
        probs = conditional(m, 0, [np.zeros(3), np.zeros(2)], zero_above=False)
        expected = 1.0 / (1.0 + np.exp(-m.biases[:3]))
        np.testing.assert_allclose(probs, expected, rtol=1e-14)


class TestSampleLayer:
    """The samplers' Bernoulli kernel `_draw`, one uniform block per stream."""

    def test_deterministic_extremes(self):
        rng = row_streams(0, 0, count=1)
        assert not _draw(np.zeros(6), rng).any()
        assert _draw(np.ones(6), rng).all()

    def test_rejects_bad_probabilities(self):
        # Caller-supplied probabilities enter the samplers only as the
        # generation prior, which is checked before any draw.
        m = zero_machine((3, 2), (False,))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            generate_batch(m, np.array([0.5, 1.2]), 1, row_streams(0, 0, count=1))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            generate_batch(m, np.array([-0.1, 0.5]), 1, row_streams(0, 0, count=1))
        # NaN fails no ordered comparison, so it passed the min and max.
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            generate_batch(m, np.array([np.nan, 0.5]), 1, row_streams(0, 0, count=1))

    def test_mean_concentration(self):
        draws = _draw(np.full(10, 0.5), row_streams(3, 0, count=10_000))
        per_bit = draws.mean(axis=0)
        assert np.abs(per_bit - 0.5).max() < 0.01 * 2  # binomial 4-sigma bound

    def test_fixed_seed_bit_identical(self):
        a = _draw(np.full(32, 0.37), row_streams(9, 1, count=1))
        b = _draw(np.full(32, 0.37), row_streams(9, 1, count=1))
        np.testing.assert_array_equal(a, b)


class TestAsyncGibbs:
    """The intra-layer sweep kernel `_async_sweep`, one row per chain."""

    def test_requires_intra_connections(self, drawn_widths):
        # `_update_hidden` sweeps only layers with intra-layer edges: a plain
        # layer takes its one conditional draw and no sweep draws.
        below = [np.zeros((1, 3))]
        for intra, widths in ((False, [2]), (True, [2] + [2] * 3)):
            drawn_widths.clear()
            _update_hidden(zero_machine((3, 2), (intra,)), 1, below, row_streams(0, 0, count=1),
                           intra_sweeps=3)
            assert drawn_widths == widths

    def test_zero_intra_weights_match_factorial_conditional(self):
        # With vanishing intra weights the update degenerates to independent
        # Bernoulli draws from the inter-layer conditional.
        m = zero_machine((2, 2), (True,))
        m.block(0, 1)[0, 0] = 0.8  # vertex 0 to vertex 2
        m.block(0, 1)[1, 1] = -0.6  # vertex 1 to vertex 3
        m.biases[2:] = (0.2, 0.4)
        below = np.array([1, 1])
        probs = conditional(m, 1, [below, np.zeros(2)], zero_above=True)
        exact = np.array(
            [
                (1 - probs[0]) * (1 - probs[1]),
                probs[0] * (1 - probs[1]),
                (1 - probs[0]) * probs[1],
                probs[0] * probs[1],
            ]
        )
        n_draws = 10_000
        h = np.zeros((n_draws, 2))
        _async_sweep(m, 1, h, sweep_input(m, 1, below, n_draws),
                     row_streams(77, 0, count=n_draws))
        counts = np.bincount((h[:, 0] + 2 * h[:, 1]).astype(int), minlength=4)
        result = chisquare(counts, f_exp=n_draws * exact)
        assert result.pvalue > 0.01

    def test_strong_intra_coupling_aligns_units(self):
        # Exact stationary law of the 2-unit layer: p(h) ~ exp(10 h1 h2),
        # so agreement probability (1 + e^10) / (3 + e^10) ~ 0.9999.
        m = zero_machine((1, 2), (True,))
        intra = m.block(1, 1)
        intra[0, 1] = intra[1, 0] = 10.0
        exact_agree = (1 + math.exp(10.0)) / (3 + math.exp(10.0))
        assert exact_agree > 0.999
        chains = 400
        streams = row_streams(13, 0, count=chains)
        h = _draw(np.full(2, 0.5), streams)
        below_input = sweep_input(m, 1, np.zeros(1), chains)
        for _ in range(50):
            _async_sweep(m, 1, h, below_input, streams)
        agree = int((h[:, 0] == h[:, 1]).sum())
        assert agree / chains >= 0.95

    def test_stationary_distribution_total_variation(self):
        # Long-run occupancy of a 2-unit intra-connected layer against the
        # enumerated Boltzmann conditional given the layer below.
        m = zero_machine((2, 2), (True,))
        intra = m.block(1, 1)
        intra[0, 1] = intra[1, 0] = 1.2
        m.block(0, 1)[0, 0] = 0.7
        m.block(0, 1)[1, 1] = -0.4
        m.biases[2:] = (0.1, -0.2)
        below = np.array([1, 1])
        c = below @ m.block(0, 1) + m.biases[2:]
        w12 = intra[0, 1]
        logits = np.array([0.0, c[0], c[1], c[0] + c[1] + w12])
        exact = np.exp(logits - logits.max())
        exact /= exact.sum()
        sweeps = 100_000
        rng = row_streams(31, 0, count=1)
        h = _draw(np.full(2, 0.5), rng)
        below_input = sweep_input(m, 1, below, 1)
        counts = np.zeros(4)
        for _ in range(sweeps):
            _async_sweep(m, 1, h, below_input, rng)
            counts[int(h[0, 0]) + 2 * int(h[0, 1])] += 1
        tv = 0.5 * np.abs(counts / sweeps - exact).sum()
        assert tv < 0.02

    def test_fixed_seed_bit_identical(self):
        m = make_layered_machine((3, 4), (True,), seed=2)
        below_input = sweep_input(m, 1, random_bits(np.random.default_rng(1), 3), 1)
        a, b = np.zeros((1, 4)), np.zeros((1, 4))
        _async_sweep(m, 1, a, below_input, row_streams(5, 5, count=1))
        _async_sweep(m, 1, b, below_input, row_streams(5, 5, count=1))
        np.testing.assert_array_equal(a, b)


class TestEStep:
    def test_zero_weight_rbm_hidden_is_fair(self):
        m = zero_machine((6, 4), (False,))
        rows = e_step_batch(
            m,
            np.zeros((10_000, 6), dtype=np.uint8),
            row_streams(3, 0, count=10_000),
        )
        assert abs(rows[:, 6:].mean() - 0.5) < 0.02

    def test_dbm_shape(self):
        m = new_machine(LayerSpec((784, 196, 196, 64), (True, True, True)), seed=0)
        x = random_bits(np.random.default_rng(0), (1, 784))
        rows = e_step_batch(m, x, row_streams(1, 0, count=1))
        assert rows.shape == (1, 784 + 196 + 196 + 64) and rows.dtype == np.uint8

    def test_bottom_up_ignores_deeper_weights(self):
        m = make_layered_machine((5, 4, 3), (False, False), seed=7)
        x = random_bits(np.random.default_rng(2), (1, 5))
        h_before = e_step_batch(m, x, row_streams(4, 0, count=1))[:, 5:9]
        m.block(1, 2)[...] *= -2.5
        h_after = e_step_batch(m, x, row_streams(4, 0, count=1))[:, 5:9]
        np.testing.assert_array_equal(h_before, h_after)

    def test_batch_thread_count_invariance(self):
        m = make_layered_machine((8, 5, 4), (True, False), seed=9)
        x = random_bits(np.random.default_rng(3), (1500, 8))
        streams = lambda: row_streams(6, 0, count=1500)
        single = e_step_batch(m, x, streams(), threads=1)
        multi = e_step_batch(m, x, streams(), threads=4)
        np.testing.assert_array_equal(single, multi)

    def test_width_mismatch_rejected(self):
        m = zero_machine((6, 4), (False,))
        with pytest.raises(ValueError, match=r"expected \(\*, 6\)"):
            e_step_batch(m, np.zeros((1, 5)), row_streams(0, 0, count=1))


class TestGenerate:
    def test_default_round_count_is_five(self):
        from flowbm.optim import TrainConfig

        assert TrainConfig().r == 5

    def test_zero_weight_machine_returns_visible_bias_probs(self):
        m = zero_machine((5, 3), (False,))
        m.biases[:5] = (0.5, -0.5, 0.0, 2.0, -2.0)
        probs = generate_batch(m, np.full(3, 0.5), 5, row_streams(0, 0, count=1))[0]
        np.testing.assert_allclose(probs, 1.0 / (1.0 + np.exp(-m.biases[:5])), rtol=1e-14)

    def test_output_shape_and_range(self):
        m = new_machine(LayerSpec((784, 16), (False,)), seed=1, init_scale=0.5)
        probs = generate_batch(m, np.full(16, 0.5), 2, row_streams(2, 0, count=1))
        assert probs.shape == (1, 784)
        assert probs.min() >= 0.0 and probs.max() <= 1.0

    def test_prior_initialization_and_validation(self):
        m = zero_machine((4, 3), (False,))
        probs = generate_batch(m, np.array([0.9, 0.1, 0.5]), 1, row_streams(1, 0, count=1))
        assert probs.shape == (1, 4)
        with pytest.raises(ValueError):
            generate_batch(m, np.array([0.9, 0.1]), 1, row_streams(1, 0, count=1))
        with pytest.raises(ValueError):
            generate_batch(m, "weird", 1, row_streams(1, 0, count=1))
        with pytest.raises(ValueError):
            generate_batch(m, np.full(3, 0.5), 0, row_streams(1, 0, count=1))
        with pytest.raises(ValueError, match="needs at least one hidden layer"):
            generate_batch(zero_machine((4,), ()), np.full(4, 0.5), 1, row_streams(1, 0, count=1))

    def test_layer_update_count(self, drawn_widths):
        # One uniform block per layer draw and per intra sweep, as wide as
        # the layer: the top init, then per pair r rounds of (down, up), the
        # upper layer's intra sweeps after its draw.  Layer 1 has intra
        # edges, layer 2 not.
        sweeps = 2
        r = 3
        m = make_layered_machine((4, 3, 2), (True, False), seed=11)
        generate_batch(m, np.full(2, 0.5), r, row_streams(8, 0, count=1), intra_sweeps=sweeps)
        assert drawn_widths == [2] + [3, 2] * r + [4, 3, 3, 3] * r

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("sizes, intra", [((6, 5, 4, 3), (True, False, True)),
                                              ((20, 8, 5), (True, True))])
    def test_skipped_updates_change_no_output(self, sizes, intra, r, threads):
        # The last round of each pair above the first takes its update's
        # uniforms without computing it; 700 rows make two shards.
        m = make_layered_machine(sizes, intra, seed=5)
        top = np.linspace(0.1, 0.9, sizes[-1])
        streams = lambda: row_streams(6, 0, count=700)
        out = generate_batch(m, top, r, streams(), intra_sweeps=2, threads=threads)
        expected = map_shards(partial(reference_generate, m, r, 2, top), streams(),
                              threads=threads)
        np.testing.assert_array_equal(out, expected)

    def test_fixed_seed_bit_identical_batch(self):
        m = make_layered_machine((6, 4, 3), (True, True), seed=3)
        streams = lambda: row_streams(12, 0, count=700)
        a = generate_batch(m, np.full(3, 0.5), 2, streams(), threads=1)
        b = generate_batch(m, np.full(3, 0.5), 2, streams(), threads=3)
        np.testing.assert_array_equal(a, b)


class TestRowContract:
    """`map_shards` checks every batch sampler's rows against its streams."""

    SAMPLERS = {
        "e_step": lambda m, images, streams, **kw: e_step_batch(m, images, streams, **kw),
        "reconstruct": lambda m, images, streams, **kw: metrics.reconstruct_batch(
            m, images, np.ones(images.shape, dtype=bool), 2, streams, **kw),
        "generate": lambda m, _images, streams, **kw: generate_batch(
            m, np.full(6, 0.5), 1, streams, **kw),
    }

    @pytest.mark.parametrize("name", ["e_step", "reconstruct"])  # generate takes no rows
    def test_one_stream_fewer_than_rows_is_rejected(self, name):
        m = make_layered_machine((784, 6), (False,), seed=1)
        images = random_bits(np.random.default_rng(0), (3, 784))
        with pytest.raises(ValueError, match="need one stream per row"):
            self.SAMPLERS[name](m, images, row_streams(0, 0, count=2))

    @pytest.mark.parametrize("name", SAMPLERS)
    def test_zero_rows_are_rejected(self, name):
        m = make_layered_machine((784, 6), (False,), seed=1)
        with pytest.raises(ValueError, match="at least one row"):
            self.SAMPLERS[name](m, np.zeros((0, 784), dtype=np.uint8), row_streams(0, 0, count=0))

    @pytest.mark.parametrize("threads", [0, -2, 2.0, "2", None])
    @pytest.mark.parametrize("name", SAMPLERS)
    def test_threads_other_than_an_integer_of_at_least_1_are_rejected(self, name, threads,
                                                                      drawn_widths):
        # threads=0 and threads=-2 ran serially.
        m = make_layered_machine((784, 6), (False,), seed=1)
        images = random_bits(np.random.default_rng(0), (3, 784))
        sampler = self.SAMPLERS[name]
        with pytest.raises(ValueError, match="threads must be an integer of at least 1"):
            sampler(m, images, row_streams(0, 0, count=3), threads=threads)
        assert drawn_widths == []
        assert sampler(m, images, row_streams(0, 0, count=3), threads=np.int64(2)).shape[0] == 3

    @pytest.mark.parametrize("sweeps", [-1, -3])
    @pytest.mark.parametrize("name", SAMPLERS)
    def test_a_negative_intra_sweep_count_is_rejected(self, name, sweeps):
        # A negative count gave exactly the output of 0 sweeps.
        m = make_layered_machine((784, 6), (True,), seed=1)
        images = random_bits(np.random.default_rng(0), (3, 784))
        with pytest.raises(ValueError, match=f"intra_sweeps must be non-negative, got {sweeps}"):
            self.SAMPLERS[name](m, images, row_streams(0, 0, count=3), intra_sweeps=sweeps)

    def test_row_streams_move_to_their_slices(self):
        streams = row_streams(4, 1, count=6)
        head, tail = streams[:4], streams[4:]
        np.testing.assert_array_equal(tail.random(3)[1], stream(4, 1, 5).random(3))
        with pytest.raises(ValueError, match="already sliced out"):
            streams[3:5]
        with pytest.raises(ValueError, match="sliced out cannot draw"):
            streams.random(3)
        head.random(2)
        with pytest.raises(ValueError, match="drawn cannot be sliced"):
            head[:1]

    def test_a_sampler_cannot_reuse_its_streams(self):
        # A second call on the same streams would repeat the first call's
        # draws; the shards took the rows, so it raises before drawing.
        m = make_layered_machine((5, 4), (False,), seed=2)
        x = random_bits(np.random.default_rng(1), (3, 5))
        streams = row_streams(2, 0, count=3)
        e_step_batch(m, x, streams)
        with pytest.raises(ValueError, match="already sliced out"):
            e_step_batch(m, x, streams)

    def test_rows_handed_out_raise_before_any_shard_draws(self, drawn_widths):
        # 1,100 rows make three shards; the second holds rows 600-699, which
        # another object took, so no shard may draw before the check.
        m = make_layered_machine((5, 4), (False,), seed=2)
        x = random_bits(np.random.default_rng(1), (1100, 5))
        streams = row_streams(2, 0, count=1100)
        streams[600:700]
        with pytest.raises(ValueError, match="already sliced out"):
            e_step_batch(m, x, streams)
        assert drawn_widths == []

    def test_finished_shards_free_their_streams(self):
        # A 4,096-row deep E-step is 8 shards.  Each shard's generators and
        # block drawn ahead (about 4 MB) go when its run returns, so the
        # peak beyond the result is near one shard's working set: 11 MB.
        # The bound lies well below the 36 MB of a runner that holds every
        # shard's streams until the last shard returns.
        m = make_layered_machine((784, 196, 196, 64), (True, True, True), seed=5)
        x = random_bits(np.random.default_rng(5), (4096, 784))
        streams = row_streams(5, 0, count=4096)
        tracemalloc.start()
        try:
            rows = e_step_batch(m, x, streams, intra_sweeps=1, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - rows.nbytes < 20e6


CONCURRENT_CALLERS = """
import threading

import numpy as np

from flowbm import metrics
from flowbm.model import LayerSpec, new_machine
from flowbm.sampling import e_step_batch, generate_batch, row_streams

ROWS = 1100  # three shards
m = new_machine(LayerSpec((784, 24, 24, 12), (True, True, True)), seed=4, init_scale=0.3)
x = (np.random.default_rng(4).random((ROWS, 784)) < 0.3).astype(np.uint8)
corrupted, known = metrics.corrupt(x, "left", row_streams(4, 3, count=ROWS))


def calls(tag):
    streams = lambda i: row_streams(tag, i, count=ROWS)
    return [generate_batch(m, np.full(12, 0.5), 2, streams(0), threads=2),
            e_step_batch(m, x, streams(1), threads=2),
            metrics.reconstruct_batch(m, corrupted, known, 2, streams(2), threads=2)]


serial = [calls(tag) for tag in (1, 2)]
results = {}
start = threading.Barrier(2)


def caller(tag):
    start.wait()
    results[tag] = calls(tag)


callers = [threading.Thread(target=caller, args=(tag,)) for tag in (1, 2)]
for t in callers:
    t.start()
for t in callers:
    t.join()
for tag, expected in zip((1, 2), serial):
    for got, want in zip(results[tag], expected):
        np.testing.assert_array_equal(got, want)
print("same results")
"""


def test_concurrent_callers_get_their_serial_results():
    # Two user threads, each sampling on a pool of two, share the module's
    # loop lock.  A subprocess with a timeout turns a deadlock into a failure.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", CONCURRENT_CALLERS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip() == "same results"


class TestPinnedBytes:
    """SHA-256 of every batch sampler's output on 600 rows (two shards) of a
    784-12-8 machine with intra edges, recorded before `map_shards` took
    over the shards and `e_step_batch` returned one pair matrix (then its
    layers joined along axis 1): no row's draw sequence may change."""

    ROWS = 600

    @staticmethod
    def sha(a, dtype) -> str:
        return hashlib.sha256(np.ascontiguousarray(a, dtype=dtype).tobytes()).hexdigest()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_pinned_bytes_of_the_batch_samplers(self, threads):
        m = make_layered_machine((784, 12, 8), (True, True), seed=15, w_scale=0.2)
        x = random_bits(np.random.default_rng(15), (self.ROWS, 784))
        rows = e_step_batch(m, x, row_streams(3, 1, count=self.ROWS), threads=threads)
        assert rows.dtype == np.uint8 and rows.shape == (self.ROWS, 804)
        assert self.sha(rows, np.uint8) == (
            "e9fa651b5a4bb3a57c4be81f1ccc61de2ff1a9bf9c1de52ed2552e480bdd7057")
        probs = generate_batch(m, np.full(8, 0.5), 2, row_streams(3, 2, count=self.ROWS),
                               threads=threads)
        assert self.sha(probs, "<f8") == (
            "fd30ae42b8ec80bcbfbe4d74f32ed540c3f3a97e4a79b96314241e9b1f78be9b")
        corrupted_sha, recon_sha = hashlib.sha256(), hashlib.sha256()
        for i, pattern in enumerate(metrics.PATTERNS):
            corrupted, known = metrics.corrupt(x, pattern, row_streams(3, 3, i, count=self.ROWS))
            recon = metrics.reconstruct_batch(
                m, corrupted, known, 2, row_streams(3, 4, i, count=self.ROWS), threads=threads)
            corrupted_sha.update(np.ascontiguousarray(corrupted, dtype=np.uint8).tobytes())
            recon_sha.update(np.ascontiguousarray(recon, dtype=np.uint8).tobytes())
        assert corrupted_sha.hexdigest() == (
            "6a23d442d9156b73150e817f23fc5c3568ac8a11b3234fc70029805a58c6901e")
        assert recon_sha.hexdigest() == (
            "5fd742db17fe07155691bdcf61ca6876e5853b8920824348df56cdca1ab5f6f0")
        # generate's --init prior: the top layer's mean over the E-step rows.
        rows = e_step_batch(m, x, row_streams(3, 5, count=self.ROWS), threads=threads)
        prior = rows[:, m.layout.slices[-1]].astype(np.float64).mean(axis=0)
        assert self.sha(prior, "<f8") == (
            "5e071779e39604891f3f66e078ccd9756d90c7e003515f87fee4749f2b72938f")
