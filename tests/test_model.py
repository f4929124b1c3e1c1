import copy
import dataclasses
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    flow_row,
    make_machine,
    make_layered_machine,
    random_bits,
    stored_edges,
    zero_machine,
)
from exact_oracles import dense_weights, energy
from flowbm.model import (
    BoltzmannMachine,
    LayerSpec,
    new_machine,
    parse_number,
    validate,
)
from flowbm import checkpoint
from flowbm.mpf import _flow_arrays
from flowbm.optim import TrainConfig
from flowbm.training import init_state


def edgewise_energy(m, s):
    """Independent scalar implementation: loop over unordered edges."""
    w, edges = dense_weights(m), stored_edges(m.layout)
    total = 0.0
    for i in range(m.layout.n):
        for j in range(i + 1, m.layout.n):
            if edges[i, j]:
                total -= w[i, j] * s[i] * s[j]
    for i in range(m.layout.n):
        total -= m.biases[i] * s[i]
    return total


class TestLayerSpec:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LayerSpec(())

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            LayerSpec((4, 0), (False,))

    def test_intra_length_must_match(self):
        with pytest.raises(ValueError):
            LayerSpec((4, 3), ())

    def test_fully_observed_has_no_intra_flags(self):
        spec = LayerSpec((4,))
        assert spec.intra_layer == ()
        assert len(spec.sizes) == 1

    def test_from_strings(self):
        spec = LayerSpec.from_strings("784-196-196-64", "1,1,1")
        assert spec.sizes == (784, 196, 196, 64)
        assert spec.intra_layer == (True, True, True)
        assert LayerSpec.from_strings("784-196").intra_layer == (False,)
        with pytest.raises(ValueError):
            LayerSpec.from_strings("784-abc")

    @pytest.mark.parametrize("text, kind, value", [
        ("-1", int, -1), (" 7 ", int, 7), ("1e-3", float, 1e-3), ("0.0010", float, 0.001),
        ("1e+3", float, 1000.0),
    ])
    def test_parse_number_reads_plain_spellings(self, text, kind, value):
        assert parse_number(text, kind) == value and type(parse_number(text, kind)) is kind

    @pytest.mark.parametrize("text, kind", [
        ("1_6", int), ("+16", int), (" +1", int), ("\uff13", int), ("\u0661", int),
        ("0_001", float), ("+0.5", float), ("1\u00a0", float),
    ])
    def test_parse_number_rejects_other_spellings(self, text, kind):
        # int() and float() accept each of these.
        kind(text)
        with pytest.raises(ValueError, match="not a plain"):
            parse_number(text, kind)
        if kind is int:
            with pytest.raises(ValueError, match="bad layout string"):
                LayerSpec.from_strings(f"784-{text}")

    def test_slices_cover_vertices(self):
        spec = LayerSpec((5, 3, 2), (False, True))
        sl = spec.slices
        assert [s.stop - s.start for s in sl] == [5, 3, 2]
        assert sl[0].start == 0 and sl[-1].stop == spec.n


class TestMaskStructure:
    """The stored blocks cover exactly the allowed edges."""

    def test_fully_observed_all_to_all(self):
        layout = LayerSpec((4,))
        assert list(layout.blocks) == [(0, 0)]
        assert layout.edges == 4 * 4
        edges = stored_edges(layout)
        assert edges.sum() == 4 * 3

    def test_rbm_mask_only_between_layers(self):
        layout = LayerSpec((784, 196), (False,))
        assert list(layout.blocks) == [(0, 1)]
        assert layout.edges == 784 * 196
        edges = stored_edges(layout)
        assert edges[:784, 784:].all()
        assert not edges[:784, :784].any()
        assert not edges[784:, 784:].any()

    def test_dbm2_mask_has_intra_blocks(self):
        layout = LayerSpec((784, 196, 196, 64), (True, True, True))
        assert list(layout.blocks) == [(0, 1), (1, 2), (2, 3), (1, 1), (2, 2), (3, 3)]
        assert layout.edges == 285_552
        edges = stored_edges(layout)
        sl = layout.slices
        for k in (1, 2, 3):
            block = edges[sl[k], sl[k]]
            assert block.sum() == layout.sizes[k] * (layout.sizes[k] - 1)
        assert not edges[sl[0], sl[2]].any()
        assert not edges[sl[1], sl[3]].any()

    def test_block_views_share_the_flat_vector(self):
        m = make_layered_machine((4, 3, 2), (True, False), seed=1)
        m.block(1, 1)[0, 2] = 9.0
        assert (m.weights == 9.0).sum() == 1
        assert dense_weights(m)[4, 6] == 9.0
        grad = np.zeros_like(m.weights)
        m.block(1, 2, grad)[...] = 1.0
        assert grad.sum() == 3 * 2
        with pytest.raises(ValueError):
            m.block(0, 2)


@st.composite
def layouts(draw):
    """A layout of 1-4 layers of widths 1-6 with any intra flags."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    intra = draw(st.lists(st.booleans(), min_size=len(sizes) - 1, max_size=len(sizes) - 1))
    return LayerSpec(tuple(sizes), tuple(intra))


class TestBlockTable:
    """`LayerSpec.blocks`, `edges` and `slices`, computed once per layout."""

    @settings(max_examples=80, deadline=None)
    @given(layout=layouts(), seed=st.integers(0, 10_000))
    def test_blocks_tile_the_weights_in_storage_order(self, layout, seed):
        layers = len(layout.sizes)
        inter = [(a, a + 1) for a in range(layers - 1)]
        intra = [(k, k) for k in range(1, layers) if layout.intra_layer[k - 1]]
        assert list(layout.blocks) == (inter + intra if inter else [(0, 0)])
        start = 0
        for (a, b), span in layout.blocks.items():
            assert span.start == start
            assert span.stop - start == layout.sizes[a] * layout.sizes[b]
            start = span.stop
        assert start == layout.edges
        bounds = np.cumsum((0,) + layout.sizes)
        sl = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        assert layout.slices == tuple(sl)

        rng = np.random.default_rng(seed)
        w = rng.normal(size=(layout.n, layout.n))
        w = w + w.T
        np.fill_diagonal(w, 0.0)
        m = BoltzmannMachine.from_dense(layout, w, np.zeros(layout.n))
        for a, b in itertools.product(range(layers), repeat=2):
            if (a, b) in layout.blocks:
                np.testing.assert_array_equal(m.block(a, b), dense_weights(m)[sl[a], sl[b]])
                np.testing.assert_array_equal(m.block(a, b), w[sl[a], sl[b]])
            else:
                with pytest.raises(ValueError, match="share no stored block"):
                    m.block(a, b)

    @settings(max_examples=40, deadline=None)
    @given(layout=layouts())
    def test_equal_layouts_stay_equal_through_a_checkpoint(self, layout):
        twin = LayerSpec(list(layout.sizes), list(layout.intra_layer))
        assert twin == layout and hash(twin) == hash(layout) and repr(twin) == repr(layout)
        ck = init_state(layout, TrainConfig())
        loaded = checkpoint.deserialize(checkpoint.serialize(ck)).layout
        for other in (loaded, pickle.loads(pickle.dumps(layout)), copy.deepcopy(layout)):
            assert other == layout and hash(other) == hash(layout)
            assert dict(other.blocks) == dict(layout.blocks)
            assert (other.slices, other.edges) == (layout.slices, layout.edges)

    def test_table_is_read_only_and_not_a_field(self):
        layout = LayerSpec((3, 2), (True,))
        assert [f.name for f in dataclasses.fields(layout)] == ["sizes", "intra_layer"]
        assert repr(layout) == "LayerSpec(sizes=(3, 2), intra_layer=(True,))"
        with pytest.raises(TypeError):
            layout.blocks[0, 0] = slice(0, 9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            layout.edges = 0


class TestMachineSize:
    """The layout sizes every machine: its constructor checks both vectors."""

    @pytest.mark.parametrize("edges, n", [(5, 5), (7, 5), (6, 4), (6, 6), ((6, 1), 5),
                                          (6, (5, 1)), ((), 5)])
    def test_mis_sized_vectors_are_rejected(self, edges, n):
        layout = LayerSpec((3, 2), (False,))
        with pytest.raises(ValueError, match="the layout needs"):
            BoltzmannMachine(layout, np.zeros(edges), np.zeros(n))
        assert BoltzmannMachine(layout, np.zeros(6), np.zeros(5)).biases.shape == (5,)

    def test_from_dense_rejects_a_short_bias_vector(self):
        layout = LayerSpec((2, 1), (False,))
        with pytest.raises(ValueError, match="the layout needs"):
            BoltzmannMachine.from_dense(layout, np.zeros((3, 3)), np.zeros(2))
        assert BoltzmannMachine.from_dense(layout, np.zeros((3, 3)), np.zeros(3)).weights.shape == (2,)

    @pytest.mark.parametrize("field, value", [("weights", np.zeros(3)), ("biases", np.zeros(2)),
                                              ("layout", LayerSpec((3,)))])
    def test_fields_cannot_be_reassigned_past_the_check(self, field, value):
        # `m.biases = np.zeros(2)` on a 2-1 machine passed `validate`, and
        # local_field then returned an empty field with no error.
        m = new_machine(LayerSpec((2, 1), (False,)), seed=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(m, field, value)
        assert (m.weights.shape, m.biases.shape) == ((2,), (3,))
        m.weights[0] = 0.5  # the vectors themselves stay writable for the trainers
        assert validate(m) == []


class TestEnergy:
    def test_all_zero_state(self):
        m = make_machine(5, seed=0)
        assert energy(m, np.zeros(5)) == 0.0

    def test_single_bias(self):
        layout = LayerSpec((1,))
        m = BoltzmannMachine(layout, np.zeros(1), np.array([0.5]))
        assert energy(m, np.array([1])) == -0.5

    def test_two_vertex_example(self):
        layout = LayerSpec((2,))
        m = BoltzmannMachine(layout, np.array([0.0, 2.0, 2.0, 0.0]), np.array([0.5, -1.0]))
        s = np.array([1, 1])
        expected = -(2.0 * 1 * 1) - (0.5 * 1 + (-1.0) * 1)
        assert expected == -1.5
        assert energy(m, s) == pytest.approx(expected, abs=1e-15)

    def test_dimension_mismatch(self):
        m = make_machine(4, seed=1)
        with pytest.raises(ValueError):
            energy(m, np.zeros(5))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 8))
    def test_matrix_form_equals_edgewise(self, seed, n):
        m = make_machine(n, seed=seed)
        s = random_bits(np.random.default_rng(seed + 1), n)
        reference = edgewise_energy(m, s)
        assert energy(m, s) == pytest.approx(reference, rel=1e-12, abs=1e-12)

    def test_layered_energy_respects_mask(self):
        m = make_layered_machine((4, 3, 2), (True, False), seed=3)
        s = random_bits(np.random.default_rng(0), m.layout.n)
        assert energy(m, s) == pytest.approx(edgewise_energy(m, s), rel=1e-12)

    def test_bit_flip_delta_matches_flow_input(self):
        # E(flip_j y) - E(y) = -2 alpha_j z_j, the quantity the transition
        # rates exponentiate.
        rng = np.random.default_rng(42)
        for trial in range(20):
            m = make_machine(6, seed=trial)
            y = random_bits(rng, 6)
            alpha, z, _ = flow_row(m, y)
            for j in range(6):
                flipped = y.copy()
                flipped[j] = 1 - flipped[j]
                delta_e = energy(m, flipped) - energy(m, y)
                assert delta_e == pytest.approx(
                    -2.0 * alpha[j] * z[j], rel=1e-11, abs=1e-11
                )


@st.composite
def machines_and_rows(draw):
    """A random machine of 1-4 layers (any intra flags, the fully-observed
    layout included) and 1-4 real-valued states, as (machine, (B, n) rows)."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    intra = draw(st.lists(st.booleans(), min_size=len(sizes) - 1, max_size=len(sizes) - 1))
    seed = draw(st.integers(0, 10_000))
    m = make_layered_machine(sizes, intra, seed=seed)
    count = draw(st.integers(1, 4))
    return m, np.random.default_rng(seed + 1).normal(0.0, 1.0, (count, m.layout.n))


class TestLocalField:
    """`BoltzmannMachine.local_field` against the dense oracle y @ W + b."""

    @settings(max_examples=80, deadline=None)
    @given(case=machines_and_rows())
    def test_every_layer_and_neighbour_choice_matches_dense(self, case):
        # Every non-empty set of given layers, once as None entries and once
        # as a list that ends at the last given layer; an absent layer adds
        # nothing, as if its states were zero.
        m, y = case
        w, sl = dense_weights(m), m.layout.slices
        for mask in range(1, 2 ** len(sl)):
            present = [k for k in range(len(sl)) if mask >> k & 1]
            rows = [y[:, s] if k in present else None for k, s in enumerate(sl)]
            kept = y.copy()
            for k in set(range(len(sl))) - set(present):
                kept[:, sl[k]] = 0.0
            for layer in range(len(sl)):
                expected = (kept @ w + m.biases)[:, sl[layer]]
                for listed in (rows, rows[: present[-1] + 1]):
                    got = m.local_field(layer, listed)
                    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(case=machines_and_rows())
    def test_flow_input_is_the_dense_product(self, case):
        m, y = case
        _, z, _, hits = _flow_arrays(m, y, np.inf)
        assert hits == 0
        np.testing.assert_allclose(z, y @ dense_weights(m) + m.biases, rtol=1e-12, atol=1e-12)

    def test_rows_of_unread_layers_may_be_left_out(self):
        m = make_layered_machine((5, 4, 3), (True, True), seed=2)
        v, h = np.random.default_rng(0).random((3, 5)), np.ones((3, 4))
        np.testing.assert_array_equal(m.local_field(0, [v, h]),
                                      m.local_field(0, [v, h, np.ones((3, 3))]))
        np.testing.assert_array_equal(m.local_field(1, [v]), m.local_field(1, [v, None, None]))

    @pytest.mark.parametrize("rows", [[], [None], [None, None, None]])
    def test_a_call_with_no_row_given_is_rejected(self, rows):
        m = make_layered_machine((5, 4), (True,), seed=2)
        with pytest.raises(ValueError, match="at least one row"):
            m.local_field(1, rows)


class TestNewMachine:
    def test_fully_observed_structure(self):
        m = new_machine(LayerSpec((4,)), seed=0)
        assert m.layout.n == 4
        assert m.weights.shape == (16,)
        assert (dense_weights(m) != 0).sum() == 12
        assert validate(m) == []

    def test_rbm_structure(self):
        m = new_machine(LayerSpec((784, 196), (False,)), seed=1)
        assert m.weights.shape == (784 * 196,)
        w = dense_weights(m)
        assert w[:784, :784].sum() == 0.0
        assert (np.abs(w[:784, 784:]) > 0).mean() > 0.99

    def test_biases_start_at_zero(self):
        m = new_machine(LayerSpec((10, 5), (True,)), seed=2)
        assert not m.biases.any()

    def test_init_scale_bounds_weights(self):
        m = new_machine(LayerSpec((30,)), seed=3, init_scale=0.05)
        assert np.abs(m.weights).max() <= 0.05

    def test_rejects_bad_scale(self):
        # TrainConfig's rule for init_scale: positive and finite.
        for scale in (0.0, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                new_machine(LayerSpec((4,)), seed=0, init_scale=scale)

    def test_random_layouts_pass_validate(self):
        rng = np.random.default_rng(99)
        for trial in range(100):
            depth = int(rng.integers(1, 4))
            sizes = tuple(int(rng.integers(1, 9)) for _ in range(depth))
            intra = tuple(bool(rng.integers(0, 2)) for _ in range(depth - 1))
            m = new_machine(LayerSpec(sizes, intra), seed=trial, init_scale=0.1)
            assert validate(m) == []


class TestValidate:
    def test_detects_asymmetry(self):
        m = make_machine(3, seed=0)
        m.block(0, 0)[0, 1] = 1.0
        m.block(0, 0)[1, 0] = 0.0
        kinds = [v[0] for v in validate(m)]
        assert ("asymmetric", 0, 1) in validate(m)
        assert "asymmetric" in kinds

    def test_detects_nonzero_diagonal(self):
        m = make_machine(4, seed=0)
        m.block(0, 0)[2, 2] = 0.1
        assert ("diagonal", 2) in validate(m)

    def test_detects_mask_breach(self):
        # An edge outside the stored blocks has no place in the vector: a
        # vector with one entry too many cannot make a machine, and the
        # dense view of a valid machine is zero off the blocks.
        m = make_layered_machine((3, 2), (False,), seed=0)
        assert (dense_weights(m)[~stored_edges(m.layout)] == 0.0).all()
        with pytest.raises(ValueError, match=r"shapes \(7,\) and \(5,\); .* \(\(6,\), \(5,\)\)"):
            BoltzmannMachine(m.layout, np.append(m.weights, 0.5), m.biases)

    def test_detects_extra_mask_edge(self):
        # Intra edges of a layer without intra connectivity cannot be stored;
        # a vector sized for them is rejected, and validate reports
        # non-finite entries.
        m = make_layered_machine((3, 2), (False,), seed=0)
        with_intra = LayerSpec((3, 2), (True,)).edges
        with pytest.raises(ValueError, match="the layout needs"):
            BoltzmannMachine(m.layout, np.zeros(with_intra), m.biases)
        m.block(0, 1)[1, 0] = np.nan
        m.biases[4] = np.inf
        assert validate(m) == [("nonfinite_weight", 1, 3), ("nonfinite_bias", 4)]
