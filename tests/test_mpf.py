import math

import numpy as np
import pytest

from conftest import (
    dense,
    flow_row,
    make_machine,
    make_layered_machine,
    neighbor_disjoint_data,
    random_bits,
    stored_edges,
    zero_machine,
)
from exact_oracles import (
    brute_force_flow,
    dense_weights,
    energy,
    enumerate_states,
    observed_empirical,
    rate_matrix,
    state_index,
)
from flowbm.model import BoltzmannMachine, LayerSpec, validate
from flowbm.mpf import gradient_and_objective


def two_vertex_machine(w12=1.0, b=(0.0, 0.0)):
    layout = LayerSpec((2,))
    return BoltzmannMachine.from_dense(
        layout, np.array([[0.0, w12], [w12, 0.0]]), np.array(b, dtype=float)
    )


def objective(m, data) -> float:
    """The objective value that `gradient_and_objective` returns."""
    return gradient_and_objective(m, data)[1]


def finite_difference_gradient(m, batch, h=1e-5):
    """Central differences of the objective on the dense matrix; entries
    i<j are tied to their transpose, matching the edge parameterization."""
    w, edges = dense_weights(m), stored_edges(m.layout)
    dw = np.zeros_like(w)
    db = np.zeros_like(m.biases)

    def at(w_new):
        return objective(BoltzmannMachine.from_dense(m.layout, w_new, m.biases), batch)

    for i in range(m.layout.n):
        for j in range(i + 1, m.layout.n):
            if not edges[i, j]:
                continue
            saved = w[i, j]
            w[i, j] = w[j, i] = saved + h
            up = at(w)
            w[i, j] = w[j, i] = saved - h
            down = at(w)
            w[i, j] = w[j, i] = saved
            dw[i, j] = dw[j, i] = (up - down) / (2 * h)
    for i in range(m.layout.n):
        saved = m.biases[i]
        m.biases[i] = saved + h
        up = objective(m, batch)
        m.biases[i] = saved - h
        down = objective(m, batch)
        m.biases[i] = saved
        db[i] = (up - down) / (2 * h)
    return dw, db


class TestFlowTerms:
    def test_zero_machine_unit_rates(self):
        m = zero_machine(LayerSpec((3,)))
        for y in ([0, 0, 0], [1, 0, 1], [1, 1, 1]):
            _, _, delta = flow_row(m, y)
            assert np.array_equal(delta, np.ones(3))

    def test_hand_example_one_zero(self):
        # alpha = (1/2 - y); z_j = sum_i w_ij y_i + b_j; delta = exp(alpha z).
        m = two_vertex_machine(w12=1.0)
        alpha, z, delta = flow_row(m, [1, 0])
        assert np.array_equal(alpha, [-0.5, 0.5])
        assert np.array_equal(z, [0.0, 1.0])
        np.testing.assert_allclose(delta, [1.0, 1.6487212707001282], rtol=1e-14)

    def test_hand_example_both_on(self):
        m = two_vertex_machine(w12=1.0)
        _, _, delta = flow_row(m, [1, 1])
        np.testing.assert_allclose(
            delta, [0.6065306597126334, 0.6065306597126334], rtol=1e-14
        )

    def test_invariants_on_random_machines(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            m = make_machine(6, seed=trial)
            y = random_bits(rng, 6)
            alpha, z, delta = flow_row(m, y)
            assert np.array_equal(alpha, 0.5 - y)
            np.testing.assert_array_equal(delta, np.exp(alpha * z))
            assert (delta > 0).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gradient_and_objective(make_machine(4, seed=0), np.zeros(3))

    def test_clamp_guard_counts_events(self):
        m = two_vertex_machine(w12=100.0)
        _, z, delta = flow_row(m, [1, 0])
        assert z[1] == 30.0
        assert np.isfinite(delta).all()
        g, _ = gradient_and_objective(m, [[1, 0]])
        assert g.clamp_hits == 1
        # The count belongs to one call: a second call reports 1 again.
        assert gradient_and_objective(m, [[1, 0]])[0].clamp_hits == 1
        assert gradient_and_objective(two_vertex_machine(w12=1.0), [[1, 0]])[0].clamp_hits == 0


class TestObjective:
    def test_zero_machine_counts_vertices(self):
        m = zero_machine(LayerSpec((7,)))
        data = random_bits(np.random.default_rng(0), (5, 7))
        assert objective(m, data) == pytest.approx(7.0, rel=1e-15)

    def test_two_vertex_value(self):
        m = two_vertex_machine(w12=1.0)
        assert objective(m, [np.array([1, 0])]) == pytest.approx(
            1.0 + math.exp(0.5), rel=1e-14
        )

    def test_duplicates_do_not_change_mean(self):
        m = make_machine(5, seed=3)
        y = random_bits(np.random.default_rng(1), 5)
        assert objective(m, [y, y]) == pytest.approx(objective(m, [y]), rel=1e-15)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            objective(make_machine(3, seed=0), np.zeros((0, 3)))

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            m = make_machine(6, seed=trial)
            data = random_bits(rng, (8, 6))
            perm = rng.permutation(6)
            m_perm = BoltzmannMachine.from_dense(
                m.layout, dense_weights(m)[np.ix_(perm, perm)], m.biases[perm]
            )
            assert objective(m_perm, data[:, perm]) == pytest.approx(
                objective(m, data), rel=1e-12
            )


class TestGradient:
    def test_zero_machine_all_ones(self):
        m = zero_machine(LayerSpec((4,)))
        g, _ = gradient_and_objective(m, np.ones((1, 4)))
        np.testing.assert_allclose(g.d_biases, -0.5 * np.ones(4), rtol=1e-15)

    def test_batch_gradient_is_mean_of_singles(self):
        m = make_machine(5, seed=9)
        batch = random_bits(np.random.default_rng(2), (6, 5))
        g_batch, _ = gradient_and_objective(m, batch)
        singles = [gradient_and_objective(m, row[None, :])[0] for row in batch]
        singles_w = np.mean([g.d_weights for g in singles], axis=0)
        singles_b = np.mean([g.d_biases for g in singles], axis=0)
        np.testing.assert_allclose(g_batch.d_weights, singles_w, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(g_batch.d_biases, singles_b, rtol=1e-12, atol=1e-15)

    def test_structural_invariants(self):
        for seed in range(10):
            m = make_layered_machine((4, 3, 2), (True, False), seed=seed, w_scale=0.4)
            batch = random_bits(np.random.default_rng(seed), (5, m.layout.n))
            g, _ = gradient_and_objective(m, batch)
            # Laid out like the weights, with symmetric zero-diagonal intra
            # blocks: the gradient passes the machine's own check.
            assert g.d_weights.shape == m.weights.shape
            assert validate(BoltzmannMachine(m.layout, g.d_weights, g.d_biases)) == []
            gd = dense(m, g.d_weights)
            assert np.array_equal(gd, gd.T)
            assert not gd[~stored_edges(m.layout)].any()

    def test_matches_finite_differences_small(self):
        # 20 random small machines; step 1e-5, relative error < 1e-6.
        rng = np.random.default_rng(21)
        for trial in range(20):
            m = make_machine(5, seed=trial, w_scale=0.8, b_scale=0.4)
            batch = random_bits(rng, (4, 5))
            g, _ = gradient_and_objective(m, batch)
            fd_w, fd_b = finite_difference_gradient(m, batch)
            np.testing.assert_allclose(dense(m, g.d_weights), fd_w, rtol=1e-6, atol=1e-9)
            np.testing.assert_allclose(g.d_biases, fd_b, rtol=1e-6, atol=1e-9)

    def test_fused_objective_matches(self):
        # The gradient and the objective come from one kernel evaluation;
        # both match the per-row kernel values combined by hand.
        m = make_machine(6, seed=2)
        batch = random_bits(np.random.default_rng(3), (7, 6))
        g, value = gradient_and_objective(m, batch)
        rows = [flow_row(m, y) for y in batch]
        assert value == pytest.approx(np.mean([delta.sum() for _, _, delta in rows]), rel=1e-15)
        a = np.array([alpha * delta for alpha, _, delta in rows])
        np.testing.assert_allclose(g.d_biases, a.mean(axis=0), rtol=1e-15)
        expected_w = (a.T @ batch + batch.T @ a) / len(batch)
        np.fill_diagonal(expected_w, 0.0)
        np.testing.assert_allclose(dense(m, g.d_weights), expected_w, rtol=1e-14, atol=1e-15)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            gradient_and_objective(make_machine(3, seed=0), np.zeros((0, 3)))


class TestRateMatrix:
    def test_transition_rate_identity(self):
        # Gamma from energy differences equals exp(alpha_j z_j) exactly.
        rng = np.random.default_rng(17)
        for trial in range(50):
            m = make_machine(5, seed=trial)
            gamma = rate_matrix(m)
            y = random_bits(rng, 5)
            y_idx = int(state_index(y)[0])
            _, _, delta = flow_row(m, y)
            for j in range(5):
                x_idx = y_idx ^ (1 << j)
                direct = math.exp(
                    0.5 * (energy(m, y) - energy(m, enumerate_states(5)[x_idx]))
                )
                assert gamma[x_idx, y_idx] == pytest.approx(direct, rel=1e-12)
                assert gamma[x_idx, y_idx] == pytest.approx(delta[j], rel=1e-12)

    def test_column_sums_vanish(self):
        m = make_machine(6, seed=1)
        gamma = rate_matrix(m)
        np.testing.assert_allclose(gamma.sum(axis=0), 0.0, atol=1e-12)

    def test_non_neighbors_have_zero_rate(self):
        m = make_machine(4, seed=2)
        gamma = rate_matrix(m)
        for x in range(16):
            for y in range(16):
                if x != y and bin(x ^ y).count("1") != 1:
                    assert gamma[x, y] == 0.0


class TestBruteForceFlow:
    def test_eps_zero(self):
        m = make_machine(5, seed=4)
        data = random_bits(np.random.default_rng(0), (3, 5))
        assert brute_force_flow(m, data, 0.0) == 0.0

    def test_small_eps_matches_objective(self):
        # KL(p0 || p_eps) / eps -> objective when data points have no
        # one-hop neighbors inside the data set.
        rng = np.random.default_rng(8)
        for trial, n in enumerate((6, 8, 10)):
            m = make_machine(n, seed=trial + 30, w_scale=0.6, b_scale=0.3)
            data = neighbor_disjoint_data(rng, n, 4)
            eps = 1e-4
            flow = brute_force_flow(m, data, eps)
            target = objective(m, data)
            assert abs(flow / eps - target) / target < 1e-3

    def test_capability_limit(self):
        with pytest.raises(ValueError):
            brute_force_flow(make_machine(4, seed=0), np.zeros((1, 4)), eps=-1.0)
        big = zero_machine(LayerSpec((21,)))
        with pytest.raises(ValueError):
            brute_force_flow(big, np.zeros((1, 21)), eps=1e-3)

    def test_empirical_distribution_counts_duplicates(self):
        m = make_machine(3, seed=0)
        data = np.array([[1, 0, 0], [1, 0, 0], [0, 1, 1]])
        p0 = observed_empirical(m, data)
        assert p0[state_index(np.array([1, 0, 0]))[0]] == pytest.approx(2 / 3)
        assert p0.sum() == pytest.approx(1.0)
