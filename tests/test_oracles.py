import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from conftest import make_layered_machine, random_bits
from exact_oracles import (
    all_state_energies,
    bottom_up_conditional,
    enumerate_states,
    exact_hidden_conditional,
    kl_decomposition_check,
    random_joint_tables,
    rbm_log_likelihood,
    state_index,
    upper_bound_check,
)
from flowbm.sampling import e_step_batch, row_streams


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_obs_states=st.integers(1, 64),
    n_hid_states=st.integers(1, 64),
)
def test_kl_decomposition(seed, n_obs_states, n_hid_states):
    # KL(q(h,x)||p(h,x)) = E_x KL(q(h|x)||p(h|x)) + KL(q(x)||p(x)).
    tables = random_joint_tables(np.random.default_rng(seed), n_obs_states, n_hid_states)
    lhs, term1, term2 = kl_decomposition_check(*tables)
    assert abs(lhs - (term1 + term2)) <= 1e-12
    assert min(term1, term2) >= -1e-12  # both are KL divergences


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 3), min_size=2, max_size=3).filter(lambda s: sum(s) <= 8),
    intra_bits=st.integers(0, 3),
    eps=st.sampled_from([1e-3, 0.01, 0.1, 1.0]),
    count=st.integers(1, 6),
)
def test_variational_value_bounds_the_marginal_flow(seed, sizes, intra_bits, eps, count):
    # The joint KL after time eps from q(h|x) p0(x) is at least the KL of
    # its observed marginal: the difference is E_x KL(q(h|x)||p_eps(h|x)).
    # Each value sums at most 2^8 terms, so rounding stays far below 1e-12.
    intra = [bool(intra_bits >> i & 1) for i in range(len(sizes) - 1)]
    m = make_layered_machine(sizes, intra, seed=seed)
    data = random_bits(np.random.default_rng(seed), (count, sizes[0]))
    variational, marginal_flow = upper_bound_check(m, data, eps)
    assert marginal_flow >= -1e-12
    assert variational >= marginal_flow - 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 3), min_size=3, max_size=4).filter(lambda s: sum(s) <= 9),
    eps=st.sampled_from([1e-3, 0.01, 0.1, 1.0]),
    count=st.integers(1, 6),
)
def test_variational_value_bounds_the_marginal_flow_for_the_bottom_up_q(seed, sizes, eps,
                                                                        count):
    # The bound holds for any q, so also for the q that the E-step samples
    # on 2-3 hidden layers without intra edges, where it is not p(h|x).
    m = make_layered_machine(sizes, [False] * (len(sizes) - 1), seed=seed)
    q_cond = bottom_up_conditional(m)
    np.testing.assert_allclose(q_cond.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    data = random_bits(np.random.default_rng(seed), (count, sizes[0]))
    variational, marginal_flow = upper_bound_check(m, data, eps, q_cond)
    assert marginal_flow >= -1e-12
    assert variational >= marginal_flow - 1e-12


def hidden_tv_and_bound(m, q_cond, per_x: int, delta: float):
    """Largest total-variation distance between `e_step_batch`'s h | x
    frequencies (per_x draws for each observed state x) and `q_cond`, and
    the limit it exceeds with probability at most `delta`."""
    n_obs = m.layout.sizes[0]
    x_rows = np.repeat(enumerate_states(n_obs).astype(np.uint8), per_x, axis=0)
    hidden = e_step_batch(m, x_rows, row_streams(17, 0, count=len(x_rows)))[:, n_obs:]
    counts = np.zeros_like(q_cond)
    np.add.at(counts, (state_index(x_rows), state_index(hidden)), 1.0)
    tv = 0.5 * np.abs(counts / per_x - q_cond).sum(axis=1)
    events = 2 ** n_obs * 2 ** q_cond.shape[1]
    return tv.max(), np.sqrt(np.log(2 * events / delta) / (2 * per_x))


def test_e_step_matches_exact_hidden_conditional():
    # With one hidden layer and no intra edges, zeroing top-down input is
    # exact: the E-step draws h from the stationary p(h | x).  N draws per
    # observed state x.  For each x and each of the 2^8 events A over the
    # 8 hidden states, Hoeffding gives P(|freq(A) - p(A)| >= t) <=
    # 2 exp(-2 N t^2); the total-variation distance is the largest such
    # deviation, so a union bound over the 4 * 2^8 (x, A) pairs puts
    # P(any TV >= t) <= delta at t = sqrt(log(2 * 4 * 2^8 / delta) / (2 N)).
    m = make_layered_machine((2, 3), (False,), seed=5)
    tv, bound = hidden_tv_and_bound(m, exact_hidden_conditional(m), 10_000, 1e-9)
    assert tv <= bound


def test_deep_e_step_matches_the_bottom_up_conditional():
    # The same limit on a 2-2-2 machine, whose E-step draws each hidden
    # layer from the one below alone: q(h | x) = bottom_up_conditional,
    # which lies more than twice the limit from the stationary p(h | x).
    m = make_layered_machine((2, 2, 2), (False, False), seed=6)
    q_cond = bottom_up_conditional(m)
    tv, bound = hidden_tv_and_bound(m, q_cond, 10_000, 1e-9)
    assert tv <= bound
    assert 0.5 * np.abs(q_cond - exact_hidden_conditional(m)).sum(axis=1).max() > 2 * bound


def test_rbm_log_likelihood_matches_full_enumeration():
    # Summing the hidden layer out in closed form gives the same log p(v)
    # as a logsumexp over all 2^(5+3) joint states.
    n_obs, n_hid = 5, 3
    m = make_layered_machine((n_obs, n_hid), (False,), seed=8)
    joint = -all_state_energies(m)  # state index = v index + 2^n_obs * h index
    by_v = joint.reshape(2**n_hid, 2**n_obs)
    expected = logsumexp(by_v, axis=0) - logsumexp(joint)
    got = rbm_log_likelihood(m, enumerate_states(n_obs))
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
