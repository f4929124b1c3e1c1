import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_oracles import kl_decomposition_check, random_joint_tables


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
