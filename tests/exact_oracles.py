"""Enumeration oracles over small state spaces.

Everything here is exact and exponential in the vertex count: the dense
weight matrix and energy of a state, the one-hop rate matrix and the
exact flow KL(p0 || p_eps) by matrix exponential, joint stationary
tables, the E-step's bottom-up q(h|x), the conditional-KL decomposition
of a joint KL divergence, the variational flow bound over the full
(observed, hidden) space, and the single-synapse timing-plasticity
update.  `flowbm` itself never enumerates states; these are the
references its tests check it against.
"""

import numpy as np
import scipy.linalg
import scipy.special

from flowbm.model import BoltzmannMachine


def dense_weights(m: BoltzmannMachine) -> np.ndarray:
    """Symmetric (n, n) matrix, zero off the stored blocks."""
    sl, w = m.layout.slices, np.zeros((m.layout.n, m.layout.n))
    for a, b in m.layout.blocks:
        w[sl[b], sl[a]] = m.block(a, b).T
        w[sl[a], sl[b]] = m.block(a, b)  # an intra block keeps its own entries
    return w


def energy(m: BoltzmannMachine, s: np.ndarray) -> float:
    """Energy of one state: ``-1/2 s^T W s - b^T s`` (W symmetric, zero diag)."""
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (m.layout.n,):
        raise ValueError(f"state has shape {s.shape}, expected ({m.layout.n},)")
    return float(-0.5 * s @ dense_weights(m) @ s - m.biases @ s)


def enumerate_states(n: int) -> np.ndarray:
    """All 2^n binary states; state index i has bit j = (i >> j) & 1."""
    idx = np.arange(2**n, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n)) & 1).astype(np.float64)


def state_index(bits: np.ndarray) -> np.ndarray:
    """Inverse of `enumerate_states` row order (little-endian bits)."""
    bits = np.atleast_2d(np.asarray(bits, dtype=np.int64))
    return bits @ (1 << np.arange(bits.shape[1], dtype=np.int64))


def all_state_energies(m: BoltzmannMachine) -> np.ndarray:
    states = enumerate_states(m.layout.n)
    w = dense_weights(m)
    return -0.5 * np.einsum("si,ij,sj->s", states, w, states) - states @ m.biases


def rate_matrix(m: BoltzmannMachine) -> np.ndarray:
    """Dense one-hop transition-rate matrix over all 2^n states.

    Entry [x, y] is the rate from state y to its one-bit-flip neighbor x;
    diagonals make every column sum to zero.
    """
    num = 2**m.layout.n
    energies = all_state_energies(m)
    gamma = np.zeros((num, num))
    idx = np.arange(num)
    for j in range(m.layout.n):
        flipped = idx ^ (1 << j)
        gamma[flipped, idx] = np.exp(0.5 * (energies[idx] - energies[flipped]))
    np.fill_diagonal(gamma, 0.0)
    np.fill_diagonal(gamma, -gamma.sum(axis=0))
    return gamma


def observed_empirical(m: BoltzmannMachine, data) -> np.ndarray:
    """Empirical distribution of `data` over the 2^n_obs observed states
    (every vertex of a fully-observed machine), in `state_index` order."""
    n_obs = m.layout.sizes[0]
    rows = np.atleast_2d(np.asarray(data))
    if rows.shape[0] == 0 or rows.shape[1] != n_obs:
        raise ValueError(f"data has shape {rows.shape}, expected (*, {n_obs}), at least one row")
    p0 = np.zeros(2**n_obs)
    np.add.at(p0, state_index(rows), 1.0)
    return p0 / rows.shape[0]


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    support = p > 0
    if np.any(q[support] <= 0):
        raise ValueError("KL divergence undefined: q vanishes on the support of p")
    return float(np.sum(p[support] * (np.log(p[support]) - np.log(q[support]))))


def brute_force_flow(m: BoltzmannMachine, data, eps: float) -> float:
    """Exact KL(p0 || p_eps) by dense matrix exponential of the rate matrix.

    Tractable only for small machines; the epsilon-free objective of
    `mpf.gradient_and_objective` times eps converges to this as eps -> 0
    when no data point is a one-hop neighbor of another.
    """
    if m.layout.n > 20:
        raise ValueError(f"brute force enumeration capped at 20 vertices, got {m.layout.n}")
    if eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    p0 = observed_empirical(m, data)
    if eps == 0:
        return 0.0
    p_eps = scipy.linalg.expm(rate_matrix(m) * eps) @ p0
    return kl_divergence(p0, p_eps)


def stdp_update(y_pre: int, alpha_post: float, delta_post: float) -> float:
    """Local single-synapse update: -y_pre * alpha_post * delta_post.

    The update fires only when the post-synaptic unit transitions while the
    pre-synaptic unit is excited; alpha_post = +-1/2 carries the sign of the
    transition and delta_post its rate before the transition.
    """
    if delta_post <= 0:
        raise ValueError(f"delta_post must be positive, got {delta_post}")
    return -float(y_pre) * float(alpha_post) * float(delta_post)


NORM_TOL = 1e-12


def _check_normalized(arr: np.ndarray, axis=None, what: str = "table") -> None:
    sums = arr.sum(axis=axis)
    if np.any(arr < 0) or not np.allclose(sums, 1.0, atol=NORM_TOL, rtol=0):
        raise ValueError(f"{what} is not a normalized probability table")


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    nz = x > 0
    out[nz] = x[nz] * np.log(y[nz])
    return out


def kl_decomposition_check(q_cond: np.ndarray, p_joint: np.ndarray, p0: np.ndarray):
    """Both sides of KL(q(h,x)||p(h,x)) = E_x KL(q(h|x)||p(h|x)) + KL(q(x)||p(x)).

    `q_cond` has one row per observed state (rows normalized), `p_joint` is
    the joint table with the same (observed, hidden) axes, `p0` the observed
    marginal defining q(h,x) = q(h|x) p0(x).  Returns (lhs, term1, term2).
    """
    q_cond = np.asarray(q_cond, dtype=np.float64)
    p_joint = np.asarray(p_joint, dtype=np.float64)
    p0 = np.asarray(p0, dtype=np.float64)
    _check_normalized(q_cond, axis=1, what="conditional")
    _check_normalized(p_joint, what="joint")
    _check_normalized(p0, what="marginal")

    q_joint = p0[:, None] * q_cond
    lhs = float(np.sum(_xlogy(q_joint, q_joint) - _xlogy(q_joint, p_joint)))

    p_x = p_joint.sum(axis=1)
    p_cond = p_joint / p_x[:, None]
    inner = np.sum(_xlogy(q_cond, q_cond) - _xlogy(q_cond, p_cond), axis=1)
    term1 = float(np.sum(p0 * inner))
    term2 = float(np.sum(_xlogy(p0, p0) - _xlogy(p0, p_x)))
    return lhs, term1, term2


def stationary_table(m: BoltzmannMachine) -> np.ndarray:
    """Exact Boltzmann law as a (2^n_obs, 2^n_hid) table.

    Observed vertices are the low-order state bits, so joint state index =
    x_index + (h_index << n_obs).
    """
    n_obs = m.layout.sizes[0]
    n_hid = m.layout.n - n_obs
    p = np.exp(-all_state_energies(m))
    p /= p.sum()
    return p.reshape(2**n_hid, 2**n_obs).T


def exact_hidden_conditional(m: BoltzmannMachine) -> np.ndarray:
    """Stationary p(h | x) for every observed state; rows sum to 1."""
    table = stationary_table(m)
    return table / table.sum(axis=1, keepdims=True)


def bottom_up_conditional(m: BoltzmannMachine) -> np.ndarray:
    """The E-step's q(h | x) for a layout without intra edges, with the axes
    of `exact_hidden_conditional`: each hidden layer is a product of
    sigmoids of the layer below, top-down input zeroed."""
    if any(m.layout.intra_layer):
        raise ValueError("bottom-up q is a product of sigmoids only without intra edges")
    n_obs = m.layout.sizes[0]
    x, h = enumerate_states(n_obs), enumerate_states(m.layout.n - n_obs)
    shape = (len(x), len(h))
    s = np.concatenate([np.broadcast_to(x[:, None], shape + (n_obs,)),
                        np.broadcast_to(h[None, :], shape + (m.layout.n - n_obs,))], axis=2)
    sl, q = m.layout.slices, np.ones(shape)
    for k in range(1, len(sl)):
        on = scipy.special.expit(s[..., sl[k - 1]] @ m.block(k - 1, k) + m.biases[sl[k]])
        q *= np.where(s[..., sl[k]] == 1, on, 1.0 - on).prod(axis=2)
    return q


def upper_bound_check(m: BoltzmannMachine, data, eps: float, q_cond=None):
    """(variational objective, marginal flow) for q = `q_cond`, by default
    the stationary p(h|x).

    The joint chain starts at q(h|x) p0(x); the variational value is the
    joint KL after time eps and can never drop below the observed-marginal
    KL, whatever q is.  Exponential in m.layout.n; keep machines small.
    """
    if m.layout.n > 12:
        raise ValueError(f"joint enumeration capped at 12 vertices, got {m.layout.n}")
    n_obs = m.layout.sizes[0]
    n_hid = m.layout.n - n_obs
    p0 = observed_empirical(m, data)
    if q_cond is None:
        q_cond = exact_hidden_conditional(m)
    p_init_table = p0[:, None] * q_cond  # (x, h)
    p_init = p_init_table.T.reshape(-1)  # joint index = x + (h << n_obs)
    p_eps = scipy.linalg.expm(rate_matrix(m) * eps) @ p_init
    variational = kl_divergence(p_init, p_eps)
    marg_eps = p_eps.reshape(2**n_hid, 2**n_obs).sum(axis=0)
    marginal_flow = kl_divergence(p0, marg_eps)
    return variational, marginal_flow


def joint_flow_cross_entropy(m: BoltzmannMachine, data, eps: float) -> np.ndarray:
    """-log p_eps(x, h) for every joint state, plus the q weights.

    Returns (neg_log_p_eps over joint indices, p_init over joint indices);
    the exact cross-entropy term of the variational objective is their dot
    product, and sampling (x, h) from q estimates it.
    """
    n_obs = m.layout.sizes[0]
    p0 = observed_empirical(m, data)
    q_cond = exact_hidden_conditional(m)
    p_init = (p0[:, None] * q_cond).T.reshape(-1)
    p_eps = scipy.linalg.expm(rate_matrix(m) * eps) @ p_init
    return -np.log(p_eps), p_init


def random_joint_tables(rng, n_obs_states: int, n_hid_states: int):
    """Random strictly positive (q_cond, p_joint, p0) tables."""
    q_cond = rng.random((n_obs_states, n_hid_states)) + 0.05
    q_cond /= q_cond.sum(axis=1, keepdims=True)
    p_joint = rng.random((n_obs_states, n_hid_states)) + 0.05
    p_joint /= p_joint.sum()
    p0 = rng.random(n_obs_states) + 0.05
    p0 /= p0.sum()
    return q_cond, p_joint, p0


def rbm_log_likelihood(m: BoltzmannMachine, v) -> np.ndarray:
    """Exact log p(v) of each row of `v` under a one-hidden-layer machine
    without intra edges, the hidden layer summed out: ``log p*(v) = b_v.v +
    sum_j softplus(b_j + v.W_j)``, less a ``log Z`` enumerated over the 2^H
    hidden states.  Exponential in H only, so any visible width works."""
    (vis, hid), w = m.layout.slices, m.block(0, 1)
    h = enumerate_states(m.layout.sizes[1])
    log_z = scipy.special.logsumexp(
        h @ m.biases[hid] + np.logaddexp(0.0, h @ w.T + m.biases[vis]).sum(axis=1))
    v = np.asarray(v, dtype=np.float64)
    return v @ m.biases[vis] + np.logaddexp(0.0, v @ w + m.biases[hid]).sum(axis=1) - log_z
