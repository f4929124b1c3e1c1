"""Probability-flow objective for fully-observed machines.

For a data point y, each vertex j carries

    alpha_j = 1/2 - y_j
    z_j     = sum_{i != j} w_ij y_i + b_j
    delta_j = exp(alpha_j z_j)

delta_j is the rate at which a continuous-time chain (one-hop connectivity,
detailed balance against the Boltzmann law) flips bit j out of y.  The
objective is the per-datapoint mean of sum_j delta_j; its exact gradients
are

    dK/db_i  = alpha_i delta_i
    dK/dw_ij = y_j alpha_i delta_i + y_i alpha_j delta_j

and the learner descends, i.e. applies the negative of these.
`gradient_and_objective` computes both from one batched evaluation of
(alpha, z, delta).  The epsilon prefactor of the underlying KL divergence
is absorbed into the learning rate; `brute_force_flow` recovers it exactly
on enumerable machines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import BoltzmannMachine, active_blocks, dense_weights, edge_count, from_above

Z_CLAMP_DEFAULT = 30.0


@dataclass
class Gradient:
    """Objective gradient, laid out like the machine's weights and biases.

    `clamp_hits` counts the pre-activation entries that the overflow guard
    clamped while computing it.
    """

    d_weights: np.ndarray
    d_biases: np.ndarray
    clamp_hits: int = 0


def _as_batch(m: BoltzmannMachine, data) -> np.ndarray:
    batch = np.asarray(data, dtype=np.float64)
    if batch.ndim == 1:
        batch = batch[None, :]
    if batch.ndim != 2 or batch.shape[1] != m.n:
        raise ValueError(f"data has shape {batch.shape}, expected (*, {m.n})")
    if batch.shape[0] == 0:
        raise ValueError("empty data")
    return batch


def _weighted_input(m: BoltzmannMachine, batch: np.ndarray) -> np.ndarray:
    """batch @ W + b over the stored blocks (zero diag covers i != j)."""
    sl = m.layout.slices()
    z = np.broadcast_to(m.biases, batch.shape).copy()
    for a, b in active_blocks(m.layout):
        w = m.block(a, b)
        z[:, sl[b]] += batch[:, sl[a]] @ w
        if a != b:
            z[:, sl[a]] += from_above(batch[:, sl[b]], w)
    return z


def _flow_arrays(m: BoltzmannMachine, batch: np.ndarray, clamp: float):
    """Batched (alpha, z, delta, clamp hits); z rows clamped to [-clamp, clamp]."""
    z = _weighted_input(m, batch)
    hits = int(np.count_nonzero(np.abs(z) > clamp))
    if hits:
        z = np.clip(z, -clamp, clamp)
    alpha = 0.5 - batch
    delta = np.exp(alpha * z)
    return alpha, z, delta, hits


def gradient_and_objective(
    m: BoltzmannMachine, batch, clamp: float = Z_CLAMP_DEFAULT
) -> tuple[Gradient, float]:
    """Batch-mean analytic gradient over the stored blocks, and the objective:
    the mean over data points of sum_j delta_j (epsilon-free value)."""
    y = _as_batch(m, batch)
    alpha, _, delta, hits = _flow_arrays(m, y, clamp)
    a = alpha * delta  # (B, n)
    b_grad = a.mean(axis=0)
    count = y.shape[0]
    # d/dw_ij = mean_k(y_j alpha_i delta_i + y_i alpha_j delta_j), one
    # stored block at a time.
    sl = m.layout.slices()
    w_grad = np.empty(edge_count(m.layout))
    for la, lb in active_blocks(m.layout):
        sa, sb, out = sl[la], sl[lb], m.block(la, lb, w_grad)
        if la == lb:
            half = a[:, sa].T @ y[:, sa] / count
            np.add(half, half.T, out=out)
            np.fill_diagonal(out, 0.0)
        else:
            out[...] = (a[:, sa].T @ y[:, sb] + (a[:, sb].T @ y[:, sa]).T) / count
    return Gradient(w_grad, b_grad, hits), float(delta.sum(axis=1).mean())


# --- exact flow on enumerable state spaces -------------------------------


def enumerate_states(n: int) -> np.ndarray:
    """All 2^n binary states; state index i has bit j = (i >> j) & 1."""
    idx = np.arange(2**n, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n)) & 1).astype(np.float64)


def state_index(bits: np.ndarray) -> np.ndarray:
    """Inverse of `enumerate_states` row order (little-endian bits)."""
    bits = np.atleast_2d(np.asarray(bits, dtype=np.int64))
    return bits @ (1 << np.arange(bits.shape[1], dtype=np.int64))


def all_state_energies(m: BoltzmannMachine) -> np.ndarray:
    states = enumerate_states(m.n)
    w = dense_weights(m)
    return -0.5 * np.einsum("si,ij,sj->s", states, w, states) - states @ m.biases


def rate_matrix(m: BoltzmannMachine) -> np.ndarray:
    """Dense one-hop transition-rate matrix over all 2^n states.

    Entry [x, y] is the rate from state y to its one-bit-flip neighbor x;
    diagonals make every column sum to zero.
    """
    num = 2**m.n
    energies = all_state_energies(m)
    gamma = np.zeros((num, num))
    idx = np.arange(num)
    for j in range(m.n):
        flipped = idx ^ (1 << j)
        gamma[flipped, idx] = np.exp(0.5 * (energies[idx] - energies[flipped]))
    np.fill_diagonal(gamma, 0.0)
    np.fill_diagonal(gamma, -gamma.sum(axis=0))
    return gamma


def empirical_distribution(m: BoltzmannMachine, data) -> np.ndarray:
    batch = _as_batch(m, data)
    p0 = np.zeros(2**m.n)
    np.add.at(p0, state_index(batch), 1.0)
    return p0 / batch.shape[0]


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    support = p > 0
    if np.any(q[support] <= 0):
        raise ValueError("KL divergence undefined: q vanishes on the support of p")
    return float(np.sum(p[support] * (np.log(p[support]) - np.log(q[support]))))


def brute_force_flow(m: BoltzmannMachine, data, eps: float) -> float:
    """Exact KL(p0 || p_eps) by dense matrix exponential of the rate matrix.

    Tractable only for small machines; the epsilon-free objective of
    `gradient_and_objective` times eps converges to this as eps -> 0 when no data point is a one-hop
    neighbor of another.
    """
    if m.n > 20:
        raise ValueError(f"brute force enumeration capped at 20 vertices, got {m.n}")
    if eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    p0 = empirical_distribution(m, data)
    if eps == 0:
        return 0.0
    p_eps = scipy.linalg.expm(rate_matrix(m) * eps) @ p0
    return kl_divergence(p0, p_eps)
