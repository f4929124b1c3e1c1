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
(alpha, z, delta), z from `BoltzmannMachine.local_field` given every layer's
row, the kernel that also gives the samplers their conditionals.  The
epsilon prefactor of the underlying KL divergence is absorbed into the
learning rate; the exact flow on enumerable machines (`brute_force_flow`
in tests/exact_oracles.py) recovers it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BoltzmannMachine, active_blocks, edge_count

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


def _flow_arrays(m: BoltzmannMachine, batch: np.ndarray, clamp: float):
    """Batched (alpha, z, delta, clamp hits); z = batch @ W + b, every
    layer's whole `local_field`, with rows clamped to [-clamp, clamp]."""
    rows = [batch[:, s] for s in m.layout.slices()]
    z = np.concatenate([m.local_field(k, rows) for k in range(len(rows))], axis=1)
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
    objective = float(delta.sum(axis=1).mean())
    a = np.multiply(alpha, delta, out=alpha)  # (B, n)
    b_grad = a.mean(axis=0)
    count = y.shape[0]
    # d/dw_ij = mean_k(y_j alpha_i delta_i + y_i alpha_j delta_j), one
    # stored block at a time, built in its place in the flat vector.
    sl = m.layout.slices()
    w_grad = np.empty(edge_count(m.layout))
    for la, lb in active_blocks(m.layout):
        sa, sb, out = sl[la], sl[lb], m.block(la, lb, w_grad)
        if la == lb:
            np.matmul(a[:, sa].T, y[:, sa], out=out)
            out /= count
            out += out.T  # numpy reads the overlapping transpose from a copy
            np.fill_diagonal(out, 0.0)
        else:
            np.matmul(a[:, sa].T, y[:, sb], out=out)
            out += (a[:, sb].T @ y[:, sa]).T
            out /= count
    return Gradient(w_grad, b_grad, hits), objective
