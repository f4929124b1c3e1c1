"""Training loops: the variational EM driver and CD/PCD baselines.

The main loop alternates, once per epoch, a full-dataset inference pass
(each hidden layer sampled from the layers below with the previous
epoch's parameters) with minibatched descent on the fully-observed flow
objective over the concatenated (observed, hidden) vectors.  All layers'
weights update simultaneously; there is no layer-wise pre-training.  The
CD/PCD baselines run the same loop, `_train`, which alone shuffles, cuts
minibatches and steps Adam: a trainer supplies only an epoch's rows (the
E-step pairs, or the data rows) and a minibatch's gradient.

The whole training state is a `checkpoint.Checkpoint`: layout, parameters,
Adam moments, `TrainConfig` and the number of epochs done.  A new run is
`init_state`, the epoch-0 checkpoint; a resumed run is a loaded one.  The
trainers take the data as the (N, pixels) bit matrix of `data.binarize`,
checked by `data.bit_rows`, and the `Checkpoint` they advance in place,
hand it with each epoch's `EpochLog` to a callback and write no files.
`EpochLog` is only the record: its fields are the columns of a run's
epochs.csv, which `cli` alone formats and writes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import metrics, mpf, optim
from .checkpoint import Checkpoint
from .data import bit_rows
from .model import LayerSpec, new_machine
from .optim import TrainConfig
from .sampling import e_step_batch, row_streams, stream

# Stream namespace tags; part of the determinism contract (a checkpoint at
# epoch e must replay epochs > e bit-identically).
TAG_INIT = 1
TAG_ESTEP = 2
TAG_SHUFFLE = 3
TAG_CD = 4
TAG_CHAIN = 5


class DivergenceError(ValueError):
    """An epoch ended with a non-finite objective or parameter."""


@dataclass
class EpochLog:
    """Per-epoch training record; one epochs.csv row, a column per field."""

    epoch: int
    objective_value: float
    weight_sparsity: float
    squared_weight: float
    wall_time_s: float


def init_state(layout: LayerSpec, cfg: TrainConfig) -> Checkpoint:
    """The epoch-0 checkpoint of a new run: fresh machine and optimizer state."""
    m = new_machine(layout, stream(cfg.seed, TAG_INIT).integers(2**63), cfg.init_scale)
    return Checkpoint(layout, m.weights, m.biases, optim.init_adam(m), cfg, 0)


def _train(data, state: Checkpoint, epoch_callback, epoch_rows, gradient) -> list[EpochLog]:
    """The one training loop: from `state.epoch` to `state.config.epochs`,
    advancing `state` in place.

    Each epoch takes its rows from `epoch_rows(m, x_rows, epoch)`, shuffles
    them (`TAG_SHUFFLE`) and cuts them into minibatches; `gradient(m,
    epoch, index, batch)` returns minibatch `index`'s `mpf.Gradient` and
    objective term, and one Adam step follows each.  The logged objective
    is the mean term.  `epoch_callback(state, rows, log)` gets the epoch's
    rows and sees `state.epoch == log.epoch + 1`.  An epoch that leaves the
    objective or a parameter non-finite raises `DivergenceError` before
    the callback sees it.
    """
    x_rows = bit_rows(data, state.layout.sizes[0], "training data")
    m, cfg = state.machine(), state.config
    logs: list[EpochLog] = []
    for epoch in range(state.epoch, cfg.epochs):
        t0 = time.perf_counter()
        rows = epoch_rows(m, x_rows, epoch)
        perm = stream(cfg.seed, TAG_SHUFFLE, epoch).permutation(len(rows))
        starts = range(0, len(rows), cfg.minibatch)
        total = 0.0
        for index, start in enumerate(starts):
            g, value = gradient(m, epoch, index, rows[perm[start : start + cfg.minibatch]])
            optim.step(m, g, state.adam, cfg)
            total += value
        objective = total / len(starts)
        if not (math.isfinite(objective) and np.isfinite(m.weights).all()
                and np.isfinite(m.biases).all()):
            raise DivergenceError(
                f"epoch {epoch}: training diverged (objective {objective}, "
                "or a weight or bias is not finite)"
            )
        log = EpochLog(
            epoch=epoch,
            objective_value=objective,
            weight_sparsity=metrics.weight_sparsity(m),
            squared_weight=metrics.squared_weight(m),
            wall_time_s=time.perf_counter() - t0,
        )
        logs.append(log)
        state.epoch = epoch + 1
        if epoch_callback is not None:
            epoch_callback(state, rows, log)
    return logs


def train_vpf(data, state: Checkpoint, threads: int = 1, epoch_callback=None) -> list[EpochLog]:
    """Advance `state` to `state.config.epochs`; returns the per-epoch logs.

    An epoch's rows are the E-step's (observed, hidden) pairs, sampled with
    the epoch's starting parameters (the data rows themselves for a
    fully-observed layout), and its minibatch gradient is the flow
    gradient on them.  Epochs are pure functions of (seed, epoch,
    parameters), so advancing a loaded checkpoint is bit-identical to an
    uninterrupted run.
    """
    layout, cfg = state.layout, state.config
    if cfg.method != "vpf":
        raise ValueError(f"train_vpf runs method vpf, got {cfg.method}")

    def epoch_rows(m, x_rows, epoch):
        if len(layout.sizes) == 1:
            return x_rows  # a fully-observed layout has nothing to infer
        streams = row_streams(cfg.seed, TAG_ESTEP, epoch, count=len(x_rows))
        return e_step_batch(m, x_rows, streams, cfg.intra_sweeps, threads)

    def gradient(m, _epoch, _index, batch):
        return mpf.gradient_and_objective(m, batch, cfg.clamp_z)

    return _train(data, state, epoch_callback, epoch_rows, gradient)


def require_rbm(layout: LayerSpec) -> None:
    """Reject a layout that the CD/PCD baselines cannot train."""
    if len(layout.sizes) != 2 or layout.intra_layer[0]:
        raise ValueError(
            "contrastive-divergence baselines support plain one-hidden-layer "
            f"machines only, got sizes={layout.sizes} intra={layout.intra_layer}"
        )


def train_cd(data, state: Checkpoint, epoch_callback=None) -> list[EpochLog]:
    """CD-k / PCD-k baseline (`state.config`'s `method` and `k`); the same
    loop, shuffling, minibatches and optimizer as `train_vpf`, on the data
    rows, with the contrastive-divergence gradient.

    The logged objective_value is the mean visible reconstruction
    cross-entropy of the first negative-chain step (the flow objective does
    not apply to these trainers).  The epoch callback receives the data
    rows in place of the (observed, hidden) pairs.
    """
    layout, cfg = state.layout, state.config
    if cfg.method not in ("cd", "pcd"):
        raise ValueError(f"train_cd runs method cd or pcd, got {cfg.method}")
    require_rbm(layout)
    persistent = cfg.method == "pcd"
    sl0, sl1 = layout.slices
    n_hid = layout.sizes[1]
    chains = None
    if persistent:
        chains = (stream(cfg.seed, TAG_CHAIN).random(cfg.minibatch * n_hid) < 0.5
                  ).astype(np.float64).reshape(cfg.minibatch, n_hid)

    def gradient(m, epoch, index, batch):
        rng = stream(cfg.seed, TAG_CD, epoch, index)
        v0 = batch.astype(np.float64)
        w_block, vb = m.block(0, 1), m.biases[sl0]
        ph0 = expit(m.local_field(1, [v0]))
        if persistent:
            h = chains[: v0.shape[0]].copy()
        else:
            h = (rng.random(ph0.shape) < ph0).astype(np.float64)
        first_xent = None
        for _ in range(cfg.k):
            # Inline: local_field's row-major copy of w_block.T gives other bits on some shapes.
            pv = expit(h @ w_block.T + vb)
            if first_xent is None:
                eps = 1e-12
                first_xent = float(-np.mean(np.sum(
                    v0 * np.log(pv + eps) + (1.0 - v0) * np.log(1.0 - pv + eps), axis=1)))
            v = (rng.random(pv.shape) < pv).astype(np.float64)
            ph = expit(m.local_field(1, [v]))
            h = (rng.random(ph.shape) < ph).astype(np.float64)
        if persistent:
            chains[: v0.shape[0]] = h
        # Descent direction; require_rbm leaves block (0, 1) as the only
        # stored block, so it fills the whole flat gradient.
        g_w = np.empty_like(m.weights)
        np.divide(v.T @ ph - v0.T @ ph0, v0.shape[0], out=m.block(0, 1, g_w))
        gb = np.zeros_like(m.biases)
        gb[sl0] = (v - v0).mean(axis=0)
        gb[sl1] = (ph - ph0).mean(axis=0)
        return mpf.Gradient(g_w, gb), first_xent

    return _train(data, state, epoch_callback, lambda _m, x_rows, _epoch: x_rows, gradient)
