"""Training loops: the variational EM driver and CD/PCD baselines.

The main loop alternates, once per epoch, a full-dataset inference pass
(hidden states sampled with the previous epoch's parameters, top-down
input zeroed) with minibatched descent on the fully-observed flow
objective over the concatenated (observed, hidden) vectors.  All layers'
weights update simultaneously; there is no layer-wise pre-training.

The whole training state is a `checkpoint.Checkpoint`: layout, parameters,
Adam moments, `TrainConfig` and the number of epochs done.  A new run is
`init_state`, the epoch-0 checkpoint; a resumed run is a loaded one.  The
trainers take the data as the (N, pixels) bit matrix of `data.binarize`
and the `Checkpoint` they advance in place, hand it with each epoch's
`EpochLog` to a callback and write no files.  `EpochLog`'s fields are the
columns of a run's epochs.csv.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import metrics, mpf, optim
from .checkpoint import Checkpoint
from .model import BoltzmannMachine, LayerSpec, new_machine
from .optim import AdamState, TrainConfig
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

    @classmethod
    def csv_header(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))

    def csv_row(self) -> tuple:
        return dataclasses.astuple(self)


def _data_rows(data) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(data, dtype=np.uint8))
    if rows.shape[0] == 0:
        raise ValueError("empty training data")
    return rows


def init_state(layout: LayerSpec, cfg: TrainConfig) -> Checkpoint:
    """The epoch-0 checkpoint of a new run: fresh machine and optimizer state."""
    m = new_machine(layout, stream(cfg.seed, TAG_INIT).integers(2**63), cfg.init_scale)
    return Checkpoint(layout, m.weights, m.biases, optim.init_adam(m), cfg, 0)


def _train(data, state: Checkpoint, epoch_callback, run_epoch) -> list[EpochLog]:
    """Epoch loop shared by both trainers: from `state.epoch` to
    `state.config.epochs`, advancing `state` in place.

    `run_epoch(m, st, x_rows, epoch)` applies one epoch's updates and
    returns the epoch's mean objective and the rows passed on to
    `epoch_callback(state, pairs, log)` (the E-step's (observed, hidden)
    pairs for VPF), which sees `state.epoch == log.epoch + 1`.  An epoch
    that leaves the objective or a parameter non-finite raises
    `DivergenceError` before the callback sees it.
    """
    x_rows = _data_rows(data)
    if x_rows.shape[1] != state.layout.sizes[0]:
        raise ValueError(
            f"data width {x_rows.shape[1]} does not match observed layer {state.layout.sizes[0]}"
        )
    m = state.machine()
    logs: list[EpochLog] = []
    for epoch in range(state.epoch, state.config.epochs):
        t0 = time.perf_counter()
        objective, pairs = run_epoch(m, state.adam, x_rows, epoch)
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
            epoch_callback(state, pairs, log)
    return logs


def _descend(m: BoltzmannMachine, st: AdamState, cfg: TrainConfig, epoch: int, count: int,
             batch_gradient) -> float:
    """One Adam step per shuffled minibatch; returns the mean objective term.

    `batch_gradient(index, rows)` gives the gradient and objective term of
    minibatch `index`, whose row indices are `rows`.
    """
    perm = stream(cfg.seed, TAG_SHUFFLE, epoch).permutation(count)
    total, batches = 0.0, 0
    for bi, start in enumerate(range(0, count, cfg.minibatch)):
        g, value = batch_gradient(bi, perm[start : start + cfg.minibatch])
        optim.step(m, g, st, cfg)
        total += value
        batches += 1
    return total / batches


def train_vpf(data, state: Checkpoint, threads: int = 1, epoch_callback=None) -> list[EpochLog]:
    """Advance `state` to `state.config.epochs`; returns the per-epoch logs.

    Epochs are pure functions of (seed, epoch, parameters), so advancing a
    loaded checkpoint is bit-identical to an uninterrupted run.
    """
    layout, cfg = state.layout, state.config
    if cfg.method != "vpf":
        raise ValueError(f"train_vpf runs method vpf, got {cfg.method}")

    def run_epoch(m, st, x_rows, epoch):
        pairs = x_rows  # a fully-observed layout has nothing to infer
        if len(layout.sizes) > 1:
            streams = row_streams(cfg.seed, TAG_ESTEP, epoch, count=len(x_rows))
            layers = e_step_batch(m, x_rows, streams, cfg.intra_sweeps, threads)
            pairs = np.concatenate(layers, axis=1)
        objective = _descend(
            m, st, cfg, epoch, len(pairs),
            lambda _bi, rows: mpf.gradient_and_objective(m, pairs[rows], cfg.clamp_z),
        )
        return objective, pairs

    return _train(data, state, epoch_callback, run_epoch)


def require_rbm(layout: LayerSpec) -> None:
    """Reject a layout that the CD/PCD baselines cannot train."""
    if len(layout.sizes) != 2 or layout.intra_layer[0]:
        raise ValueError(
            "contrastive-divergence baselines support plain one-hidden-layer "
            f"machines only, got sizes={layout.sizes} intra={layout.intra_layer}"
        )


def train_cd(data, state: Checkpoint, epoch_callback=None) -> list[EpochLog]:
    """CD-k / PCD-k baseline (`state.config`'s `method` and `k`); same
    optimizer, minibatching and epoch loop as `train_vpf`.

    The logged objective_value is the mean visible reconstruction
    cross-entropy of the first negative-chain step (the flow objective does
    not apply to these trainers).  The epoch callback receives None in
    place of the (observed, hidden) pairs.
    """
    layout, cfg = state.layout, state.config
    if cfg.method not in ("cd", "pcd"):
        raise ValueError(f"train_cd runs method cd or pcd, got {cfg.method}")
    require_rbm(layout)
    persistent = cfg.method == "pcd"
    sl0, sl1 = layout.slices()
    n_hid = layout.sizes[1]
    chains = None
    if persistent:
        chains = (stream(cfg.seed, TAG_CHAIN).random(cfg.minibatch * n_hid) < 0.5
                  ).astype(np.float64).reshape(cfg.minibatch, n_hid)

    def run_epoch(m, st, x_rows, epoch):
        def batch_gradient(bi, rows):
            rng = stream(cfg.seed, TAG_CD, epoch, bi)
            v0 = x_rows[rows].astype(np.float64)
            w_block = m.block(0, 1)
            vb, hb = m.biases[sl0], m.biases[sl1]
            ph0 = expit(v0 @ w_block + hb)
            if persistent:
                h = chains[: v0.shape[0]].copy()
            else:
                h = (rng.random(ph0.shape) < ph0).astype(np.float64)
            first_xent = None
            for _ in range(cfg.k):
                pv = expit(h @ w_block.T + vb)
                if first_xent is None:
                    eps = 1e-12
                    first_xent = float(-np.mean(np.sum(
                        v0 * np.log(pv + eps) + (1.0 - v0) * np.log(1.0 - pv + eps), axis=1)))
                v = (rng.random(pv.shape) < pv).astype(np.float64)
                ph = expit(v @ w_block + hb)
                h = (rng.random(ph.shape) < ph).astype(np.float64)
            if persistent:
                chains[: v0.shape[0]] = h
            b = v0.shape[0]
            g_block = (v.T @ ph - v0.T @ ph0) / b  # descent direction
            gw = np.zeros_like(m.weights)
            m.block(0, 1, gw)[...] = g_block
            gb = np.zeros_like(m.biases)
            gb[sl0] = (v - v0).mean(axis=0)
            gb[sl1] = (ph - ph0).mean(axis=0)
            return mpf.Gradient(gw, gb), first_xent

        return _descend(m, st, cfg, epoch, len(x_rows), batch_gradient), None

    return _train(data, state, epoch_callback, run_epoch)
