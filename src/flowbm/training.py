"""Training loops: the variational EM driver and CD/PCD baselines.

The main loop alternates, once per epoch, a full-dataset inference pass
(hidden states sampled with the previous epoch's parameters, top-down
input zeroed) with minibatched descent on the fully-observed flow
objective over the concatenated (observed, hidden) vectors.  All layers'
weights update simultaneously; there is no layer-wise pre-training.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import metrics, mpf, optim
from .model import BoltzmannMachine, LayerSpec, new_machine
from .optim import AdamState, TrainConfig
from .sampling import RngStream, e_step_batch

# Stream namespace tags; part of the determinism contract (a checkpoint at
# epoch e must replay epochs > e bit-identically).
TAG_INIT = 1
TAG_ESTEP = 2
TAG_SHUFFLE = 3
TAG_CD = 4
TAG_CHAIN = 5


@dataclass
class EpochLog:
    """Per-epoch training record."""

    epoch: int
    objective_value: float
    weight_sparsity: float
    squared_weight: float
    wall_time_s: float

    CSV_HEADER = ("epoch", "objective_value", "weight_sparsity", "squared_weight", "wall_time_s")

    def csv_row(self) -> tuple:
        return (self.epoch, self.objective_value, self.weight_sparsity,
                self.squared_weight, self.wall_time_s)


def _data_rows(data) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(getattr(data, "images", data), dtype=np.uint8))
    if rows.shape[0] == 0:
        raise ValueError("empty training data")
    return rows


def estep_streams(seed: int, epoch: int, count: int) -> list[RngStream]:
    """One deterministic stream per data point for the given epoch."""
    root = RngStream(seed, TAG_ESTEP).child(epoch)
    return [root.child(i) for i in range(count)]


def init_state(layout: LayerSpec, cfg: TrainConfig) -> tuple[BoltzmannMachine, AdamState]:
    """Fresh machine and optimizer state exactly as a new run creates them."""
    m = new_machine(
        layout, RngStream(cfg.seed, TAG_INIT).generator.integers(2**63), cfg.init_scale
    )
    return m, optim.init_adam(m)


def _epoch_permutation(seed: int, epoch: int, count: int) -> np.ndarray:
    return RngStream(seed, TAG_SHUFFLE).child(epoch).generator.permutation(count)


def _minibatches(count: int, size: int):
    for start in range(0, count, size):
        yield slice(start, min(start + size, count))


def _train(
    data,
    layout: LayerSpec,
    cfg: TrainConfig,
    machine: BoltzmannMachine | None,
    adam: AdamState | None,
    start_epoch: int,
    epoch_callback,
    run_epoch,
) -> tuple[BoltzmannMachine, list[EpochLog]]:
    """Epoch loop shared by both trainers.

    `run_epoch(m, st, x_rows, epoch)` applies one epoch's updates and
    returns the epoch's mean objective and the rows passed on to
    `epoch_callback` (the E-step's (observed, hidden) pairs for VPF).
    """
    x_rows = _data_rows(data)
    if x_rows.shape[1] != layout.sizes[0]:
        raise ValueError(
            f"data width {x_rows.shape[1]} does not match observed layer {layout.sizes[0]}"
        )
    if machine is None:
        machine, default_adam = init_state(layout, cfg)
        adam = adam if adam is not None else default_adam
    m = machine
    st = adam if adam is not None else optim.init_adam(m)
    logs: list[EpochLog] = []
    for epoch in range(start_epoch, cfg.epochs):
        t0 = time.perf_counter()
        objective, pairs = run_epoch(m, st, x_rows, epoch)
        log = EpochLog(
            epoch=epoch,
            objective_value=objective,
            weight_sparsity=metrics.weight_sparsity(m),
            squared_weight=metrics.squared_weight(m),
            wall_time_s=time.perf_counter() - t0,
        )
        logs.append(log)
        if epoch_callback is not None:
            epoch_callback(epoch, m, st, pairs, log)
    return m, logs


def _descend(m: BoltzmannMachine, st: AdamState, cfg: TrainConfig, epoch: int, count: int,
             batch_gradient) -> float:
    """One Adam step per shuffled minibatch; returns the mean objective term.

    `batch_gradient(index, rows)` gives the gradient and objective term of
    minibatch `index`, whose row indices are `rows`.
    """
    perm = _epoch_permutation(cfg.seed, epoch, count)
    total, batches = 0.0, 0
    for bi, sl in enumerate(_minibatches(count, cfg.minibatch)):
        g, value = batch_gradient(bi, perm[sl])
        optim.step(m, g, st, cfg)
        total += value
        batches += 1
    return total / batches


def train_vpf(
    data,
    layout: LayerSpec,
    cfg: TrainConfig,
    machine: BoltzmannMachine | None = None,
    adam: AdamState | None = None,
    start_epoch: int = 0,
    threads: int = 1,
    epoch_callback=None,
) -> tuple[BoltzmannMachine, list[EpochLog]]:
    """Train a machine of the given layout; returns it with per-epoch logs.

    Pass `machine`/`adam`/`start_epoch` from a checkpoint to resume: epochs
    are pure functions of (seed, epoch, parameters), so a resumed run is
    bit-identical to an uninterrupted one.
    """

    def run_epoch(m, st, x_rows, epoch):
        layers = e_step_batch(m, x_rows, estep_streams(cfg.seed, epoch, len(x_rows)),
                              cfg.intra_sweeps, threads)
        pairs = np.concatenate(layers, axis=1)
        objective = _descend(
            m, st, cfg, epoch, len(pairs),
            lambda _bi, rows: mpf.gradient_and_objective(m, pairs[rows], cfg.clamp_z),
        )
        return objective, pairs

    return _train(data, layout, cfg, machine, adam, start_epoch, epoch_callback, run_epoch)


def _require_rbm(layout: LayerSpec) -> None:
    if len(layout.sizes) != 2 or layout.intra_layer[0]:
        raise ValueError(
            "contrastive-divergence baselines support plain one-hidden-layer "
            f"machines only, got sizes={layout.sizes} intra={layout.intra_layer}"
        )


def train_cd(
    data,
    layout: LayerSpec,
    k: int,
    persistent: bool,
    cfg: TrainConfig,
    machine: BoltzmannMachine | None = None,
    adam: AdamState | None = None,
    start_epoch: int = 0,
    epoch_callback=None,
) -> tuple[BoltzmannMachine, list[EpochLog]]:
    """CD-k / PCD-k baseline with the same optimizer and minibatching.

    The logged objective_value is the mean visible reconstruction
    cross-entropy of the first negative-chain step (the flow objective does
    not apply to these trainers).  The epoch callback receives None in
    place of the (observed, hidden) pairs.
    """
    _require_rbm(layout)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    sl0, sl1 = layout.slices()
    n_hid = layout.sizes[1]
    chains = None
    if persistent:
        chains = (RngStream(cfg.seed, TAG_CHAIN).uniforms(cfg.minibatch * n_hid) < 0.5
                  ).astype(np.float64).reshape(cfg.minibatch, n_hid)

    def run_epoch(m, st, x_rows, epoch):
        def batch_gradient(bi, rows):
            rng = RngStream(cfg.seed, TAG_CD).child(epoch, bi).generator
            v0 = x_rows[rows].astype(np.float64)
            w_block = m.weights[sl0, sl1]
            vb, hb = m.biases[sl0], m.biases[sl1]
            ph0 = expit(v0 @ w_block + hb)
            if persistent:
                h = chains[: v0.shape[0]].copy()
            else:
                h = (rng.random(ph0.shape) < ph0).astype(np.float64)
            first_xent = None
            for _ in range(k):
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
            gw[sl0, sl1] = g_block
            gw[sl1, sl0] = g_block.T
            gb = np.zeros_like(m.biases)
            gb[sl0] = (v - v0).mean(axis=0)
            gb[sl1] = (ph - ph0).mean(axis=0)
            return mpf.Gradient(gw, gb), first_xent

        return _descend(m, st, cfg, epoch, len(x_rows), batch_gradient), None

    return _train(data, layout, cfg, machine, adam, start_epoch, epoch_callback, run_epoch)


def write_epoch_csv(path, logs: list[EpochLog], append: bool = False) -> None:
    import csv

    mode = "a" if append else "w"
    with open(path, mode, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if not append:
            writer.writerow(EpochLog.CSV_HEADER)
        for log in logs:
            writer.writerow(log.csv_row())
