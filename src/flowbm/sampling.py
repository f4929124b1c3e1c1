"""Conditional Bernoulli sampling for layered machines.

Covers the exact one-hidden-layer conditionals, the bottom-up inference
pass that zeroes top-down input for deeper machines, asynchronous
intra-layer Gibbs updates, and top-down confabulation generation.

All samplers are driven by `RngStream`, a named counter-based stream:
identical (seed, stream_id, call sequence) reproduces identical draws on
any platform, so batches can be sharded across threads without changing
results.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import expit

from .model import BoltzmannMachine

# Rows per shard for every batch sampler (E-step, generation and
# reconstruction).  `map_shards` alone sets shard boundaries, from the row
# count only: a boundary that moved with the thread count would change
# results.
_CHUNK = 512


def _to_words(value: int) -> tuple[int, ...]:
    """Split an integer into uint32 words for use in a spawn key."""
    value &= 2**64 - 1
    return (value & 0xFFFFFFFF, value >> 32)


class RngStream:
    """Deterministic random stream addressed by (seed, stream_id).

    Sub-streams derived with `child` are independent of each other and of
    the parent; derivation is pure, so a stream for (data point, epoch) can
    be reconstructed on any worker.
    """

    def __init__(self, seed: int, stream_id: int = 0, _key: tuple[int, ...] | None = None):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._key = _key if _key is not None else _to_words(self.stream_id)
        self._gen: np.random.Generator | None = None

    def child(self, *ids: int) -> "RngStream":
        key = self._key
        for i in ids:
            key = key + _to_words(int(i))
        return RngStream(self.seed, self.stream_id, _key=key)

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            seq = np.random.SeedSequence(self.seed & (2**64 - 1), spawn_key=self._key)
            self._gen = np.random.Generator(np.random.PCG64(seq))
        return self._gen

    def uniforms(self, n: int) -> np.ndarray:
        return self.generator.random(n)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id}, key={self._key})"


def _check_states(m: BoltzmannMachine, states: list[np.ndarray]) -> list[np.ndarray]:
    sizes = m.layout.sizes
    if len(states) != len(sizes):
        raise ValueError(f"expected {len(sizes)} layers, got {len(states)}")
    rows = [np.atleast_2d(np.asarray(s, dtype=np.float64)) for s in states]
    for layer, (row, width) in enumerate(zip(rows, sizes)):
        if row.shape[1] != width:
            raise ValueError(f"layer {layer} has width {row.shape[1]}, expected {width}")
    return rows


def _layer_input(
    m: BoltzmannMachine,
    target: int,
    rows: list[np.ndarray],
    zero_above: bool,
) -> np.ndarray:
    """Summed masked input to `target` from adjacent layers plus bias.

    Intra-layer terms are never included here; `_async_sweep` owns them.
    """
    sl = m.layout.slices()
    total = np.broadcast_to(m.biases[sl[target]], (rows[0].shape[0], m.layout.sizes[target])).copy()
    if target >= 1:
        total += rows[target - 1] @ m.weights[sl[target - 1], sl[target]]
    if not zero_above and target + 1 < len(sl):
        total += rows[target + 1] @ m.weights[sl[target + 1], sl[target]]
    return total


def conditional_prob(
    m: BoltzmannMachine,
    target_layer: int,
    states: list[np.ndarray],
    zero_above: bool,
) -> np.ndarray:
    """sigmoid of the inter-layer input to each unit of `target_layer`.

    With `zero_above`, input from the layer above is dropped (the bottom-up
    inference approximation).  Intra-layer contributions are excluded.
    """
    if target_layer < 1 or target_layer >= len(m.layout.sizes):
        raise ValueError(f"target_layer {target_layer} out of range")
    rows = _check_states(m, states)
    return expit(_layer_input(m, target_layer, rows, zero_above))[0]


def visible_prob(m: BoltzmannMachine, states: list[np.ndarray]) -> np.ndarray:
    """Bernoulli probability of the observed layer given the layer above."""
    if len(m.layout.sizes) < 2:
        raise ValueError("machine has no hidden layer above the observed one")
    rows = _check_states(m, states)
    return expit(_layer_input(m, 0, rows, zero_above=False))[0]


def sample_layer(probs: np.ndarray, rng: RngStream) -> np.ndarray:
    """Independent Bernoulli draws, bit j on with probability probs[j]."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.size and (probs.min() < 0.0 or probs.max() > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    return (rng.uniforms(probs.shape[-1]) < probs).astype(np.uint8)


def _draw(probs: np.ndarray, streams: list[RngStream]) -> np.ndarray:
    """Bernoulli rows as floats: one uniform block per stream against `probs`."""
    u = np.stack([s.uniforms(probs.shape[-1]) for s in streams])
    return (u < probs).astype(np.float64)


def _async_sweep(
    m: BoltzmannMachine,
    layer: int,
    h: np.ndarray,
    below_input: np.ndarray,
    streams: list[RngStream],
) -> None:
    """One in-place sweep of unit-by-unit resampling in ascending order.

    Each unit sees the latest values of its intra-layer neighbors; the
    layer below is folded into `below_input` (weights below + bias).  Each
    stream serves one uniform block for its row.
    """
    u = np.stack([s.uniforms(h.shape[1]) for s in streams])
    sl = m.layout.slices()[layer]
    w_intra = m.weights[sl, sl]  # zero diagonal excludes the unit itself
    for j in range(h.shape[1]):
        p = expit(h @ w_intra[:, j] + below_input[:, j])
        h[:, j] = u[:, j] < p


def _update_hidden(
    m: BoltzmannMachine,
    layer: int,
    rows: list[np.ndarray],
    streams: list[RngStream],
    intra_sweeps: int,
) -> np.ndarray:
    """New bits for hidden `layer` given the layer below, top-down input zeroed.

    The layer is drawn from its conditional, then refined by `intra_sweeps`
    asynchronous sweeps when it has intra-layer edges.
    """
    below = _layer_input(m, layer, rows, zero_above=True)
    h = _draw(expit(below), streams)
    if m.layout.has_intra(layer):
        for _ in range(intra_sweeps):
            _async_sweep(m, layer, h, below, streams)
    return h


def async_gibbs(
    m: BoltzmannMachine,
    layer: int,
    states: list[np.ndarray],
    rng: RngStream,
) -> np.ndarray:
    """Asynchronous intra-layer update of one hidden layer; returns new bits."""
    if not m.layout.has_intra(layer):
        raise ValueError(f"layer {layer} has no intra-layer connections")
    rows = _check_states(m, states)
    h = rows[layer].copy()
    _async_sweep(m, layer, h, _layer_input(m, layer, rows, zero_above=True), [rng])
    return h[0].astype(np.uint8)


def map_shards(run, n_rows: int, threads: int) -> list:
    """`run` applied to consecutive `_CHUNK`-row slices of `n_rows` rows.

    Results come back in row order.  With `threads` > 1 and more than one
    shard, shards run on a thread pool, so `run` must not write anything
    that another shard reads.
    """
    if n_rows < 1:
        raise ValueError("need at least one row")
    shards = [slice(a, min(a + _CHUNK, n_rows)) for a in range(0, n_rows, _CHUNK)]
    if threads > 1 and len(shards) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, shards))
    return [run(sh) for sh in shards]


def _estep_rows(
    m: BoltzmannMachine,
    x_rows: np.ndarray,
    streams: list[RngStream],
    intra_sweeps: int,
) -> list[np.ndarray]:
    """Bottom-up pass for a block of observed rows with per-row streams."""
    rows: list[np.ndarray] = [x_rows.astype(np.float64)]
    for i in range(1, len(m.layout.sizes)):
        rows.append(_update_hidden(m, i, rows, streams, intra_sweeps))
    return [r.astype(np.uint8) for r in rows]


def e_step(
    m: BoltzmannMachine,
    x: np.ndarray,
    rng: RngStream,
    intra_sweeps: int = 1,
) -> list[np.ndarray]:
    """Single bottom-up inference pass for one observed vector.

    Each hidden layer is Bernoulli-sampled from the layer below with
    top-down input zeroed, then refined by `intra_sweeps` asynchronous
    sweeps when it has intra-layer edges.  One sample per data point.
    """
    x = np.asarray(x)
    if x.shape != (m.layout.sizes[0],):
        raise ValueError(f"observed vector has shape {x.shape}, expected ({m.layout.sizes[0]},)")
    layers = _estep_rows(m, x[None, :], [rng], intra_sweeps)
    return [layer[0] for layer in layers]


def e_step_batch(
    m: BoltzmannMachine,
    x_rows: np.ndarray,
    streams: list[RngStream],
    intra_sweeps: int = 1,
    threads: int = 1,
) -> list[np.ndarray]:
    """Vectorized `e_step` over many observed rows with per-row streams.

    The result is independent of `threads` (see `map_shards`).
    """
    x_rows = np.atleast_2d(np.asarray(x_rows))
    if x_rows.shape[0] != len(streams):
        raise ValueError("need one RngStream per row")
    parts = map_shards(
        lambda sh: _estep_rows(m, x_rows[sh], streams[sh], intra_sweeps), len(streams), threads
    )
    return [np.concatenate(layer) for layer in zip(*parts)]


def _generate_rows(
    m: BoltzmannMachine,
    streams: list[RngStream],
    r: int,
    intra_sweeps: int,
    top_probs: np.ndarray,
) -> np.ndarray:
    """Top-down confabulation for a block of samples; returns visible probs.

    Starting from a Bernoulli draw of the top layer from `top_probs`, each
    layer pair (i, i-1) is mixed with r alternating Gibbs rounds,
    asynchronously refreshing layer i when it has intra-layer edges; the
    final state of layer i-1 seeds the next pair.
    """
    sizes = m.layout.sizes
    top = len(sizes) - 1
    rows = [np.zeros((len(streams), w)) for w in sizes]
    rows[top] = _draw(top_probs, streams)
    for i in range(top, 0, -1):
        for _ in range(r):
            rows[i - 1] = _draw(expit(_layer_input(m, i - 1, rows, zero_above=False)), streams)
            rows[i] = _update_hidden(m, i, rows, streams, intra_sweeps)
    return expit(_layer_input(m, 0, rows, zero_above=False))


def generate(
    m: BoltzmannMachine,
    top_init,
    r: int,
    rng: RngStream,
    intra_sweeps: int = 1,
) -> np.ndarray:
    """One confabulation; returns the visible Bernoulli probability vector.

    `top_init` is the string "uniform" or a per-unit prior for the top
    layer's initial Bernoulli draw.
    """
    return generate_batch(m, top_init, r, [rng], intra_sweeps)[0]


def generate_batch(
    m: BoltzmannMachine,
    top_init,
    r: int,
    streams: list[RngStream],
    intra_sweeps: int = 1,
    threads: int = 1,
) -> np.ndarray:
    """Independent confabulations, one per stream; rows of visible probs."""
    if r < 1:
        raise ValueError(f"r must be at least 1, got {r}")
    sizes = m.layout.sizes
    if len(sizes) < 2:
        raise ValueError("generation needs at least one hidden layer")
    if isinstance(top_init, str):
        if top_init != "uniform":
            raise ValueError(f"unknown top_init {top_init!r}")
        top_probs = np.full(sizes[-1], 0.5)
    else:
        top_probs = np.asarray(top_init, dtype=np.float64)
        if top_probs.shape != (sizes[-1],):
            raise ValueError(f"prior has shape {top_probs.shape}, expected ({sizes[-1]},)")
        if top_probs.min() < 0.0 or top_probs.max() > 1.0:
            raise ValueError("prior probabilities must lie in [0, 1]")
    parts = map_shards(
        lambda sh: _generate_rows(m, streams[sh], r, intra_sweeps, top_probs), len(streams), threads
    )
    return np.concatenate(parts)


def mean_activation_prior(
    m: BoltzmannMachine,
    data,
    rng: RngStream,
    intra_sweeps: int = 1,
    threads: int = 1,
) -> np.ndarray:
    """Per-unit mean of the top layer's inferred states over a dataset."""
    x_rows = np.atleast_2d(np.asarray(getattr(data, "images", data)))
    if x_rows.shape[0] == 0:
        raise ValueError("empty dataset")
    streams = [rng.child(i) for i in range(x_rows.shape[0])]
    layers = e_step_batch(m, x_rows, streams, intra_sweeps, threads)
    return layers[-1].astype(np.float64).mean(axis=0)
