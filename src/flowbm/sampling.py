"""Conditional Bernoulli sampling for layered machines, one row per stream.

Covers the bottom-up inference pass that zeroes top-down input (the
E-step), asynchronous intra-layer Gibbs sweeps, and top-down confabulation
generation.  `metrics.reconstruct_batch` reuses the same layer-update
kernel.

Every random draw comes from a stream: a numpy PCG64 `Generator` seeded
from `SeedSequence(seed, spawn_key=key)`, whose key is the stream's tag
and then its path, each entry as two uint32 words.  `stream(seed, tag,
*path)` makes one, and `row_streams` makes a batch sampler's list of
them, one per row with the row index last in the path.  Identical (seed,
tag, path, call sequence) gives identical draws on any platform, so
batches can be sharded across threads without changing results.  A
generator is built eagerly (seeding costs tens of microseconds), so
callers build only the streams they draw from.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import expit

from .model import BoltzmannMachine, from_above

# Rows per shard for every batch sampler (E-step, generation and
# reconstruction).  `map_shards` alone sets shard boundaries, from the row
# count only: a boundary that moved with the thread count would change
# results.
_CHUNK = 512


def stream(seed: int, tag: int, *path: int) -> np.random.Generator:
    """The random stream addressed by (`seed`, `tag`, *`path`), each value
    taken modulo 2**64; the key holds each entry's low word, then its high."""
    key: list[int] = []
    for value in (tag, *path):
        value = int(value) & (2**64 - 1)
        key += [value & 0xFFFFFFFF, value >> 32]
    seq = np.random.SeedSequence(int(seed) & (2**64 - 1), spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))


def row_streams(seed: int, tag: int, *prefix: int, count: int) -> list[np.random.Generator]:
    """One stream per row: row `i` draws from `stream(seed, tag, *prefix, i)`."""
    return [stream(seed, tag, *prefix, i) for i in range(count)]


def _layer_input(
    m: BoltzmannMachine,
    target: int,
    rows: list[np.ndarray],
    zero_above: bool,
) -> np.ndarray:
    """Summed input to `target` from adjacent layers plus bias.

    With `zero_above`, input from the layer above is dropped (the bottom-up
    inference approximation).  Intra-layer terms are never included here;
    `_async_sweep` owns them.
    """
    sl = m.layout.slices()
    total = np.broadcast_to(m.biases[sl[target]], (rows[0].shape[0], m.layout.sizes[target])).copy()
    if target >= 1:
        total += rows[target - 1] @ m.block(target - 1, target)
    if not zero_above and target + 1 < len(sl):
        total += from_above(rows[target + 1], m.block(target, target + 1))
    return total


def _draw(probs: np.ndarray, streams: list[np.random.Generator]) -> np.ndarray:
    """Bernoulli rows as floats: one uniform block per stream against `probs`."""
    u = np.stack([s.random(probs.shape[-1]) for s in streams])
    return (u < probs).astype(np.float64)


def _async_sweep(
    m: BoltzmannMachine,
    layer: int,
    h: np.ndarray,
    below_input: np.ndarray,
    streams: list[np.random.Generator],
) -> None:
    """One in-place sweep of unit-by-unit resampling in ascending order.

    Each unit sees the latest values of its intra-layer neighbors; the
    layer below is folded into `below_input` (weights below + bias).  Each
    stream serves one uniform block for its row.
    """
    u = np.stack([s.random(h.shape[1]) for s in streams])
    w_intra = m.block(layer, layer)  # zero diagonal excludes the unit itself
    for j in range(h.shape[1]):
        p = expit(h @ w_intra[:, j] + below_input[:, j])
        h[:, j] = u[:, j] < p


def _update_hidden(
    m: BoltzmannMachine,
    layer: int,
    rows: list[np.ndarray],
    streams: list[np.random.Generator],
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
    streams: list[np.random.Generator],
    intra_sweeps: int,
) -> list[np.ndarray]:
    """Bottom-up pass for a block of observed rows with per-row streams."""
    rows: list[np.ndarray] = [x_rows.astype(np.float64)]
    for i in range(1, len(m.layout.sizes)):
        rows.append(_update_hidden(m, i, rows, streams, intra_sweeps))
    return [r.astype(np.uint8) for r in rows]


def e_step_batch(
    m: BoltzmannMachine,
    x_rows: np.ndarray,
    streams: list[np.random.Generator],
    intra_sweeps: int = 1,
    threads: int = 1,
) -> list[np.ndarray]:
    """Bottom-up inference pass, one row per observed vector and stream.

    Each hidden layer is Bernoulli-sampled from the layer below with
    top-down input zeroed, then refined by `intra_sweeps` asynchronous
    sweeps when it has intra-layer edges.  The result is independent of
    `threads` (see `map_shards`).
    """
    x_rows = np.atleast_2d(np.asarray(x_rows))
    if x_rows.ndim != 2 or x_rows.shape[1] != m.layout.sizes[0]:
        raise ValueError(
            f"observed rows have shape {x_rows.shape}, expected (*, {m.layout.sizes[0]})"
        )
    if x_rows.shape[0] != len(streams):
        raise ValueError("need one stream per row")
    parts = map_shards(
        lambda sh: _estep_rows(m, x_rows[sh], streams[sh], intra_sweeps), len(streams), threads
    )
    return [np.concatenate(layer) for layer in zip(*parts)]


def _generate_rows(
    m: BoltzmannMachine,
    streams: list[np.random.Generator],
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


def generate_batch(
    m: BoltzmannMachine,
    top_init,
    r: int,
    streams: list[np.random.Generator],
    intra_sweeps: int = 1,
    threads: int = 1,
) -> np.ndarray:
    """Independent confabulations, one per stream; rows of visible probs.

    `top_init` holds the per-unit probabilities of the top layer's initial
    Bernoulli draw.
    """
    if r < 1:
        raise ValueError(f"r must be at least 1, got {r}")
    sizes = m.layout.sizes
    if len(sizes) < 2:
        raise ValueError("generation needs at least one hidden layer")
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
    streams: list[np.random.Generator],
    intra_sweeps: int = 1,
    threads: int = 1,
) -> np.ndarray:
    """Per-unit mean of the top layer's inferred states over a dataset,
    one stream per data row."""
    layers = e_step_batch(m, data, streams, intra_sweeps, threads)
    return layers[-1].astype(np.float64).mean(axis=0)
