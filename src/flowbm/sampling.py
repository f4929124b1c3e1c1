"""Conditional Bernoulli sampling for layered machines, one row per stream.

Covers the bottom-up inference pass that zeroes top-down input (the
E-step), asynchronous intra-layer Gibbs sweeps, top-down confabulation
generation and the clamped Gibbs schedule of `metrics.reconstruct_batch`.

Every random draw comes from a stream: a numpy PCG64 `Generator` seeded
from `SeedSequence(seed, spawn_key=key)`, whose key is the stream's tag
and then its path, each entry as two uint32 words.  `stream(seed, tag,
*path)` makes one, and `row_streams` makes a batch sampler's list of
them, one per row with the row index last in the path.  Identical (seed,
tag, path, call sequence) gives identical draws on any platform.  A
generator is built eagerly (seeding costs tens of microseconds), so
callers build only the streams they draw from.

The row contract: a batch sampler takes one stream per row, and
`map_shards` alone checks that, cuts the rows into fixed shards, runs
them (on a thread pool when asked) and stacks the row blocks that come
back, so results do not depend on the thread count.  Each layer update
takes one block of uniforms per row from `uniforms`, the only batched
draw.  The E-step returns the (observed, hidden) pair rows as one uint8
matrix, a column per vertex in layer order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import partial

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


def uniforms(streams: list[np.random.Generator], width: int) -> np.ndarray:
    """A (len(streams), width) matrix: row i is one block of `width`
    uniforms from `streams[i]`."""
    return np.reshape([s.random(width) for s in streams], (len(streams), width))


def _draw(probs: np.ndarray, streams: list[np.random.Generator]) -> np.ndarray:
    """Bernoulli rows as floats: one uniform block per stream against `probs`."""
    return (uniforms(streams, probs.shape[-1]) < probs).astype(np.float64)


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
    u = uniforms(streams, h.shape[1])
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


def map_shards(
    run, streams: list[np.random.Generator], *per_row: np.ndarray, threads: int
) -> np.ndarray:
    """`run(streams[sh], *(a[sh] for a in per_row))` over consecutive
    `_CHUNK`-row shards `sh`, the row blocks it returns stacked in order.

    Every array in `per_row` needs one row per stream.  With `threads` > 1
    and more than one shard, shards run on a thread pool, so `run` must not
    write anything that another shard reads.
    """
    if any(len(a) != len(streams) for a in per_row):
        raise ValueError("need one stream per row")
    if len(streams) < 1:
        raise ValueError("need at least one row")
    shards = [slice(a, a + _CHUNK) for a in range(0, len(streams), _CHUNK)]
    args = [[a[sh] for sh in shards] for a in (streams, *per_row)]
    if threads > 1 and len(shards) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return np.concatenate(list(pool.map(run, *args)))
    return np.concatenate(list(map(run, *args)))


def _estep_rows(
    m: BoltzmannMachine,
    intra_sweeps: int,
    streams: list[np.random.Generator],
    x_rows: np.ndarray,
) -> np.ndarray:
    """Bottom-up pass for a block of observed rows; their uint8 pair rows."""
    rows: list[np.ndarray] = [x_rows.astype(np.float64)]
    for i in range(1, len(m.layout.sizes)):
        rows.append(_update_hidden(m, i, rows, streams, intra_sweeps))
    return np.concatenate([r.astype(np.uint8) for r in rows], axis=1)


def e_step_batch(
    m: BoltzmannMachine,
    x_rows: np.ndarray,
    streams: list[np.random.Generator],
    intra_sweeps: int = 1,
    threads: int = 1,
) -> np.ndarray:
    """Bottom-up inference pass, one row per observed vector and stream.

    Each hidden layer is Bernoulli-sampled from the layer below with
    top-down input zeroed, then refined by `intra_sweeps` asynchronous
    sweeps when it has intra-layer edges.  Returns the (rows, n) uint8
    pair matrix: each row is its observed vector followed by its sampled
    hidden layers, bottom-up, with layer k in columns
    `m.layout.slices()[k]`.  The result is independent of `threads` (see
    `map_shards`).
    """
    x_rows = np.atleast_2d(np.asarray(x_rows))
    if x_rows.ndim != 2 or x_rows.shape[1] != m.layout.sizes[0]:
        raise ValueError(
            f"observed rows have shape {x_rows.shape}, expected (*, {m.layout.sizes[0]})"
        )
    return map_shards(partial(_estep_rows, m, intra_sweeps), streams, x_rows, threads=threads)


def _generate_rows(
    m: BoltzmannMachine,
    r: int,
    intra_sweeps: int,
    top_probs: np.ndarray,
    streams: list[np.random.Generator],
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
    return map_shards(partial(_generate_rows, m, r, intra_sweeps, top_probs), streams,
                      threads=threads)


def reconstruct_rows(
    m: BoltzmannMachine,
    gibbs_steps: int,
    intra_sweeps: int,
    streams: list[np.random.Generator],
    corrupted: np.ndarray,
    known: np.ndarray,
) -> np.ndarray:
    """Clamped alternating Gibbs for a block of images (rows); the uint8
    reconstructions.  `metrics.reconstruct_batch` states the schedule."""
    given = corrupted.astype(np.float64)
    rows = [given] + [np.zeros((given.shape[0], w)) for w in m.layout.sizes[1:]]
    for t in range(gibbs_steps):
        rows[1] = _update_hidden(m, 1, rows, streams, intra_sweeps)
        probs_v = expit(_layer_input(m, 0, rows, zero_above=False))
        sampled = _draw(probs_v, streams)
        if t < gibbs_steps - 1:
            rows[0] = np.where(known, given, sampled)
        else:
            # Final update is the 0.5-thresholded probability; an exact tie
            # (probability 1/2) keeps the sampled bit, so a degenerate
            # zero-weight machine yields fair coin flips.
            up = (probs_v > 0.5).astype(np.float64)
            thresholded = np.where(probs_v == 0.5, sampled, up)
            rows[0] = np.where(known, given, thresholded)
    return rows[0].astype(np.uint8)


def mean_activation_prior(
    m: BoltzmannMachine,
    data,
    streams: list[np.random.Generator],
    intra_sweeps: int = 1,
    threads: int = 1,
) -> np.ndarray:
    """Per-unit mean of the top layer's inferred states over a dataset,
    one stream per data row."""
    rows = e_step_batch(m, data, streams, intra_sweeps, threads)
    return rows[:, m.layout.slices()[-1]].astype(np.float64).mean(axis=0)
