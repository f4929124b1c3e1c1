"""Conditional Bernoulli sampling for layered machines, one stream per row.

Covers the bottom-up inference pass from the layers below (the E-step),
asynchronous intra-layer Gibbs sweeps, top-down confabulation generation,
the clamped Gibbs schedule of `metrics.reconstruct_batch` and the row
shards that `metrics.corrupt` draws its coin flips on.  A layer's
conditional is the logistic of its `BoltzmannMachine.local_field`, a term
for each given row; an intra-layer sweep adds each unit's intra term to
that field one unit at a time.

Every random draw comes from a stream: numpy's PCG64 seeded from
`SeedSequence(seed, spawn_key=key)`, whose key is the stream's tag and
then its path, each entry as two uint32 words.  Identical (seed, tag,
path, call sequence) gives identical draws on any platform.
`stream(seed, tag, *path)` builds one such `Generator`, for the single
streams of initialisation, shuffling and the CD chains.  A batch sampler
draws from `row_streams`, a `RowStreams` whose row i is the stream with
path `(*prefix, i)`.  It hashes every row's seed at once, gives each row
its own PCG64 at the first draw, and serves each row's uniforms from a
bounded block drawn ahead.

The row contract: a batch sampler takes one stream per row, and
`map_shards` alone checks that, cuts the rows into fixed shards, runs
them (on a thread pool when asked) and stacks the row blocks that come
back, so results do not depend on the thread count.  `RowStreams.random`
is the only batched draw, one block of uniforms per row: a layer update
takes one block for its draw and one for each intra sweep.  The E-step
takes its observed rows as `data.bit_rows` and returns the (observed,
hidden) pair rows as one uint8 matrix, a column per vertex in layer
order.

Shards on a thread pool share one interpreter lock, and two loops of
small numpy calls trade it on every call: two 512-row sweeps of 196
units ran no faster on two threads than one after the other.  So `_LOOP_LOCK` admits one shard at a time to the two such
loops, an intra sweep's per-unit loop and a refill's per-row loop,
while the other shard runs its GEMMs and large ufuncs.  It changes when
a shard runs those loops, never what they compute.  The lock is not
reentrant, so nothing that may take it runs inside those loops.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy.special import expit

from .data import bit_rows
from .model import BoltzmannMachine

# Rows per shard for every batch sampler (E-step, generation, corruption
# and reconstruction).  `map_shards` alone sets shard boundaries, from the
# row count only: a boundary that moved with the thread count would change
# results.
_CHUNK = 512

# Most uniforms a `RowStreams` row holds drawn ahead of its requests.  A
# refill draws what the request lacks, or twice the previous block if that
# is more, up to this: a stream that draws once draws only what it uses,
# one that draws often refills rarely, and a 512-row shard's block stays
# near 4 MB.
_AHEAD = 1024

# Held around the per-unit loop of `_async_sweep` and the per-row loop of
# `RowStreams._refill`; see the module docstring.
_LOOP_LOCK = threading.Lock()

# `reconstruct_rows` thresholds a final visible field z at 0 when every
# |z| in the shard exceeds this: there expit(z) lies at least 2.3e-10
# from 1/2, on z's side, so no probability is an exact 1/2 tie.
_TIE_FIELD = 2.0**-30

# numpy's `SeedSequence` hash constants (its `bit_generator` module).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _key_words(*values: int) -> list[int]:
    """Spawn-key words: each value modulo 2**64, its low word then its high."""
    words: list[int] = []
    for value in values:
        value = int(value) & (2**64 - 1)
        words += [value & _MASK32, value >> 32]
    return words


def stream(seed: int, tag: int, *path: int) -> np.random.Generator:
    """The random stream addressed by (`seed`, `tag`, *`path`), each value
    taken modulo 2**64; the key holds each entry's low word, then its high."""
    seq = np.random.SeedSequence(int(seed) & (2**64 - 1), spawn_key=_key_words(tag, *path))
    return np.random.Generator(np.random.PCG64(seq))


class _Hash:
    """`SeedSequence`'s 32-bit hash, whose constant advances on every use.
    A word is a Python int or a uint64 array of one word per row."""

    def __init__(self, const: int, mult: int):
        self.const, self.mult = const, mult

    def __call__(self, word):
        word = word ^ self.const
        self.const = self.const * self.mult & _MASK32
        word = word * self.const & _MASK32
        return word ^ (word >> 16)


def _mix(x, y):
    """`SeedSequence`'s mix of a pool word `x` with a hashed word `y`."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _pcg_states(seed: int, key: list[int], rows: np.ndarray) -> np.ndarray:
    """The (len(rows), 4) uint64 words `SeedSequence(seed, spawn_key=key +
    the words of row).generate_state(4, np.uint64)` returns, for every row
    index in `rows` at once: the words PCG64 seeds from.

    The rows differ only in their last two entropy words, so the pool
    starts as numpy's own for (seed, `key`), whose mixing advanced the hash
    constant 16 times and 4 more per key word.  The row words' mix rounds
    and the 8 output rounds run as uint64 arrays masked to 32 bits.
    """
    pool = [int(w) for w in np.random.SeedSequence(int(seed) & (2**64 - 1), spawn_key=key).pool]
    hashmix = _Hash(_INIT_A * pow(_MULT_A, 16 + 4 * len(key), 2**32) & _MASK32, _MULT_A)
    rows = np.asarray(rows, dtype=np.uint64)
    for word in (rows & _MASK32, rows >> 32):
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out = _Hash(_INIT_B, _MULT_B)
    words = [out(pool[i % 4]) for i in range(8)]
    # Output words 2k and 2k + 1 are the low and high halves of word k.
    low, high = np.array(words[0::2]), np.array(words[1::2])
    return np.ascontiguousarray((low | high << 32).T)


class _SeedWords(ISeedSequence):
    """One row's seed sequence: `generate_state` returns its 4 uint64
    words from `_pcg_states`, all that PCG64 reads from a seed sequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


class RowStreams:
    """The streams of a batch sampler's rows, seeded at once.

    Row i is the PCG64 seeded from row i of `_pcg_states`' words;
    `row_streams` makes them.  Each row gets its own `Generator` at the
    object's first draw, which then carries the row's state.  Every draw
    is `random`'s one block of the same width from every row.  Each
    float64 uniform takes one PCG64 output, so a row's blocks, joined, are
    its stream's `random(total)`.  The uniforms come from a per-row block
    drawn ahead, at most `_AHEAD` per row beyond what was asked for; a
    refill is one `random` call per row.

    A row's stream lives in one object at a time.  Slicing moves the rows
    to the new object, for `map_shards`' shards, so an object can be sliced
    only before it draws, a row can be sliced out only once, and an object
    that has handed out rows cannot draw.  Each misuse raises `ValueError`
    rather than let two objects draw the same uniforms.
    """

    def __init__(self, words: np.ndarray):
        self._words = words
        self._gens: list[np.random.Generator] | None = None  # built at the first draw
        self._block = np.empty((len(words), 0))
        self._used = 0
        self._handed_out = np.zeros(len(words), dtype=bool)

    def __len__(self) -> int:
        return len(self._words)

    def __getitem__(self, rows: slice) -> RowStreams:
        if self._gens is not None:
            raise ValueError("row streams that have drawn cannot be sliced")
        if self._handed_out[rows].any():
            raise ValueError("a row's stream was already sliced out")
        self._handed_out[rows] = True
        return RowStreams(self._words[rows])

    def random(self, width: int) -> np.ndarray:
        """A new (len(self), width) matrix: the next `width` uniforms of
        every row."""
        if self._handed_out.any():
            raise ValueError("row streams that were sliced out cannot draw")
        if self._gens is None:
            self._gens = [np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in self._words]
        ahead = self._block.shape[1] - self._used
        if width <= ahead:
            self._used += width
            return self._block[:, self._used - width : self._used].copy()
        have = self._block[:, self._used :]
        self._refill(max(width - ahead, min(_AHEAD, 2 * self._block.shape[1])))
        self._used = width - ahead
        return np.concatenate([have, self._block[:, : self._used]], axis=1)

    def _refill(self, width: int) -> None:
        """Replace the block with every row's next `width` uniforms."""
        self._block = np.empty((len(self), width))
        with _LOOP_LOCK:
            for gen, row in zip(self._gens, self._block):
                gen.random(out=row)


def row_streams(seed: int, tag: int, *prefix: int, count: int) -> RowStreams:
    """One stream per row: row `i` draws from `stream(seed, tag, *prefix, i)`."""
    return RowStreams(_pcg_states(seed, _key_words(tag, *prefix), np.arange(count)))


def _draw(probs: np.ndarray, streams: RowStreams) -> np.ndarray:
    """Bernoulli rows as floats: one uniform block per stream against `probs`."""
    return (streams.random(probs.shape[-1]) < probs).astype(np.float64)


def _async_sweep(
    m: BoltzmannMachine,
    layer: int,
    h: np.ndarray,
    below_input: np.ndarray,
    streams: RowStreams,
) -> None:
    """One in-place sweep of unit-by-unit resampling in ascending order.

    Each unit sees the latest values of its intra-layer neighbors; the
    layer below is folded into `below_input` (weights below + bias).  Each
    stream serves one uniform block for its row.
    """
    u = streams.random(h.shape[1])  # may refill, which takes the lock
    w_intra = m.block(layer, layer)  # zero diagonal excludes the unit itself
    with _LOOP_LOCK:
        for j in range(h.shape[1]):
            p = expit(h @ w_intra[:, j] + below_input[:, j])
            h[:, j] = u[:, j] < p


def _update_hidden(
    m: BoltzmannMachine,
    layer: int,
    rows: list[np.ndarray | None],
    streams: RowStreams,
    intra_sweeps: int,
) -> np.ndarray:
    """New bits for hidden `layer` from the layers below in `rows`.

    The layer is drawn from its conditional, then refined by `intra_sweeps`
    asynchronous sweeps when it has intra-layer edges; a negative count
    raises `ValueError`.
    """
    if intra_sweeps < 0:
        raise ValueError(f"intra_sweeps must be non-negative, got {intra_sweeps}")
    below = m.local_field(layer, rows[:layer])
    h = _draw(expit(below), streams)
    if (layer, layer) in m.layout.blocks:
        for _ in range(intra_sweeps):
            _async_sweep(m, layer, h, below, streams)
    return h


def map_shards(
    run, streams: RowStreams, *per_row: np.ndarray, threads: int
) -> np.ndarray:
    """`run(streams[sh], *(a[sh] for a in per_row))` over consecutive
    `_CHUNK`-row shards `sh`, the row blocks it returns stacked in order.

    Every array in `per_row` needs one row per stream.  Every shard's
    streams are sliced out before the first shard runs, and each shard's
    are dropped when its run returns.  `threads` is an integer of at least
    1; with `threads` > 1 and more than one shard, shards run on a thread
    pool, so `run` must not write anything that another shard reads.
    """
    if not isinstance(threads, (int, np.integer)) or threads < 1:
        raise ValueError(f"threads must be an integer of at least 1, got {threads!r}")
    if any(len(a) != len(streams) for a in per_row):
        raise ValueError("need one stream per row")
    if len(streams) < 1:
        raise ValueError("need at least one row")
    shards = [slice(a, a + _CHUNK) for a in range(0, len(streams), _CHUNK)]
    sliced = [streams[sh] for sh in shards]  # every row moves before any shard draws

    def run_shard(i: int) -> np.ndarray:
        shard_streams, sliced[i] = sliced[i], None  # freed when the shard returns
        return run(shard_streams, *(a[shards[i]] for a in per_row))

    if threads > 1 and len(shards) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return np.concatenate(list(pool.map(run_shard, range(len(shards)))))
    return np.concatenate([run_shard(i) for i in range(len(shards))])


def _estep_rows(
    m: BoltzmannMachine,
    intra_sweeps: int,
    streams: RowStreams,
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
    streams: RowStreams,
    intra_sweeps: int = 1,
    threads: int = 1,
) -> np.ndarray:
    """Bottom-up inference pass, one row per observed vector and stream.

    Each hidden layer is Bernoulli-sampled from the layers below, then
    refined by `intra_sweeps` asynchronous sweeps when it has intra-layer
    edges.  Returns the (rows, n) uint8 pair matrix: each row is its
    observed vector followed by its sampled hidden layers, bottom-up, with
    layer k in columns `m.layout.slices[k]`.  The result is independent
    of `threads` (see `map_shards`).
    """
    x_rows = bit_rows(x_rows, m.layout.sizes[0], "observed rows")
    return map_shards(partial(_estep_rows, m, intra_sweeps), streams, x_rows, threads=threads)


def _generate_rows(
    m: BoltzmannMachine,
    r: int,
    intra_sweeps: int,
    top_probs: np.ndarray,
    streams: RowStreams,
) -> np.ndarray:
    """Top-down confabulation for a block of samples; returns visible probs.

    Starting from a Bernoulli draw of the top layer from `top_probs`, each
    layer pair (i, i-1) is mixed with r alternating Gibbs rounds,
    asynchronously refreshing layer i when it has intra-layer edges; the
    final state of layer i-1 seeds the next pair.
    """
    top = len(m.layout.sizes) - 1
    rows: list[np.ndarray | None] = [None] * (top + 1)
    rows[top] = _draw(top_probs, streams)
    for i in range(top, 0, -1):
        for _ in range(r):
            rows[i - 1] = None  # the draw reads no intra term from the old row
            rows[i - 1] = _draw(expit(m.local_field(i - 1, rows)), streams)
            rows[i] = _update_hidden(m, i, rows, streams, intra_sweeps)
    return expit(m.local_field(0, rows))


def generate_batch(
    m: BoltzmannMachine,
    top_init,
    r: int,
    streams: RowStreams,
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
    if not ((top_probs >= 0.0) & (top_probs <= 1.0)).all():  # NaN fails both
        raise ValueError("prior probabilities must lie in [0, 1]")
    return map_shards(partial(_generate_rows, m, r, intra_sweeps, top_probs), streams,
                      threads=threads)


def reconstruct_rows(
    m: BoltzmannMachine,
    gibbs_steps: int,
    intra_sweeps: int,
    streams: RowStreams,
    corrupted: np.ndarray,
    known: np.ndarray,
) -> np.ndarray:
    """Clamped alternating Gibbs for a block of images (rows); the uint8
    reconstructions.  `metrics.reconstruct_batch` states the schedule.

    The final visible update thresholds the probability at 0.5 and keeps a
    sampled bit only at an exact tie, so a degenerate zero-weight machine
    yields fair coin flips.  When no field of the shard lies within
    `_TIE_FIELD` of 0 (a NaN field counts as one that does), no probability
    can tie and the sign of the field decides with no draw; the streams
    are dropped after this step, so the skipped draw changes no output.
    """
    v = given = corrupted.astype(np.float64)
    for t in range(gibbs_steps):
        h = _update_hidden(m, 1, [v], streams, intra_sweeps)
        field = m.local_field(0, [v, h])
        if t < gibbs_steps - 1:
            v = np.where(known, given, _draw(expit(field), streams))
        elif np.abs(field).min() > _TIE_FIELD:  # False when a field is NaN
            v = np.where(known, given, field > 0)
        else:
            probs_v = expit(field)
            thresholded = np.where(probs_v == 0.5, _draw(probs_v, streams), probs_v > 0.5)
            v = np.where(known, given, thresholded)
    return v.astype(np.uint8)
