"""Conditional Bernoulli sampling for layered machines, one stream per row.

Covers the bottom-up inference pass from the layers below (the E-step),
asynchronous intra-layer Gibbs sweeps, top-down confabulation generation
and the clamped Gibbs schedule of `metrics.reconstruct_batch`.  A layer's
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
path `(*prefix, i)`.  It seeds every row at once, with no `Generator` per
row, and serves each row's uniforms from a bounded block drawn ahead.

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

from .model import BoltzmannMachine

# Rows per shard for every batch sampler (E-step, generation and
# reconstruction).  `map_shards` alone sets shard boundaries, from the row
# count only: a boundary that moved with the thread count would change
# results.
_CHUNK = 512

# Most uniforms a `RowStreams` row holds drawn ahead of its requests.  A
# refill draws what the request lacks, or twice the previous block if that
# is more, up to this: a stream that draws once draws only what it uses,
# one that draws often refills rarely, and a 512-row shard's block stays
# near 4 MB.
_AHEAD = 1024

# numpy's `SeedSequence` hash constants (its `bit_generator` module) and
# PCG64's 128-bit LCG multiplier.
_MASK32 = 0xFFFFFFFF
_MASK128 = 2**128 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


def _pcg_states(seed: int, key: list[int], rows: np.ndarray) -> tuple[list[int], list[int]]:
    """PCG64's (state, inc) for `SeedSequence(seed, spawn_key=key + the
    words of row)`, for every row index in `rows` at once.

    The rows differ only in their last two entropy words, so the seed and
    `key` are mixed into the 4-word pool once, as Python ints.  The row
    words' mix rounds and the 8 output rounds run as uint64 arrays masked
    to 32 bits.
    """
    seed_words = _key_words(seed)
    entropy = seed_words + [0] * (4 - len(seed_words)) + key
    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    rows = np.asarray(rows, dtype=np.uint64)
    for word in entropy[4:] + [rows & _MASK32, rows >> 32]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out = _Hash(_INIT_B, _MULT_B)
    words = [out(pool[i % 4]) for i in range(8)]
    # `generate_state(4, uint64)`: words 2k and 2k + 1 are the low and high
    # halves of state word k; PCG64 seeds from words (0, 1) and (2, 3).
    s0, s1, s2, s3 = ((words[2 * k] | words[2 * k + 1] << 32).tolist() for k in range(4))
    inc = [((a << 64 | b) << 1 | 1) & _MASK128 for a, b in zip(s2, s3)]
    state = [((i + (a << 64 | b)) * _PCG_MULT + i) & _MASK128 for i, a, b in zip(inc, s0, s1)]
    return state, inc


def _lcg_jump(steps: int) -> tuple[int, int]:
    """(A, C) such that `steps` PCG64 steps take `state` to
    `(A * state + C * inc) mod 2**128`."""
    acc_mult, acc_plus, mult, plus = 1, 0, _PCG_MULT, 1
    while steps:
        if steps & 1:
            acc_mult, acc_plus = acc_mult * mult & _MASK128, (acc_plus * mult + plus) & _MASK128
        mult, plus = mult * mult & _MASK128, (mult + 1) * plus & _MASK128
        steps >>= 1
    return acc_mult, acc_plus


class RowStreams:
    """The streams of a batch sampler's rows, seeded at once.

    Row i continues the stream of PCG64 `(state, inc)` pair i; `row_streams`
    makes them.  Every draw is `uniforms`' one block of the same width from
    every row.  Each float64 uniform takes one PCG64 output, so a row's
    blocks, joined, are its stream's `random(total)`.  The uniforms come from
    a per-row block drawn ahead, at most `_AHEAD` per row beyond what was
    asked for.  A refill sets one PCG64 to each row's state in turn, draws
    the row's part of the block and advances the stored state by the
    block's width.

    A row's stream lives in one object at a time.  Slicing moves the rows
    to the new object, for `map_shards`' shards, so an object can be sliced
    only before it draws, a row can be sliced out only once, and an object
    that has handed out rows cannot draw.  Each misuse raises `ValueError`
    rather than let two objects draw the same uniforms.
    """

    def __init__(self, state: list[int], inc: list[int]):
        self._state, self._inc = state, inc
        self._block = np.empty((len(state), 0))
        self._used = 0
        self._drew = False
        self._handed_out = np.zeros(len(state), dtype=bool)

    def __len__(self) -> int:
        return len(self._state)

    def __getitem__(self, rows: slice) -> RowStreams:
        if self._drew:
            raise ValueError("row streams that have drawn cannot be sliced")
        if self._handed_out[rows].any():
            raise ValueError("a row's stream was already sliced out")
        self._handed_out[rows] = True
        return RowStreams(self._state[rows], self._inc[rows])

    def random(self, width: int) -> np.ndarray:
        """A new (len(self), width) matrix: the next `width` uniforms of
        every row."""
        if self._handed_out.any():
            raise ValueError("row streams that were sliced out cannot draw")
        self._drew = True
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
        block = np.empty((len(self), width))
        bit_gen = np.random.PCG64(0)
        gen = np.random.Generator(bit_gen)
        mult, plus = _lcg_jump(width)
        for i, (state, inc) in enumerate(zip(self._state, self._inc)):
            bit_gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                             "has_uint32": 0, "uinteger": 0}
            gen.random(out=block[i])
            self._state[i] = (mult * state + plus * inc) & _MASK128
        self._block = block


def row_streams(seed: int, tag: int, *prefix: int, count: int) -> RowStreams:
    """One stream per row: row `i` draws from `stream(seed, tag, *prefix, i)`."""
    return RowStreams(*_pcg_states(seed, _key_words(tag, *prefix), np.arange(count)))


def uniforms(streams: RowStreams, width: int) -> np.ndarray:
    """A (len(streams), width) matrix: row i is the next `width` uniforms of
    row i's stream."""
    return streams.random(width)


def _draw(probs: np.ndarray, streams: RowStreams) -> np.ndarray:
    """Bernoulli rows as floats: one uniform block per stream against `probs`."""
    return (uniforms(streams, probs.shape[-1]) < probs).astype(np.float64)


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
    u = uniforms(streams, h.shape[1])
    w_intra = m.block(layer, layer)  # zero diagonal excludes the unit itself
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
    asynchronous sweeps when it has intra-layer edges.
    """
    below = m.local_field(layer, rows[:layer])
    h = _draw(expit(below), streams)
    if m.layout.has_intra(layer):
        for _ in range(intra_sweeps):
            _async_sweep(m, layer, h, below, streams)
    return h


def map_shards(
    run, streams: RowStreams, *per_row: np.ndarray, threads: int
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
    layer k in columns `m.layout.slices()[k]`.  The result is independent
    of `threads` (see `map_shards`).
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
    if top_probs.min() < 0.0 or top_probs.max() > 1.0:
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
    reconstructions.  `metrics.reconstruct_batch` states the schedule."""
    v = given = corrupted.astype(np.float64)
    for t in range(gibbs_steps):
        h = _update_hidden(m, 1, [v], streams, intra_sweeps)
        probs_v = expit(m.local_field(0, [v, h]))
        sampled = _draw(probs_v, streams)
        if t < gibbs_steps - 1:
            v = np.where(known, given, sampled)
        else:
            # Final update is the 0.5-thresholded probability; an exact tie
            # (probability 1/2) keeps the sampled bit, so a degenerate
            # zero-weight machine yields fair coin flips.
            up = (probs_v > 0.5).astype(np.float64)
            thresholded = np.where(probs_v == 0.5, sampled, up)
            v = np.where(known, given, thresholded)
    return v.astype(np.uint8)


def mean_activation_prior(
    m: BoltzmannMachine,
    data,
    streams: RowStreams,
    intra_sweeps: int = 1,
    threads: int = 1,
) -> np.ndarray:
    """Per-unit mean of the top layer's inferred states over a dataset,
    one stream per data row."""
    rows = e_step_batch(m, data, streams, intra_sweeps, threads)
    return rows[:, m.layout.slices()[-1]].astype(np.float64).mean(axis=0)
