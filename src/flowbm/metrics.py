"""Evaluation suite: sparsity statistics, corruption patterns, image
reconstruction and its L1 error, and Parzen log-likelihood.

`corrupt`, `reconstruct_batch` and `recon_error` take their images and
mask as `data.bit_rows`.  `corrupt` and `reconstruct_batch` draw under the
batch samplers' row contract (`map_shards`): `corrupt` one block of coin
flips per row, `reconstruct_batch` `sampling`'s clamped Gibbs schedule.
"""

from __future__ import annotations

import math
import sys
from functools import partial

import numpy as np
from scipy.special import logsumexp

from .data import bit_rows
from .model import BoltzmannMachine
from .sampling import RowStreams, map_shards, reconstruct_rows

IMAGE_SIDE = 28
CORRUPT_BAND = 12  # rows or columns replaced by noise out of 28

# The band of the 28x28 grid that each pattern corrupts.
BANDS = {
    "top": np.s_[:CORRUPT_BAND, :],
    "bottom": np.s_[-CORRUPT_BAND:, :],
    "left": np.s_[:, :CORRUPT_BAND],
    "right": np.s_[:, -CORRUPT_BAND:],
}
PATTERNS = tuple(BANDS)
PARZEN_CHUNK = 256  # test points per kernel-matrix block in `parzen_ll`


def _first_hidden_block(m: BoltzmannMachine) -> np.ndarray:
    """Visible-to-first-hidden weight block; whole matrix if fully observed."""
    return m.block(0, 0) if len(m.layout.sizes) == 1 else m.block(0, 1)


def weight_sparsity(m: BoltzmannMachine) -> float:
    """Participation-ratio sparsity of the hidden columns.

    rho = (1 / (|x| |h|)) sum_j (sum_i w_ij^2)^2 / sum_i w_ij^4; columns
    with no nonzero weight contribute 0.  rho = 1 for a constant matrix and
    1/|x| when each hidden unit touches a single visible unit.
    """
    w2 = np.square(_first_hidden_block(m))
    sq = w2.sum(axis=0)
    quart = np.square(w2, out=w2).sum(axis=0)  # (w^2)^2: w**4 takes numpy's slow pow
    ratios = np.divide(sq**2, quart, out=np.zeros_like(sq), where=quart > 0)
    return float(ratios.sum() / w2.size)


def squared_weight(m: BoltzmannMachine) -> float:
    """Mean per-hidden-unit squared weight: (1/|h|) sum_ij w_ij^2."""
    w = _first_hidden_block(m)
    return float(np.sum(w**2) / w.shape[1])


def recon_error(original: np.ndarray, reconstructed: np.ndarray) -> np.ndarray:
    """One L1 distance per row of two equal-shape bit matrices
    (`data.bit_rows`): the count of differing bits, as a float64 (an exact
    integer)."""
    a = np.asarray(original)
    a = bit_rows(a, a.shape[-1] if a.ndim else 0, "original rows")
    b = bit_rows(reconstructed, a.shape[1], "reconstructed rows")
    if a.shape != b.shape:
        raise ValueError(f"row count mismatch: {a.shape} vs {b.shape}")
    return np.count_nonzero(a != b, axis=1).astype(np.float64)


def _corrupt_rows(unknown: np.ndarray, streams: RowStreams, images: np.ndarray) -> np.ndarray:
    """A copy of a block of images with the `unknown` pixels coin flips."""
    corrupted = images.copy()
    corrupted[:, unknown] = streams.random(np.count_nonzero(unknown)) < 0.5
    return corrupted


def corrupt(
    images: np.ndarray, pattern: str, streams: RowStreams
) -> tuple[np.ndarray, np.ndarray]:
    """Replace a 12-row (or column) band of each image (row) with coin flips.

    Row i's flips are one block of uniforms from row i of `streams`, on
    `map_shards`' shards.  Returns the corrupted images and the known-pixel
    mask (False on the corrupted band), a read-only view of one mask for
    every row.  The named side is the band's location: "top" corrupts rows
    0-11, "left" columns 0-11, and so on.
    """
    images = bit_rows(images, IMAGE_SIDE**2, "images")
    if pattern not in BANDS:
        raise ValueError(f"unknown corruption pattern {pattern!r}")
    known = np.ones((IMAGE_SIDE, IMAGE_SIDE), dtype=bool)
    known[BANDS[pattern]] = False
    unknown = ~known.ravel()
    corrupted = map_shards(partial(_corrupt_rows, unknown), streams, images, threads=1)
    return corrupted, np.broadcast_to(~unknown, corrupted.shape)


def reconstruct_batch(
    m: BoltzmannMachine,
    corrupted: np.ndarray,
    known: np.ndarray,
    gibbs_steps: int,
    streams: RowStreams,
    intra_sweeps: int = 1,
    threads: int = 1,
) -> np.ndarray:
    """Fill in the unknown pixels of each image (row) by clamped Gibbs sampling.

    One stream per row.  Each Gibbs step resamples the first hidden layer
    from the visible one alone, refined by its intra sweeps, then the
    visible layer.  Layers above the first hidden one take no part, so a
    deep machine reconstructs exactly as its sub-machine of the visible
    and first hidden layers does.  Known pixels are re-clamped to
    their given values after every visible update.  The final visible
    update sets each unknown pixel to its Bernoulli probability thresholded
    at 0.5, keeping a sampled bit only where the probability is exactly
    1/2; a shard where no visible field lies within 2**-30 of 0 can have
    no such tie and draws nothing for that update (see
    `sampling.reconstruct_rows`).
    """
    if len(m.layout.sizes) < 2:
        raise ValueError("reconstruction needs a hidden layer")
    corrupted = bit_rows(corrupted, m.layout.sizes[0], "corrupted images")
    known = bit_rows(known, m.layout.sizes[0], "known-pixel mask").view(bool)
    if known.shape != corrupted.shape:
        raise ValueError("corrupted image / mask shape mismatch")
    if gibbs_steps < 1:
        raise ValueError(f"gibbs_steps must be at least 1, got {gibbs_steps}")
    return map_shards(partial(reconstruct_rows, m, gibbs_steps, intra_sweeps), streams,
                      corrupted, known, threads=threads)


def check_sigma(sigma: float, name: str = "sigma") -> None:
    """Reject a Parzen width unless sigma**2 and 2*pi*sigma**2 are normal
    finite doubles, the range where the kernel's variance loses no bits.
    A Python float's power raises `OverflowError` where numpy's gives inf."""
    try:
        square = float(sigma) ** 2
    except OverflowError:
        square = math.inf
    if not (sigma > 0 and square >= sys.float_info.min and 2.0 * math.pi * square < math.inf):
        raise ValueError(f"{name} must be positive with sigma**2 and 2*pi*sigma**2 normal "
                         f"finite doubles (about 1.5e-154 to 5.3e153), got {sigma}")


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends as a non-finite estimate
def parzen_ll(samples: np.ndarray, test: np.ndarray, sigma: float) -> tuple[float, float]:
    """Gaussian Parzen-window log-likelihood of test points under samples.

    For each test point, the log of the mean of isotropic Gaussian kernels
    centered at the samples, evaluated with log-sum-exp; returns the mean
    over test points and the standard error of that mean.  A sigma that
    `check_sigma` rejects, or a mean or standard error that overflows to a
    non-finite value, raises `ValueError`.
    """
    check_sigma(sigma)
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    test = np.atleast_2d(np.asarray(test, dtype=np.float64))
    if samples.shape[0] == 0 or test.shape[0] == 0:
        raise ValueError("empty sample or test set")
    if samples.shape[1] != test.shape[1]:
        raise ValueError("sample/test dimension mismatch")
    if not (np.isfinite(samples).all() and np.isfinite(test).all()):
        raise ValueError("samples and test points must be finite")
    d = samples.shape[1]
    log_norm = np.log(samples.shape[0]) + 0.5 * d * np.log(2.0 * np.pi * sigma**2)
    s_sq = np.sum(samples**2, axis=1)
    lls = np.empty(test.shape[0])
    for start in range(0, test.shape[0], PARZEN_CHUNK):
        t = test[start : start + PARZEN_CHUNK]
        d2 = np.sum(t**2, axis=1)[:, None] + s_sq[None, :] - 2.0 * t @ samples.T
        np.maximum(d2, 0.0, out=d2)
        lls[start : start + PARZEN_CHUNK] = logsumexp(-d2 / (2.0 * sigma**2), axis=1) - log_norm
    mean = float(lls.mean())
    stderr = float(lls.std(ddof=1) / np.sqrt(lls.shape[0])) if lls.shape[0] > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise ValueError(f"the Parzen estimate {mean} (stderr {stderr}) at sigma {sigma} "
                         "is not finite")
    return mean, stderr
