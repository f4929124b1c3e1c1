"""Evaluation suite: sparsity statistics, image reconstruction, Parzen
log-likelihood, activation histograms, and corruption patterns."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, logsumexp

from .model import BoltzmannMachine
from .sampling import RngStream, _draw, _layer_input, _update_hidden, map_shards

IMAGE_SIDE = 28
CORRUPT_BAND = 12  # rows or columns replaced by noise out of 28

PATTERNS = ("top", "bottom", "left", "right")


@dataclass
class EvalReport:
    """Collected evaluation results for one trained machine."""

    recon_errors: dict[str, float] = field(default_factory=dict)
    parzen_ll: float | None = None
    parzen_stderr: float | None = None
    mean_activation: float | None = None
    rho: float | None = None
    w2: float | None = None

    def to_text(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True) + "\n"

    def csv_rows(self) -> list[tuple[str, float]]:
        rows = [(f"recon_{k}", v) for k, v in sorted(self.recon_errors.items())]
        for name in ("parzen_ll", "parzen_stderr", "mean_activation", "rho", "w2"):
            value = getattr(self, name)
            if value is not None:
                rows.append((name, value))
        return rows


def _first_hidden_block(m: BoltzmannMachine) -> np.ndarray:
    """Visible-to-first-hidden weight block; whole matrix if fully observed."""
    sl = m.layout.slices()
    if len(sl) == 1:
        return m.weights
    return m.weights[sl[0], sl[1]]


def weight_sparsity(m: BoltzmannMachine) -> float:
    """Participation-ratio sparsity of the hidden columns.

    rho = (1 / (|x| |h|)) sum_j (sum_i w_ij^2)^2 / sum_i w_ij^4; columns
    with no nonzero weight contribute 0.  rho = 1 for a constant matrix and
    1/|x| when each hidden unit touches a single visible unit.
    """
    w = _first_hidden_block(m)
    sq = np.sum(w**2, axis=0)
    quart = np.sum(w**4, axis=0)
    ratios = np.divide(sq**2, quart, out=np.zeros_like(sq), where=quart > 0)
    return float(ratios.sum() / (w.shape[0] * w.shape[1]))


def squared_weight(m: BoltzmannMachine) -> float:
    """Mean per-hidden-unit squared weight: (1/|h|) sum_ij w_ij^2."""
    w = _first_hidden_block(m)
    return float(np.sum(w**2) / w.shape[1])


def recon_error(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """L1 distance between two equal-length bit vectors."""
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(reconstructed, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.abs(a - b).sum())


def corrupt(
    image: np.ndarray, pattern: str, rng: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """Replace a 12-row (or column) band with coin flips.

    Returns the corrupted image and the known-pixel mask (False on the
    corrupted band).  The named side is the band's location: "top" corrupts
    rows 0-11, "left" columns 0-11, and so on.
    """
    image = np.asarray(image)
    if image.shape != (IMAGE_SIDE * IMAGE_SIDE,):
        raise ValueError(f"image has shape {image.shape}, expected ({IMAGE_SIDE**2},)")
    if pattern not in PATTERNS:
        raise ValueError(f"unknown corruption pattern {pattern!r}")
    known = np.ones((IMAGE_SIDE, IMAGE_SIDE), dtype=bool)
    if pattern == "top":
        known[:CORRUPT_BAND, :] = False
    elif pattern == "bottom":
        known[-CORRUPT_BAND:, :] = False
    elif pattern == "left":
        known[:, :CORRUPT_BAND] = False
    else:
        known[:, -CORRUPT_BAND:] = False
    known = known.ravel()
    corrupted = image.copy().astype(np.uint8)
    unknown = ~known
    corrupted[unknown] = rng.uniforms(int(unknown.sum())) < 0.5
    return corrupted, known


def _reconstruct_rows(
    m: BoltzmannMachine,
    corrupted: np.ndarray,
    known: np.ndarray,
    gibbs_steps: int,
    streams: list[RngStream],
    intra_sweeps: int,
) -> np.ndarray:
    """Clamped alternating Gibbs for a block of images (rows)."""
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


def reconstruct(
    m: BoltzmannMachine,
    corrupted: np.ndarray,
    known_mask: np.ndarray,
    gibbs_steps: int,
    rng: RngStream,
    intra_sweeps: int = 1,
) -> np.ndarray:
    """Fill in unknown pixels by clamped Gibbs sampling.

    Known pixels are re-clamped to their given values after every visible
    update; the unknown pixels of the final visible update are thresholded
    at 0.5 from the Bernoulli probabilities instead of sampled.
    """
    corrupted = np.asarray(corrupted)[None, :]
    known_mask = np.asarray(known_mask)[None, :]
    return reconstruct_batch(m, corrupted, known_mask, gibbs_steps, [rng], intra_sweeps)[0]


def reconstruct_batch(
    m: BoltzmannMachine,
    corrupted: np.ndarray,
    known: np.ndarray,
    gibbs_steps: int,
    streams: list[RngStream],
    intra_sweeps: int = 1,
    threads: int = 1,
) -> np.ndarray:
    """`reconstruct` for many images (rows), one stream per row."""
    if len(m.layout.sizes) < 2:
        raise ValueError("reconstruction needs a hidden layer")
    corrupted = np.atleast_2d(np.asarray(corrupted))
    known = np.atleast_2d(np.asarray(known, dtype=bool))
    if corrupted.ndim != 2 or corrupted.shape[1] != m.layout.sizes[0]:
        raise ValueError(
            f"corrupted images have shape {corrupted.shape}, expected (*, {m.layout.sizes[0]})"
        )
    if known.shape != corrupted.shape:
        raise ValueError("corrupted image / mask shape mismatch")
    if corrupted.shape[0] != len(streams):
        raise ValueError("need one RngStream per row")
    if gibbs_steps < 1:
        raise ValueError(f"gibbs_steps must be at least 1, got {gibbs_steps}")
    parts = map_shards(
        lambda sh: _reconstruct_rows(
            m, corrupted[sh], known[sh], gibbs_steps, streams[sh], intra_sweeps
        ),
        len(streams),
        threads,
    )
    return np.concatenate(parts)


def parzen_ll(
    samples: np.ndarray, test: np.ndarray, sigma: float, chunk: int = 256
) -> tuple[float, float]:
    """Gaussian Parzen-window log-likelihood of test points under samples.

    For each test point, the log of the mean of isotropic Gaussian kernels
    centered at the samples, evaluated with log-sum-exp; returns the mean
    over test points and the standard error of that mean.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    test = np.atleast_2d(np.asarray(test, dtype=np.float64))
    if samples.shape[0] == 0:
        raise ValueError("empty sample set")
    if samples.shape[1] != test.shape[1]:
        raise ValueError("sample/test dimension mismatch")
    d = samples.shape[1]
    log_norm = np.log(samples.shape[0]) + 0.5 * d * np.log(2.0 * np.pi * sigma**2)
    s_sq = np.sum(samples**2, axis=1)
    lls = np.empty(test.shape[0])
    for start in range(0, test.shape[0], chunk):
        t = test[start : start + chunk]
        d2 = np.sum(t**2, axis=1)[:, None] + s_sq[None, :] - 2.0 * t @ samples.T
        np.maximum(d2, 0.0, out=d2)
        lls[start : start + chunk] = logsumexp(-d2 / (2.0 * sigma**2), axis=1) - log_norm
    mean = float(lls.mean())
    stderr = float(lls.std(ddof=1) / np.sqrt(lls.shape[0])) if lls.shape[0] > 1 else 0.0
    return mean, stderr


@dataclass
class ActivationStats:
    """Histogram of per-hidden-unit mean activations plus the overall mean."""

    counts: np.ndarray
    bin_edges: np.ndarray
    mean: float
    per_unit: np.ndarray


def activation_stats(
    m: BoltzmannMachine,
    data,
    rng: RngStream,
    bins: int = 20,
    intra_sweeps: int = 1,
    threads: int = 1,
) -> ActivationStats:
    """Mean activation of every hidden unit over a dataset via inference."""
    from .sampling import e_step_batch

    x_rows = np.atleast_2d(np.asarray(getattr(data, "images", data)))
    if x_rows.shape[0] == 0:
        raise ValueError("empty dataset")
    if len(m.layout.sizes) < 2:
        raise ValueError("machine has no hidden units")
    streams = [rng.child(i) for i in range(x_rows.shape[0])]
    layers = e_step_batch(m, x_rows, streams, intra_sweeps, threads)
    per_unit = np.concatenate([h.astype(np.float64).mean(axis=0) for h in layers[1:]])
    counts, edges = np.histogram(per_unit, bins=bins, range=(0.0, 1.0))
    return ActivationStats(counts, edges, float(per_unit.mean()), per_unit)
