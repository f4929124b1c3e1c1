"""Training settings, and Adam with weight decay over the machine's flat
parameter vectors.  A config file or flag sets a `TrainConfig` field by
its own name only."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .model import BoltzmannMachine, parse_number
from .mpf import Z_CLAMP_DEFAULT, Gradient

# Elements per pass of `step`: its two scratch buffers (256 KB) and the
# chunk of each of its four vectors stay in cache between the update's
# passes.  16k and 32k measured best on the paper layouts; 4k, and one
# pass over the whole vectors, were 20-43% slower.
_CHUNK = 16_384


@dataclass(frozen=True)
class TrainConfig:
    """All training hyperparameters; defaults match the experiment setup."""

    eta: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.0001
    minibatch: int = 40
    epochs: int = 100
    seed: int = 0
    r: int = 5
    intra_sweeps: int = 1
    init_scale: float = 0.01
    clamp_z: float = Z_CLAMP_DEFAULT
    method: str = "vpf"
    k: int = 1

    def __post_init__(self):
        for name in ("eta", "adam_eps", "init_scale", "clamp_z"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(
                f"weight_decay must be non-negative and finite, got {self.weight_decay}"
            )
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if self.minibatch < 1:
            raise ValueError(f"minibatch must be at least 1, got {self.minibatch}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if self.r < 1:
            raise ValueError(f"r must be at least 1, got {self.r}")
        if self.intra_sweeps < 0:
            raise ValueError(f"intra_sweeps must be non-negative, got {self.intra_sweeps}")
        if self.method not in ("vpf", "cd", "pcd"):
            raise ValueError(f"method must be vpf, cd or pcd, got {self.method!r}")
        if self.k < 1 or (self.k != 1 and self.method == "vpf"):
            raise ValueError(f"k must be at least 1, and 1 for method vpf, got {self.k}")

    def to_text(self) -> str:
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in dataclasses.fields(self)]
        return "\n".join(lines) + "\n"


def parse_config_items(items: dict[str, str], base: TrainConfig | None = None) -> TrainConfig:
    """Build a TrainConfig from string key/value pairs over `base` defaults."""
    base = base or TrainConfig()
    fields = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    updates = {}
    for key, raw_value in items.items():
        if key not in fields:
            raise ValueError(f"unknown config key {key!r}")
        kind = {"int": int, "float": float, "str": str}[fields[key]]
        value = raw_value.strip()
        try:
            updates[key] = value if kind is str else parse_number(value, kind)
        except ValueError:
            raise ValueError(f"{key} must be {kind.__name__}, got {raw_value!r}") from None
    return dataclasses.replace(base, **updates)


def parse_config_text(
    text: str, base: TrainConfig | None = None, source: str = "config"
) -> TrainConfig:
    """Build a TrainConfig from key = value lines (# starts a comment); a
    key set on two lines is rejected."""
    items, set_on = {}, {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in set_on:
            raise ValueError(f"{source}:{lineno}: {key!r} sets {key} again "
                             f"(already set on line {set_on[key]})")
        set_on[key] = lineno
        items[key] = value
    return parse_config_items(items, base)


def load_config(path, base: TrainConfig | None = None) -> TrainConfig:
    """Read a plain-text key=value config file (# starts a comment)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base, str(path))


@dataclass
class AdamState:
    """First/second moment accumulators for both parameter groups.

    The weight moments are laid out like the machine's flat weight vector.
    """

    m1_w: np.ndarray
    m2_w: np.ndarray
    m1_b: np.ndarray
    m2_b: np.ndarray
    t: int = 0


def init_adam(m: BoltzmannMachine) -> AdamState:
    e, n = m.layout.edges, m.layout.n
    return AdamState(np.zeros(e), np.zeros(e), np.zeros(n), np.zeros(n), 0)


def step(m: BoltzmannMachine, g: Gradient, st: AdamState, cfg: TrainConfig) -> None:
    """One descent step on the objective, in place on machine and state.

    The weight-decay term 2*weight_decay*w is added to the raw weight gradient
    (biases are not decayed) before the Adam moments.  The update is
    elementwise over the stored edges, so a symmetric gradient keeps every
    intra block symmetric with a zero diagonal.  Every shape is checked
    before anything changes: a mismatch raises `ValueError` and leaves the
    machine and `st` as they were.

    The vectors are updated `_CHUNK` elements at a time through two scratch
    buffers.  This is bit-identical to one whole-vector update: each
    element's new values depend only on its own parameter, gradient and
    moments, there is no reduction across elements, and each element goes
    through the same IEEE operations in the same order, so where a chunk
    ends cannot change a bit.
    """
    pairs = ((m.weights, g.d_weights, st.m1_w, st.m2_w), (m.biases, g.d_biases, st.m1_b, st.m2_b))
    for param, grad, m1, m2 in pairs:
        if param.shape != grad.shape or m1.shape != grad.shape or m2.shape != grad.shape:
            raise ValueError("gradient, machine and Adam state shapes do not match")
    st.t += 1
    bc1 = 1.0 - cfg.beta1**st.t
    bc2 = 1.0 - cfg.beta2**st.t
    scratch = np.empty((2, _CHUNK))
    for (param, grad, m1, m2), decay in zip(pairs, (2.0 * cfg.weight_decay, None)):
        for lo in range(0, grad.size, _CHUNK):
            c = slice(lo, lo + _CHUNK)
            p, gc, m1c, m2c = param[c], grad[c], m1[c], m2[c]
            a, b = scratch[:, : gc.size]
            if decay is None:
                a[...] = gc
            else:
                np.multiply(p, decay, out=a)
                a += gc
            m1c *= cfg.beta1
            np.multiply(a, 1.0 - cfg.beta1, out=b)
            m1c += b
            m2c *= cfg.beta2
            np.square(a, out=b)
            b *= 1.0 - cfg.beta2
            m2c += b
            np.divide(m2c, bc2, out=b)
            np.sqrt(b, out=b)
            b += cfg.adam_eps
            np.divide(m1c, bc1, out=a)
            a *= cfg.eta
            a /= b
            p -= a
