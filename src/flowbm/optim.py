"""Adam with weight decay, preserving the machine's structural invariants."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .model import BoltzmannMachine, active_blocks
from .mpf import Gradient


@dataclass
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
    clamp_z: float = 30.0

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if self.minibatch < 1:
            raise ValueError(f"minibatch must be at least 1, got {self.minibatch}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")

    def replace(self, **kwargs) -> "TrainConfig":
        return dataclasses.replace(self, **kwargs)

    def to_text(self) -> str:
        lines = [f"{f.name} = {getattr(self, f.name)!r}" for f in dataclasses.fields(self)]
        return "\n".join(lines) + "\n"


# Accepted aliases in config files and CLI overrides.
_CONFIG_ALIASES = {"lambda": "weight_decay", "lr": "eta", "learning_rate": "eta"}


def parse_config_items(items: dict[str, str], base: TrainConfig | None = None) -> TrainConfig:
    """Build a TrainConfig from string key/value pairs over `base` defaults."""
    base = base or TrainConfig()
    fields = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    updates = {}
    for raw_key, raw_value in items.items():
        key = _CONFIG_ALIASES.get(raw_key, raw_key)
        if key not in fields:
            raise ValueError(f"unknown config key {raw_key!r}")
        kind = fields[key]
        value = raw_value.strip()
        updates[key] = int(value) if kind in (int, "int") else float(value)
    return base.replace(**updates)


def parse_config_text(
    text: str, base: TrainConfig | None = None, source: str = "config"
) -> TrainConfig:
    """Build a TrainConfig from key = value lines (# starts a comment)."""
    items = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected key = value, got {line!r}")
        key, value = line.split("=", 1)
        items[key.strip()] = value.strip()
    return parse_config_items(items, base)


def load_config(path, base: TrainConfig | None = None) -> TrainConfig:
    """Read a plain-text key=value config file (# starts a comment)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base, str(path))


@dataclass
class AdamState:
    """First/second moment accumulators for both parameter groups."""

    m1_w: np.ndarray
    m2_w: np.ndarray
    m1_b: np.ndarray
    m2_b: np.ndarray
    t: int = 0

    def copy(self) -> "AdamState":
        return AdamState(
            self.m1_w.copy(), self.m2_w.copy(), self.m1_b.copy(), self.m2_b.copy(), self.t
        )


def init_adam(m: BoltzmannMachine) -> AdamState:
    n = m.n
    return AdamState(np.zeros((n, n)), np.zeros((n, n)), np.zeros(n), np.zeros(n), 0)


def reset(st: AdamState) -> AdamState:
    """Zeroed accumulators of the same shapes, t = 0."""
    return AdamState(
        np.zeros_like(st.m1_w),
        np.zeros_like(st.m2_w),
        np.zeros_like(st.m1_b),
        np.zeros_like(st.m2_b),
        0,
    )


def step(
    m: BoltzmannMachine, g: Gradient, st: AdamState, cfg: TrainConfig
) -> tuple[BoltzmannMachine, AdamState]:
    """One descent step on the objective; mutates machine and state in place.

    The weight-decay term 2*lambda*w is added to the raw weight gradient
    (biases are not decayed) before the Adam moments, and the weights are
    re-symmetrized, diagonal-zeroed and re-masked afterwards so that
    floating-point drift cannot accumulate.
    """
    if g.d_weights.shape != m.weights.shape or g.d_biases.shape != m.biases.shape:
        raise ValueError("gradient shapes do not match the machine")
    st.t += 1
    bc1 = 1.0 - cfg.beta1**st.t
    bc2 = 1.0 - cfg.beta2**st.t

    def adam_update(param, grad, m1, m2):
        m1 *= cfg.beta1
        m1 += (1.0 - cfg.beta1) * grad
        m2 *= cfg.beta2
        m2 += (1.0 - cfg.beta2) * grad**2
        param -= cfg.eta * (m1 / bc1) / (np.sqrt(m2 / bc2) + cfg.adam_eps)

    # Only stored-edge blocks carry gradient or decay; entries outside them
    # are pinned at zero by the mask, so the update touches blocks only.
    for sa, sb in active_blocks(m.layout):
        gw = g.d_weights[sa, sb] + 2.0 * cfg.weight_decay * m.weights[sa, sb]
        adam_update(m.weights[sa, sb], gw, st.m1_w[sa, sb], st.m2_w[sa, sb])
        if sa == sb:
            # Symmetric gradients keep the square block symmetric; the
            # explicit re-symmetrization absorbs any floating-point drift.
            block = m.weights[sa, sa]
            block += block.T
            block *= 0.5
            np.fill_diagonal(block, 0.0)
        else:
            m.weights[sb, sa] = m.weights[sa, sb].T
            st.m1_w[sb, sa] = st.m1_w[sa, sb].T
            st.m2_w[sb, sa] = st.m2_w[sa, sb].T

    adam_update(m.biases, g.d_biases, st.m1_b, st.m2_b)
    m.weights[~m.mask] = 0.0
    return m, st
