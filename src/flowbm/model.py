"""Binary Boltzmann machines: layer layout, connectivity masks, energy.

A machine over vertices V with symmetric weights w_ij (zero diagonal) and
biases b_i assigns each binary state vector s the energy

    Energy(s) = - sum_{ij in E} w_ij s_i s_j - sum_i b_i s_i

with every unordered edge counted once.  Layered machines connect
consecutive layers only, optionally adding intra-layer edges inside hidden
layers; a single-layer machine is fully observed with all-to-all edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LayerSpec:
    """Layer widths plus per-hidden-layer intra-connectivity flags.

    ``sizes[0]`` is the observed layer.  ``intra_layer`` has one flag per
    hidden layer; it is empty for a fully-observed machine, which instead
    uses all-to-all connectivity.
    """

    sizes: tuple[int, ...]
    intra_layer: tuple[bool, ...] = ()

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        intra = tuple(bool(f) for f in self.intra_layer)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "intra_layer", intra)
        if len(sizes) == 0:
            raise ValueError("layout needs at least one layer")
        if any(s < 1 for s in sizes):
            raise ValueError(f"layer widths must be positive, got {sizes}")
        if len(intra) != len(sizes) - 1:
            raise ValueError(
                f"intra_layer needs one flag per hidden layer "
                f"({len(sizes) - 1}), got {len(intra)}"
            )

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def num_hidden_layers(self) -> int:
        return len(self.sizes) - 1

    def slices(self) -> list[slice]:
        """Index range of each layer inside the flat vertex vector."""
        offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        return [slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:])]

    def has_intra(self, layer: int) -> bool:
        """True if hidden layer ``layer`` (1-based) has intra-layer edges."""
        if layer < 1 or layer > self.num_hidden_layers:
            return False
        return self.intra_layer[layer - 1]

    @classmethod
    def from_strings(cls, layout: str, intra: str = "") -> "LayerSpec":
        """Parse CLI-style specs such as ``"784-196-196-64"`` / ``"1,1,1"``."""
        try:
            sizes = tuple(int(tok) for tok in layout.split("-"))
        except ValueError:
            raise ValueError(f"bad layout string {layout!r}") from None
        n_hidden = len(sizes) - 1
        if not intra:
            flags = (False,) * n_hidden
        else:
            toks = [tok.strip() for tok in intra.split(",")]
            if len(toks) == 1 and n_hidden > 1:
                toks = toks * n_hidden
            if len(toks) != n_hidden:
                raise ValueError(
                    f"intra flags {intra!r} do not match {n_hidden} hidden layers"
                )
            flags = tuple(tok in ("1", "true", "yes") for tok in toks)
        return cls(sizes, flags)


def active_blocks(layout: LayerSpec) -> list[tuple[slice, slice]]:
    """Upper-triangular blocks covering every allowed edge exactly once.

    Consecutive-layer blocks (a, b) with a below b, plus the square intra
    block of each flagged hidden layer; a fully-observed machine is one
    square block.  The union of these blocks (and their mirrors) equals the
    mask, which lets hot paths touch only stored edges.
    """
    sl = layout.slices()
    if len(layout.sizes) == 1:
        return [(sl[0], sl[0])]
    blocks: list[tuple[slice, slice]] = [
        (sl[i], sl[i + 1]) for i in range(len(sl) - 1)
    ]
    blocks += [(sl[k], sl[k]) for k in range(1, len(sl)) if layout.has_intra(k)]
    return blocks


def build_mask(layout: LayerSpec) -> np.ndarray:
    """Boolean adjacency of allowed edges: `active_blocks` and their mirrors."""
    mask = np.zeros((layout.n, layout.n), dtype=bool)
    for sa, sb in active_blocks(layout):
        mask[sa, sb] = True
        mask[sb, sa] = True
    np.fill_diagonal(mask, False)
    return mask


@dataclass
class BoltzmannMachine:
    """Dense symmetric parameterization with an explicit edge mask."""

    layout: LayerSpec
    weights: np.ndarray
    biases: np.ndarray
    mask: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.biases.shape[0]

    def copy(self) -> "BoltzmannMachine":
        return BoltzmannMachine(
            self.layout, self.weights.copy(), self.biases.copy(), self.mask.copy()
        )


def new_machine(layout: LayerSpec, seed: int, init_scale: float = 0.01) -> BoltzmannMachine:
    """Fresh machine: masked uniform(-init_scale, init_scale) weights, zero biases.

    Weights are drawn i.i.d. and then symmetrized, so all structural
    invariants hold by construction.
    """
    if init_scale <= 0:
        raise ValueError(f"init_scale must be positive, got {init_scale}")
    n = layout.n
    rng = np.random.default_rng(np.random.SeedSequence(int(seed) & (2**64 - 1)))
    w = rng.uniform(-init_scale, init_scale, size=(n, n))
    w = (w + w.T) / 2.0
    mask = build_mask(layout)
    w[~mask] = 0.0
    np.fill_diagonal(w, 0.0)
    return BoltzmannMachine(layout, w, np.zeros(n), mask)


def energy(m: BoltzmannMachine, s: np.ndarray) -> float:
    """Energy of one state: ``-1/2 s^T W s - b^T s`` (W symmetric, zero diag)."""
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (m.n,):
        raise ValueError(f"state has shape {s.shape}, expected ({m.n},)")
    return float(-0.5 * s @ m.weights @ s - m.biases @ s)


def validate(m: BoltzmannMachine) -> list[tuple]:
    """Full-scan structural check; returns every violation with indices."""
    violations: list[tuple] = []
    w, mask = m.weights, m.mask
    if w.shape != (m.n, m.n) or mask.shape != (m.n, m.n):
        violations.append(("shape", w.shape, mask.shape))
        return violations
    for i, j in np.argwhere(w != w.T):
        if i < j:
            violations.append(("asymmetric", int(i), int(j)))
    for i in np.flatnonzero(np.diagonal(w) != 0.0):
        violations.append(("diagonal", int(i)))
    for i, j in np.argwhere((~mask) & (w != 0.0)):
        if i != j:  # diagonal breaches already reported above
            violations.append(("masked_nonzero", int(i), int(j)))
    for i, j in np.argwhere(mask != mask.T):
        if i < j:
            violations.append(("mask_asymmetric", int(i), int(j)))
    for i in np.flatnonzero(np.diagonal(mask)):
        violations.append(("mask_diagonal", int(i)))
    expected = build_mask(m.layout)
    for i, j in np.argwhere(mask & ~expected):
        if i < j:
            violations.append(("mask_extra_edge", int(i), int(j)))
    return violations
