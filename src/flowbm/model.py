"""Binary Boltzmann machines: layer layout, block-sparse weights, energy.

A machine over vertices V with symmetric weights w_ij (zero diagonal) and
biases b_i assigns each binary state vector s the energy

    Energy(s) = - sum_{ij in E} w_ij s_i s_j - sum_i b_i s_i

with every unordered edge counted once.  Layered machines connect
consecutive layers only, optionally adding intra-layer edges inside hidden
layers; a single-layer machine is fully observed with all-to-all edges.

Only those edges are stored, and the layout sizes every machine: the
weights are one flat vector of length `LayerSpec.edges`, the biases one of
`LayerSpec.n`.  The weights hold the blocks of `LayerSpec.blocks` back to
back in row-major order: each inter-layer block once, as (lower layer) x
(upper layer), and each intra-layer block as a symmetric square with a
zero diagonal.  Gradients and optimizer moments use the same vector, so
elementwise updates need no knowledge of the blocks; readers take 2-D
views with `BoltzmannMachine.block`.

Every layer's input, the local field z_j = b_j + sum_i w_ij s_i behind both
the flow rates of `mpf` and the Gibbs conditionals of `sampling`, is formed
by one kernel, `BoltzmannMachine.local_field`, with a term for each given row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from types import MappingProxyType

import numpy as np


def parse_number(text: str, kind: type[int] | type[float]) -> int | float:
    """`kind(text)` for `kind` int or float, with one spelling per number:
    `_`, a leading `+` and non-ASCII characters, which `int` and `float`
    accept, raise `ValueError`.  Surrounding spaces are allowed."""
    if "_" in text or text.strip().startswith("+") or not text.isascii():
        raise ValueError(f"{text!r} is not a plain {kind.__name__}")
    return kind(text)


@dataclass(frozen=True)
class LayerSpec:
    """Layer widths plus per-hidden-layer intra-connectivity flags.

    ``sizes[0]`` is the observed layer.  ``intra_layer`` has one flag per
    hidden layer; it is empty for a fully-observed machine, which instead
    uses all-to-all connectivity.

    The geometry is set once, outside the fields that ``==``, ``hash`` and
    ``repr`` read: ``slices``, each layer's range in the vertex vector;
    ``blocks``, each stored layer pair (a, b), a <= b, in storage order
    (blocks (a, a + 1) bottom-up, then (k, k) for each flagged hidden layer;
    (0, 0) alone if fully observed), mapped to its range in the weight
    vector; and ``edges``, that vector's length.
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
        bounds = list(accumulate(sizes, initial=0))
        pairs = [(a, a + 1) for a in range(len(sizes) - 1)] or [(0, 0)]
        pairs += [(k, k) for k, flag in enumerate(intra, start=1) if flag]
        ends = list(accumulate((sizes[a] * sizes[b] for a, b in pairs), initial=0))
        object.__setattr__(self, "slices", tuple(map(slice, bounds[:-1], bounds[1:])))
        object.__setattr__(self, "blocks", MappingProxyType(
            dict(zip(pairs, map(slice, ends[:-1], ends[1:])))))
        object.__setattr__(self, "edges", ends[-1])

    def __reduce__(self):
        # The mapping proxy cannot be pickled; rebuild from the fields.
        return (type(self), (self.sizes, self.intra_layer))

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @classmethod
    def from_strings(cls, layout: str, intra: str = "") -> "LayerSpec":
        """Parse CLI-style specs such as ``"784-196-196-64"`` / ``"1,1,1"``:
        one 0 or 1 per hidden layer, or ``""`` for no intra edges."""
        try:
            sizes = tuple(parse_number(tok, int) for tok in layout.split("-"))
        except ValueError:
            raise ValueError(f"bad layout string {layout!r}") from None
        n_hidden = len(sizes) - 1
        if not intra:
            flags = (False,) * n_hidden
        else:
            toks = intra.split(",")
            unknown = [tok for tok in toks if tok not in ("0", "1")]
            if unknown:
                raise ValueError(f"bad intra flag {unknown[0]!r} in {intra!r}; use 0 or 1")
            if len(toks) != n_hidden:
                raise ValueError(
                    f"intra flags {intra!r} do not match {n_hidden} hidden layers"
                )
            flags = tuple(tok == "1" for tok in toks)
        return cls(sizes, flags)

    def to_strings(self) -> tuple[str, str]:
        """Inverse of `from_strings`: ``("784-196", "1")``."""
        return (
            "-".join(str(s) for s in self.sizes),
            ",".join("1" if f else "0" for f in self.intra_layer),
        )


@dataclass(frozen=True)
class BoltzmannMachine:
    """Layout, flat block-sparse weights and biases, sized by the layout."""

    layout: LayerSpec
    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        expected = ((self.layout.edges,), (self.layout.n,))
        if (self.weights.shape, self.biases.shape) != expected:
            raise ValueError(f"weights and biases have shapes {self.weights.shape} and "
                             f"{self.biases.shape}; the layout needs {expected}")

    def block(self, a: int, b: int, flat: np.ndarray | None = None) -> np.ndarray:
        """2-D view of block (a, b) of `flat`, by default of the weights.

        `flat` may be any vector laid out like the weights, such as a
        gradient or an optimizer moment; writes to the view land in it.
        """
        span = self.layout.blocks.get((a, b))
        if span is None:
            raise ValueError(f"layers ({a}, {b}) share no stored block")
        vec = self.weights if flat is None else flat
        return vec[span].reshape(self.layout.sizes[a], self.layout.sizes[b])

    def local_field(self, layer: int, rows: list[np.ndarray | None]) -> np.ndarray:
        """Input b_j + sum_i w_ij s_i to each unit j of `layer`, one row per
        state, with a term for each given row: `rows[k]` is layer k's states
        or None, and entries past the end count as None.  The bias, then the
        layer below, the layer above and the layer itself where its square
        block is stored, each times the block joining it, add in that order."""
        count = next((r.shape[0] for r in rows if r is not None), None)
        if count is None:
            raise ValueError("local_field needs at least one row of states")
        z = np.repeat(self.biases[None, self.layout.slices[layer]], count, axis=0)
        below, own, above = (rows[k] if 0 <= k < len(rows) else None
                             for k in (layer - 1, layer, layer + 1))
        if below is not None:
            z += below @ self.block(layer - 1, layer)
        if above is not None:
            # The transpose is made row-major first, which keeps the BLAS
            # kernel and so the bits of a product with a row-major dense matrix.
            z += above @ np.ascontiguousarray(self.block(layer, layer + 1).T)
        if own is not None and (layer, layer) in self.layout.blocks:
            z += own @ self.block(layer, layer)
        return z

    @classmethod
    def from_dense(cls, layout: LayerSpec, w: np.ndarray, biases) -> "BoltzmannMachine":
        """Machine holding the stored blocks of an (n, n) matrix."""
        sl = layout.slices
        flat = np.concatenate([w[sl[a], sl[b]].ravel() for a, b in layout.blocks])
        return cls(layout, flat.astype(np.float64), np.array(biases, dtype=np.float64))


def new_machine(layout: LayerSpec, seed: int, init_scale: float = 0.01) -> BoltzmannMachine:
    """Fresh machine: uniform(-init_scale, init_scale) weights, zero biases.

    An (n, n) matrix is drawn i.i.d., symmetrized and its diagonal zeroed;
    the stored blocks are taken from it, so all structural invariants hold
    by construction.
    """
    if not (math.isfinite(init_scale) and init_scale > 0):
        raise ValueError(f"init_scale must be positive and finite, got {init_scale}")
    n = layout.n
    rng = np.random.default_rng(np.random.SeedSequence(int(seed) & (2**64 - 1)))
    w = rng.uniform(-init_scale, init_scale, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return BoltzmannMachine.from_dense(layout, w, np.zeros(n))


def validate(m: BoltzmannMachine) -> list[tuple]:
    """Full-scan structural check; returns every violation with vertex indices.

    Kinds: ("nonfinite_weight", i, j) once per stored entry; ("nonfinite_bias",
    i); ("asymmetric", i, j) with i < j and ("diagonal", i) inside intra
    blocks.  The lengths were checked when the machine was built.
    """
    violations: list[tuple] = []
    sl = m.layout.slices
    for a, b in m.layout.blocks:
        w = m.block(a, b)
        ra, rb = sl[a].start, sl[b].start
        for i, j in np.argwhere(~np.isfinite(w)):
            violations.append(("nonfinite_weight", ra + int(i), rb + int(j)))
        if a == b:
            for i, j in np.argwhere(w != w.T):
                if i < j:
                    violations.append(("asymmetric", ra + int(i), ra + int(j)))
            for i in np.flatnonzero(np.diagonal(w) != 0.0):
                violations.append(("diagonal", ra + int(i)))
    for i in np.flatnonzero(~np.isfinite(m.biases)):
        violations.append(("nonfinite_bias", int(i)))
    return violations
