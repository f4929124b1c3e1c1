import gzip
import struct
from pathlib import Path

import numpy as np
import pytest

from flowbm.model import BoltzmannMachine, LayerSpec, build_mask
from flowbm.sampling import RngStream


def make_machine(n: int, seed: int, w_scale: float = 1.0, b_scale: float = 0.5) -> BoltzmannMachine:
    """Random fully-observed machine with O(1) weights for oracle tests."""
    rng = np.random.default_rng(seed)
    layout = LayerSpec((n,))
    w = rng.normal(0.0, w_scale, (n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return BoltzmannMachine(layout, w, rng.normal(0.0, b_scale, n), build_mask(layout))


def make_layered_machine(sizes, intra, seed: int, w_scale: float = 0.7) -> BoltzmannMachine:
    rng = np.random.default_rng(seed)
    layout = LayerSpec(tuple(sizes), tuple(intra))
    n = layout.n
    w = rng.normal(0.0, w_scale, (n, n))
    w = (w + w.T) / 2.0
    mask = build_mask(layout)
    w[~mask] = 0.0
    np.fill_diagonal(w, 0.0)
    return BoltzmannMachine(layout, w, rng.normal(0.0, 0.3, n), mask)


class CountingStream(RngStream):
    """RngStream that tallies how many layer-update draws it serves."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def uniforms(self, n):
        self.calls += 1
        return super().uniforms(n)


def random_bits(rng, shape, p: float = 0.5) -> np.ndarray:
    return (rng.random(shape) < p).astype(np.uint8)


def neighbor_disjoint_data(rng, n: int, count: int) -> np.ndarray:
    """Random binary data where no two points differ in exactly one bit."""
    rows = []
    while len(rows) < count:
        cand = random_bits(rng, n)
        if all(np.abs(cand.astype(int) - r.astype(int)).sum() != 1 for r in rows):
            rows.append(cand)
    return np.array(rows, dtype=np.uint8)


def write_idx_images(path, images: np.ndarray, gz: bool = False) -> None:
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    blob = struct.pack(">IIII", 0x803, n, rows, cols) + images.tobytes()
    if gz:
        blob = gzip.compress(blob)
    Path(path).write_bytes(blob)


def write_idx_labels(path, labels, gz: bool = False) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    blob = struct.pack(">II", 0x801, len(labels)) + labels.tobytes()
    if gz:
        blob = gzip.compress(blob)
    Path(path).write_bytes(blob)


@pytest.fixture
def synthetic_idx(tmp_path):
    """Small synthetic IDX image/label pair on disk."""
    rng = np.random.default_rng(1234)
    images = (rng.random((120, 28, 28)) * 255).astype(np.uint8)
    labels = rng.integers(0, 10, 120).astype(np.uint8)
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    write_idx_images(img_path, images)
    write_idx_labels(lab_path, labels)
    return img_path, lab_path, images, labels
