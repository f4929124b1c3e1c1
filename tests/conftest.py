import csv
import gzip
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from exact_oracles import dense_weights
from flowbm import sampling
from flowbm.model import BoltzmannMachine, LayerSpec
from flowbm.mpf import Z_CLAMP_DEFAULT, _flow_arrays
from flowbm.stdp import StdpPoint


def make_machine(n: int, seed: int, w_scale: float = 1.0, b_scale: float = 0.5) -> BoltzmannMachine:
    """Random fully-observed machine with O(1) weights for oracle tests."""
    rng = np.random.default_rng(seed)
    layout = LayerSpec((n,))
    w = rng.normal(0.0, w_scale, (n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return BoltzmannMachine.from_dense(layout, w, rng.normal(0.0, b_scale, n))


def make_layered_machine(sizes, intra, seed: int, w_scale: float = 0.7) -> BoltzmannMachine:
    rng = np.random.default_rng(seed)
    layout = LayerSpec(tuple(sizes), tuple(intra))
    n = layout.n
    w = rng.normal(0.0, w_scale, (n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return BoltzmannMachine.from_dense(layout, w, rng.normal(0.0, 0.3, n))


def zero_machine(layout: LayerSpec) -> BoltzmannMachine:
    return BoltzmannMachine(layout, np.zeros(layout.edges), np.zeros(layout.n))


def dense(m: BoltzmannMachine, flat: np.ndarray) -> np.ndarray:
    """(n, n) view of a vector laid out like `m.weights` (a gradient or moment)."""
    return dense_weights(BoltzmannMachine(m.layout, flat, m.biases))


def stored_edges(layout: LayerSpec) -> np.ndarray:
    """Boolean (n, n) pattern of the stored edges, without the diagonal."""
    pattern = dense(zero_machine(layout), np.ones(layout.edges)) != 0
    np.fill_diagonal(pattern, False)
    return pattern


def flow_row(m: BoltzmannMachine, y, clamp: float = Z_CLAMP_DEFAULT):
    """(alpha, z, delta) of the batched `mpf._flow_arrays` kernel for one state."""
    alpha, z, delta, _ = _flow_arrays(m, np.asarray(y, dtype=np.float64)[None, :], clamp)
    return alpha[0], z[0], delta[0]


def pinned_json(module: str, call: str):
    """`module.call` as JSON, run in a fresh interpreter on one
    OpenBLAS thread with OpenBLAS's Haswell kernels, which every x86-64 CPU
    with AVX2 runs.  OpenBLAS splits a product by its thread count and
    computes it with the kernels it picks for the CPU (SkylakeX on AVX-512
    CPUs), and both change the product's bits, so pins of library calls
    that multiply matrices are taken here."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    script = f"import json, {module}; print(json.dumps({module}.{call}))"
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)


@pytest.fixture
def drawn_widths(monkeypatch):
    """The width of every block that the samplers draw through
    `sampling.RowStreams.random`, in call order: one entry per layer
    update's draw and one per intra sweep."""
    widths = []
    draw = sampling.RowStreams.random

    def recording(streams, width):
        widths.append(width)
        return draw(streams, width)

    monkeypatch.setattr(sampling.RowStreams, "random", recording)
    return widths


@pytest.fixture
def refill_widths(monkeypatch):
    """The width of every refill of a `sampling.RowStreams` block, in call
    order: the uniforms per row that each refill draws."""
    widths = []
    refill = sampling.RowStreams._refill

    def recording(streams, width):
        widths.append(width)
        refill(streams, width)

    monkeypatch.setattr(sampling.RowStreams, "_refill", recording)
    return widths


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


def read_pgm(path) -> np.ndarray:
    """Pixels of a binary (P5) graymap as written by `images.write_pgm`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    parts = blob.split(b"\n", 3)
    if parts[0] != b"P5" or len(parts) < 4:
        raise ValueError("not a binary PGM file")
    cols, rows = (int(tok) for tok in parts[1].split())
    return np.frombuffer(parts[3], dtype=np.uint8, count=rows * cols).reshape(rows, cols)


def read_stdp_csv(path) -> list[StdpPoint]:
    """Points of a curve CSV as written by `stdp.emit_stdp_csv`."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["dt", "dw"]:
            raise ValueError(f"unexpected header {header!r}")
        return [StdpPoint(float(dt), float(dw)) for dt, dw in reader]


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
