"""IDX-format image ingestion and binarization.

Handles the standard big-endian IDX containers used by MNIST and Fashion
MNIST, transparently decompressing gzip files.  Pixels are scaled to
[0, 1] and thresholded to bits.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX container (bad magic, truncation, count mismatch)."""


@dataclass
class Dataset:
    """Binarized flat images with provenance."""

    images: np.ndarray  # (N, pixels) uint8 bits
    labels: np.ndarray | None
    source: str
    threshold: float

    def __post_init__(self):
        # Zero-row datasets (an IDX file with a count of 0) are allowed
        # here; every consumer that needs examples rejects them.
        if self.images.ndim != 2:
            raise ValueError("dataset images must be a (N, pixels) matrix")
        if not np.isin(self.images, (0, 1)).all():
            raise ValueError("dataset images must be binary")
        if self.labels is not None and len(self.labels) != len(self.images):
            raise ValueError("label count does not match image count")

    def __len__(self) -> int:
        return self.images.shape[0]

    def take(self, indices) -> "Dataset":
        labels = None if self.labels is None else self.labels[indices]
        return Dataset(self.images[indices], labels, self.source, self.threshold)


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        head = fh.read(2)
        fh.seek(0)
        if head == b"\x1f\x8b":
            with gzip.open(fh) as gz:
                return gz.read()
        return fh.read()


def _be32(buf: bytes, offset: int, path) -> int:
    if offset + 4 > len(buf):
        raise IdxFormatError(f"{path}: truncated header at byte {offset}")
    return struct.unpack_from(">I", buf, offset)[0]


def _load_images(path) -> np.ndarray:
    buf = _read_bytes(path)
    magic = _be32(buf, 0, path)
    if magic != IMAGE_MAGIC:
        raise IdxFormatError(
            f"{path}: expected image magic 0x{IMAGE_MAGIC:08x}, found 0x{magic:08x}"
        )
    count, rows, cols = (_be32(buf, o, path) for o in (4, 8, 12))
    expected = 16 + count * rows * cols
    if len(buf) != expected:
        raise IdxFormatError(
            f"{path}: payload is {len(buf)} bytes, expected {expected} "
            f"for {count} images of {rows}x{cols}"
        )
    return np.frombuffer(buf, dtype=np.uint8, offset=16).reshape(count, rows, cols).copy()


def _load_labels(path) -> np.ndarray:
    buf = _read_bytes(path)
    magic = _be32(buf, 0, path)
    if magic != LABEL_MAGIC:
        raise IdxFormatError(
            f"{path}: expected label magic 0x{LABEL_MAGIC:08x}, found 0x{magic:08x}"
        )
    count = _be32(buf, 4, path)
    expected = 8 + count
    if len(buf) != expected:
        raise IdxFormatError(f"{path}: payload is {len(buf)} bytes, expected {expected}")
    return np.frombuffer(buf, dtype=np.uint8, offset=8).copy()


def load_idx(images_path, labels_path=None) -> tuple[np.ndarray, np.ndarray | None]:
    """Parse IDX images (N, rows, cols) and optional labels (N,)."""
    images = _load_images(images_path)
    labels = None
    if labels_path is not None:
        labels = _load_labels(labels_path)
        if len(labels) != len(images):
            raise IdxFormatError(
                f"{labels_path}: {len(labels)} labels for {len(images)} images"
            )
    return images, labels


def binarize(raw, threshold: float = 0.5, labels=None, source: str = "") -> Dataset:
    """Threshold byte images: bit = 1 iff pixel/255 > threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    raw = np.asarray(raw)
    flat = raw.reshape(raw.shape[0], -1)
    bits = (flat.astype(np.float64) / 255.0 > threshold).astype(np.uint8)
    return Dataset(bits, labels, source, threshold)


def load_binary_dataset(images_path, labels_path=None, threshold: float = 0.5) -> Dataset:
    images, labels = load_idx(images_path, labels_path)
    return binarize(images, threshold, labels=labels, source=str(images_path))
