"""IDX-format image ingestion and binarization.

Handles the standard big-endian IDX containers used by MNIST and Fashion
MNIST, transparently decompressing gzip files.  This module owns every
check on input images: `load_idx` rejects bad magic, truncation, an image
file with no images and a label count that differs from the image count,
and `binarize` returns a (N, pixels) uint8 matrix of bits (pixel/255 >
threshold).  That bit matrix is the data type every trainer and sampler
takes.
"""

from __future__ import annotations

import gzip
import struct

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX container (bad magic, truncation, count mismatch)."""


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
    if count == 0:
        raise IdxFormatError(f"{path}: the file holds no images")
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


def binarize(raw, threshold: float = 0.5) -> np.ndarray:
    """Threshold byte images to a (N, pixels) uint8 bit matrix:
    bit = 1 iff pixel/255 > threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    raw = np.asarray(raw)
    flat = raw.reshape(raw.shape[0], -1)
    return (flat.astype(np.float64) / 255.0 > threshold).astype(np.uint8)


def load_binary_dataset(images_path, labels_path=None, threshold: float = 0.5) -> np.ndarray:
    """The images of an IDX file as bits; a labels file, if given, is only checked."""
    images, _ = load_idx(images_path, labels_path)
    return binarize(images, threshold)
