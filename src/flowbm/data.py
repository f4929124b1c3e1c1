"""IDX-format image ingestion and binarization.

Handles the big-endian IDX image files of MNIST and Fashion MNIST,
transparently decompressing gzip files; label files are not read.  This
module owns every check on input images: `load_idx` rejects bad magic,
truncation, a file with no images and images with no pixels, and
`binarize` returns a (N, pixels) uint8 matrix of bits (pixel/255 >
threshold).  That bit matrix is the data type every trainer and sampler
takes.
"""

from __future__ import annotations

import gzip
import struct
import zlib

import numpy as np

IMAGE_MAGIC = 0x00000803


class IdxFormatError(ValueError):
    """Malformed IDX container (bad magic, truncation, no images or pixels,
    bad gzip)."""


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        head = fh.read(2)
        fh.seek(0)
        if head != b"\x1f\x8b":
            return fh.read()
        try:
            with gzip.open(fh) as gz:
                return gz.read()
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise IdxFormatError(f"{path}: truncated or corrupt gzip data: {exc}") from None


def _be32(buf: bytes, offset: int, path) -> int:
    if offset + 4 > len(buf):
        raise IdxFormatError(f"{path}: truncated header at byte {offset}")
    return struct.unpack_from(">I", buf, offset)[0]


def load_idx(path) -> np.ndarray:
    """Parse IDX images as a (N, rows, cols) uint8 array."""
    buf = _read_bytes(path)
    magic = _be32(buf, 0, path)
    if magic != IMAGE_MAGIC:
        raise IdxFormatError(
            f"{path}: expected image magic 0x{IMAGE_MAGIC:08x}, found 0x{magic:08x}"
        )
    count, rows, cols = (_be32(buf, o, path) for o in (4, 8, 12))
    if count == 0:
        raise IdxFormatError(f"{path}: the file holds no images")
    if rows == 0 or cols == 0:
        raise IdxFormatError(f"{path}: its images of {rows}x{cols} hold no pixels")
    expected = 16 + count * rows * cols
    if len(buf) != expected:
        raise IdxFormatError(
            f"{path}: payload is {len(buf)} bytes, expected {expected} "
            f"for {count} images of {rows}x{cols}"
        )
    return np.frombuffer(buf, dtype=np.uint8, offset=16).reshape(count, rows, cols).copy()


def binarize(raw, threshold: float = 0.5) -> np.ndarray:
    """Threshold uint8 images to a (N, pixels) uint8 bit matrix:
    bit = 1 iff pixel/255 > threshold.

    Each pixel indexes a table of that comparison for the 256 byte values,
    so no float copy of the images is made.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    raw = np.asarray(raw)
    if raw.dtype != np.uint8:
        raise ValueError(f"images must be uint8 bytes, got {raw.dtype}")
    table = (np.arange(256) / 255.0 > threshold).astype(np.uint8)
    return table[raw.reshape(raw.shape[0], -1)]


def load_binary_dataset(path, threshold: float = 0.5) -> np.ndarray:
    """The images of an IDX file as bits."""
    return binarize(load_idx(path), threshold)
