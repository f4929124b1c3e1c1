"""Minimal PGM (portable graymap) output for visual inspection."""

from __future__ import annotations

import numpy as np


def to_grey(values: np.ndarray) -> np.ndarray:
    """Map [0, 1] floats (or bits) to uint8 grey levels."""
    arr = np.asarray(values, dtype=np.float64)
    return np.clip(np.round(arr * 255.0), 0, 255).astype(np.uint8)


def write_pgm(path, image: np.ndarray) -> None:
    """Binary (P5) graymap from a 2-D uint8 or [0, 1] float array."""
    img = np.asarray(image)
    if img.dtype != np.uint8:
        img = to_grey(img)
    if img.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {img.shape}")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    parts = blob.split(b"\n", 3)
    if parts[0] != b"P5" or len(parts) < 4:
        raise ValueError("not a binary PGM file")
    cols, rows = (int(tok) for tok in parts[1].split())
    return np.frombuffer(parts[3], dtype=np.uint8, count=rows * cols).reshape(rows, cols)


def tile_images(flat_rows: np.ndarray, columns: int = 10, pad: int = 2) -> np.ndarray:
    """Arrange flattened 28x28 images into one padded grid."""
    rows = np.atleast_2d(np.asarray(flat_rows, dtype=np.float64))
    count = rows.shape[0]
    side = int(np.sqrt(rows.shape[1]))
    if side * side != rows.shape[1]:
        raise ValueError(f"images of length {rows.shape[1]} are not square")
    columns = min(columns, count)
    grid_rows = (count + columns - 1) // columns
    height = grid_rows * (side + pad) + pad
    width = columns * (side + pad) + pad
    canvas = np.zeros((height, width))
    for idx in range(count):
        r, c = divmod(idx, columns)
        top = pad + r * (side + pad)
        left = pad + c * (side + pad)
        canvas[top : top + side, left : left + side] = rows[idx].reshape(side, side)
    return canvas
