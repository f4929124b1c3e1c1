"""Minimal PGM (portable graymap) output for visual inspection."""

from __future__ import annotations

import math

import numpy as np

PAD = 2  # pixels between and around the images of a grid


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


def square_side(length: int) -> int:
    """The side of a square image of `length` pixels; ValueError if none."""
    side = math.isqrt(length)
    if side * side != length:
        raise ValueError(f"images of length {length} are not square")
    return side


def tile_images(flat_rows: np.ndarray, columns: int = 10) -> np.ndarray:
    """Arrange flattened 28x28 images into one padded grid."""
    rows = np.atleast_2d(np.asarray(flat_rows, dtype=np.float64))
    count = rows.shape[0]
    side = square_side(rows.shape[1])
    columns = min(columns, count)
    grid_rows = (count + columns - 1) // columns
    height = grid_rows * (side + PAD) + PAD
    width = columns * (side + PAD) + PAD
    canvas = np.zeros((height, width))
    for idx in range(count):
        r, c = divmod(idx, columns)
        top = PAD + r * (side + PAD)
        left = PAD + c * (side + PAD)
        canvas[top : top + side, left : left + side] = rows[idx].reshape(side, side)
    return canvas
