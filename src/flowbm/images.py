"""Files that generate and reconstruct write for people and tools to read:
binary PGM image grids (`write_pgm`, `tile_images`) and generate's
probabilities.csv (`write_csv`).

`write_csv` writes exactly the bytes of `np.savetxt(fh, values, fmt="%.8f",
delimiter=",")`: one line per row, each value `%.8f`, comma-separated and
`\\n`-terminated.  It encodes blocks of rows as whole arrays: a value `x`
with `0 <= x < 10` and a clear sign bit has `n = rint(x * 1e8)`, and unless
`x * 1e8` lies within 1e-6 of a tie (its rounding error is below 2**-23)
`n` is the integer that `%.8f` prints, so its digits come from a table of
4-digit groups.  A row holding any other value (a near-tie, -0.0, a
negative, 10 or more, NaN, +-inf) is formatted value by value with `%`, as
savetxt formats it.
"""

from __future__ import annotations

import math

import numpy as np

from . import checkpoint

PAD = 2  # pixels between and around the images of a grid

# One %.8f value of [0, 10) and its separator: digit, point, two 4-digit
# groups, comma (newline after a row's last value); 11 bytes, unaligned.
_CELL = np.dtype([("digit", "u1"), ("point", "u1"), ("high", "u4"), ("low", "u4"),
                  ("sep", "u1")])
_GROUPS = (np.arange(10_000)[:, None] // (1000, 100, 10, 1) % 10
           + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_TIE_MARGIN = 0.5 - 1e-6
_BLOCK_VALUES = 16_384  # per block: 180 kB of text, under 1 MB of temporaries


def to_grey(values: np.ndarray) -> np.ndarray:
    """Map [0, 1] floats (or bits) to uint8 grey levels; `ValueError` on
    any other value, NaN and infinities included."""
    arr = np.asarray(values, dtype=np.float64)
    if not ((arr >= 0.0) & (arr <= 1.0)).all():  # NaN fails both
        raise ValueError("grey levels need values in [0, 1]")
    return np.round(arr * 255.0).astype(np.uint8)


def write_pgm(path, image: np.ndarray) -> None:
    """Binary (P5) graymap from a 2-D uint8 or [0, 1] float array, written
    through `checkpoint.replacing`."""
    img = np.asarray(image)
    if img.dtype != np.uint8:
        img = to_grey(img)
    if img.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {img.shape}")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    with checkpoint.replacing(path) as fh:
        fh.write(header)
        fh.write(img.tobytes())


def write_csv(fh, values: np.ndarray) -> None:
    """Write the rows of the 2-D array `values` to the binary stream `fh`
    byte for byte as `np.savetxt(fh, values, fmt="%.8f", delimiter=",")`,
    one block of rows at a time so that memory stays bounded."""
    values = np.asarray(values, dtype=np.float64)
    rows, cols = values.shape
    block = max(1, _BLOCK_VALUES // cols)
    cells = np.empty((min(block, rows), cols), _CELL)
    cells["point"] = ord(".")
    cells["sep"] = ord(",")
    cells["sep"][:, -1] = ord("\n")
    for start in range(0, rows, block):
        x = values[start : start + block]
        out = cells[: len(x)]
        fast = (x < 10) & ~np.signbit(x)  # False for NaN, -0.0 and -inf too
        scaled = np.where(fast, x, 0.0) * 1e8
        n = np.rint(scaled)
        fast &= (np.abs(scaled - n) < _TIE_MARGIN) & (n < 1e9)
        n = n.astype(np.uint32)
        high = n // 10_000
        out["low"] = _GROUPS[n - high * 10_000]
        digit = high // 10_000
        out["high"] = _GROUPS[high - digit * 10_000]
        out["digit"] = digit + ord("0")
        done = 0
        for i in np.flatnonzero(~fast.all(axis=1)):
            fh.write(out[done:i])
            fh.write((",".join(["%.8f" % v for v in x[i]]) + "\n").encode("ascii"))
            done = i + 1
        fh.write(out[done:])


def square_side(length: int) -> int:
    """The side of a square image of `length` pixels, at least one;
    ValueError if none."""
    side = math.isqrt(max(length, 0))
    if length < 1 or side * side != length:
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
