"""Seeded synthetic 28x28 binary images written as IDX files.

Each image is one of ten fixed stroke templates, shifted by up to two
pixels and with bits flipped, so about 14% of pixels are on (binarized
MNIST has about 13%) and the images carry spatial structure:
reconstruction and Parzen estimates then measure something other than
pure noise.  The seed picks the images, not the templates.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

SIDE = 28
TEMPLATES = 10
TEMPLATE_SEED = 0x5EED
TARGET_DENSITY = 0.13
SHIFT = 2
FLIP_ON = 0.08  # chance that a template pixel is dropped
FLIP_OFF = 0.01  # chance that a background pixel is switched on


def _template(rng: np.random.Generator) -> np.ndarray:
    """Thick random-walk strokes inside the central 20x20 box."""
    img = np.zeros((SIDE, SIDE), dtype=bool)
    lo, hi = 4, SIDE - 6
    while img.mean() < TARGET_DENSITY:
        y, x = rng.uniform(lo, hi, size=2)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        for _ in range(int(rng.integers(8, 16))):
            angle += rng.normal(0.0, 0.5)
            y = float(np.clip(y + np.sin(angle), lo, hi))
            x = float(np.clip(x + np.cos(angle), lo, hi))
            img[int(y) : int(y) + 2, int(x) : int(x) + 2] = True
    return img


def make_images(seed: int, split: int, count: int) -> np.ndarray:
    """(count, 28, 28) uint8 pixels, 255 on and 0 off.

    The templates are fixed, so every seed draws from the same image
    distribution; the images depend on (seed, split), so the training split
    does not change with the size of the test split.
    """
    rng = np.random.default_rng(np.random.SeedSequence([TEMPLATE_SEED]))
    templates = [_template(rng) for _ in range(TEMPLATES)]
    rng = np.random.default_rng(np.random.SeedSequence([seed, split]))
    which = rng.integers(0, TEMPLATES, size=count)
    shifts = rng.integers(-SHIFT, SHIFT + 1, size=(count, 2))
    out = np.empty((count, SIDE, SIDE), dtype=bool)
    for i in range(count):
        out[i] = np.roll(templates[which[i]], tuple(shifts[i]), axis=(0, 1))
    u = rng.random(out.shape)
    out = np.where(out, u >= FLIP_ON, u < FLIP_OFF)
    return out.astype(np.uint8) * 255


def write_idx(path: Path, images: np.ndarray) -> None:
    count, rows, cols = images.shape
    path.write_bytes(struct.pack(">IIII", 0x803, count, rows, cols) + images.tobytes())


def write_dataset(directory: Path, seed: int, train: int, test: int) -> dict:
    """Write train.idx and test.idx; returns their paths and measured density."""
    directory.mkdir(parents=True, exist_ok=True)
    out, on = {}, 0
    for split, (name, count) in enumerate((("train", train), ("test", test))):
        images = make_images(seed, split, count)
        out[name] = directory / f"{name}.idx"
        write_idx(out[name], images)
        on += int(np.count_nonzero(images))
    out["density"] = on / ((train + test) * SIDE * SIDE)
    return out
