"""Output checks for flowbm commands.

A failed check raises `CheckFailed`; the benchmark counts the command as
failed.  The checks that read whole checkpoints run in a separate checker
process (see run.py), so their buffers do not show in the measuring
process's peak memory.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import struct
from pathlib import Path

IMAGE_PIXELS = 784


class CheckFailed(Exception):
    """A command exited nonzero or its outputs failed a check."""


def finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise CheckFailed(f"{what} is not finite: {value}")
    return value


def epochs_csv(path: Path) -> float:
    """Every epoch objective is finite; returns the last one."""
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",") if lines else []
    if len(lines) < 2 or "objective_value" not in header:
        raise CheckFailed(f"{path} has no epoch rows")
    col = header.index("objective_value")
    values = [finite(float(line.split(",")[col]), f"{path} objective") for line in lines[1:]]
    return values[-1]


def checkpoint_file(path: Path, same_as: Path | None = None) -> tuple[int, str]:
    """The checkpoint loads, validates clean and re-serializes to its own bytes.

    With `same_as`, it must also equal that file byte for byte.  Returns the
    size and SHA-256 of the file.
    """
    from flowbm import checkpoint, model

    blob = path.read_bytes()
    try:
        ck = checkpoint.deserialize(blob)
    except (checkpoint.CheckpointError, struct.error, ValueError) as exc:
        raise CheckFailed(f"{path}: {exc}") from None
    violations = model.validate(ck.machine())
    if violations:
        raise CheckFailed(f"{path}: validate() found {violations[:3]}")
    if checkpoint.serialize(ck) != blob:
        raise CheckFailed(f"{path}: re-serializing changed the bytes")
    if same_as is not None and same_as.read_bytes() != blob:
        raise CheckFailed(f"{path} differs from {same_as}")
    return len(blob), hashlib.sha256(blob).hexdigest()


def probabilities_csv(path: Path, count: int) -> None:
    """(count, 784) finite values in [0, 1]."""
    import numpy as np

    probs = np.loadtxt(path, delimiter=",", ndmin=2)
    if probs.shape != (count, IMAGE_PIXELS):
        raise CheckFailed(f"{path} has shape {probs.shape}, expected ({count}, {IMAGE_PIXELS})")
    if not (np.isfinite(probs).all() and probs.min() >= 0.0 and probs.max() <= 1.0):
        raise CheckFailed(f"{path} has values outside [0, 1]")


def recon_csv(path: Path) -> float:
    """Four finite pattern rows; returns their mean L1 error."""
    rows = path.read_text(encoding="utf-8").strip().splitlines()[1:]
    errors = [finite(float(row.split(",")[1]), f"{path} error") for row in rows]
    if len(errors) != 4:
        raise CheckFailed(f"{path} has {len(errors)} rows, expected 4")
    return statistics.fmean(errors)


def parzen_line(stdout: str) -> float:
    """The finite log-likelihood from eval-ll's `parzen_ll ...` line."""
    for line in stdout.splitlines():
        if line.startswith("parzen_ll "):
            return finite(float(line.split()[1]), "parzen_ll")
    raise CheckFailed("eval-ll printed no parzen_ll line")
