"""Binary checkpoint container with bit-exact round-trips.

Format version 3, one file, all integers and IEEE-754 doubles
little-endian:

    magic "FLOWBMCK"        8 bytes
    format version          u32 = 3
    layer count L, sizes    u32, L x u32
    intra flag count F      u32, F x u8 (one per hidden layer)
    epoch                   u64
    config text             u64 byte length, UTF-8 key = value lines
    vertex count n          u32
    weights                 array of E doubles
    biases                  array of n doubles
    Adam step t             u64
    m1_w, m2_w              arrays of E doubles
    m1_b, m2_b              arrays of n doubles
    CRC-32 of all the above u32

An array is a u64 byte count followed by the doubles.  E is the stored-edge
count of the layout (`model.edge_count`), and the weight arrays hold the
blocks of `model.active_blocks` back to back as in `BoltzmannMachine`.
Reading checks every length against the layout, runs `model.validate` on
the parameters and checks that the Adam moments are finite with
non-negative second moments, so a file that parses but breaks an
invariant is rejected as corrupt.  Version 3 added `method` and `k` to the
config text, so a file names the trainer that wrote it.  Older files are
rejected with `CheckpointVersionError`: version 1 holds dense n x n arrays,
and version 2 does not say whether VPF, CD or PCD trained it.  Deserializing
a serialized checkpoint and re-serializing reproduces the bytes exactly.

A `Checkpoint` is also the live training state: the trainers advance one
in place, so saving it after any epoch writes the state that epoch left.
`Checkpoint.machine()` is a view over its arrays, not a copy.
"""

from __future__ import annotations

import io
import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .model import BoltzmannMachine, LayerSpec, edge_count, validate
from .optim import AdamState, TrainConfig, parse_config_text

MAGIC = b"FLOWBMCK"
FORMAT_VERSION = 3


class CheckpointError(Exception):
    """Base class for checkpoint read failures."""


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointCorruptError(CheckpointError):
    pass


@dataclass
class Checkpoint:
    """The contents of a checkpoint file of version `FORMAT_VERSION`, and the
    training state that `training.train_vpf` and `train_cd` advance."""

    layout: LayerSpec
    weights: np.ndarray
    biases: np.ndarray
    adam: AdamState
    config: TrainConfig
    epoch: int

    def machine(self) -> BoltzmannMachine:
        """The machine over this checkpoint's own arrays; writes land here."""
        return BoltzmannMachine(self.layout, self.weights, self.biases)


def _pack_array(out: io.BytesIO, arr: np.ndarray) -> None:
    data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    out.write(struct.pack("<Q", len(data)))
    out.write(data)


def _unpack_array(buf: memoryview, offset: int, shape) -> tuple[np.ndarray, int]:
    if offset + 8 > len(buf):
        raise CheckpointCorruptError("truncated array header")
    (nbytes,) = struct.unpack_from("<Q", buf, offset)
    offset += 8
    expected = 8 * math.prod(shape)
    if nbytes != expected:
        raise CheckpointCorruptError(f"array has {nbytes} bytes, expected {expected}")
    if offset + nbytes > len(buf):
        raise CheckpointCorruptError("truncated array payload")
    arr = np.frombuffer(buf, dtype="<f8", count=nbytes // 8, offset=offset)
    offset += nbytes
    return arr.reshape(shape).astype(np.float64), offset


def serialize(ckpt: Checkpoint) -> bytes:
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(struct.pack("<I", FORMAT_VERSION))
    sizes = ckpt.layout.sizes
    out.write(struct.pack("<I", len(sizes)))
    out.write(struct.pack(f"<{len(sizes)}I", *sizes))
    intra = ckpt.layout.intra_layer
    out.write(struct.pack("<I", len(intra)))
    if intra:
        out.write(struct.pack(f"<{len(intra)}B", *(int(f) for f in intra)))
    out.write(struct.pack("<Q", ckpt.epoch))
    config_blob = ckpt.config.to_text().encode("utf-8")
    out.write(struct.pack("<Q", len(config_blob)))
    out.write(config_blob)
    n = ckpt.biases.shape[0]
    out.write(struct.pack("<I", n))
    _pack_array(out, ckpt.weights)
    _pack_array(out, ckpt.biases)
    out.write(struct.pack("<Q", ckpt.adam.t))
    for arr in (ckpt.adam.m1_w, ckpt.adam.m2_w, ckpt.adam.m1_b, ckpt.adam.m2_b):
        _pack_array(out, arr)
    body = out.getvalue()
    return body + struct.pack("<I", zlib.crc32(body))


def violations(ck: Checkpoint) -> list[tuple]:
    """`model.validate` on the parameters, then the Adam moments: one
    ("nonfinite_moment", array, index) per non-finite entry and one
    ("negative_moment", array, index) per negative second-moment entry."""
    found = validate(ck.machine())
    for name in ("m1_w", "m2_w", "m1_b", "m2_b"):
        arr = getattr(ck.adam, name)
        found += [("nonfinite_moment", name, int(i)) for i in np.flatnonzero(~np.isfinite(arr))]
        if name.startswith("m2"):
            found += [("negative_moment", name, int(i)) for i in np.flatnonzero(arr < 0)]
    return found


def deserialize(blob: bytes) -> Checkpoint:
    """Parse and validate; any entry of `violations` is corruption."""
    ck = parse(blob)
    found = violations(ck)
    if found:
        raise CheckpointCorruptError(f"invalid parameters: {found[:3]}")
    return ck


def parse(blob: bytes) -> Checkpoint:
    """Decode the byte layout without validating the parameters."""
    if len(blob) < len(MAGIC) + 8:
        raise CheckpointCorruptError("file too short to be a checkpoint")
    body, (crc,) = blob[:-4], struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(body) != crc:
        raise CheckpointCorruptError("checksum mismatch")
    buf = memoryview(body)
    if bytes(buf[: len(MAGIC)]) != MAGIC:
        raise CheckpointCorruptError(f"bad magic {bytes(buf[:len(MAGIC)])!r}")
    offset = len(MAGIC)
    (version,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"format version {version} not supported (expected {FORMAT_VERSION})"
        )
    try:
        (n_layers,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        sizes = struct.unpack_from(f"<{n_layers}I", buf, offset)
        offset += 4 * n_layers
        (n_intra,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        intra = struct.unpack_from(f"<{n_intra}B", buf, offset) if n_intra else ()
        offset += n_intra
        layout = LayerSpec(sizes, tuple(bool(f) for f in intra))
        (epoch,) = struct.unpack_from("<Q", buf, offset)
        offset += 8
        (config_len,) = struct.unpack_from("<Q", buf, offset)
        offset += 8
        if offset + config_len > len(buf):
            raise CheckpointCorruptError("truncated config text")
        config = parse_config_text(bytes(buf[offset : offset + config_len]).decode("utf-8"))
        offset += config_len
        (n,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        if n != sum(sizes):
            raise CheckpointCorruptError(f"vertex count {n} does not match layout {sizes}")
        edges = (edge_count(layout),)
        weights, offset = _unpack_array(buf, offset, edges)
        biases, offset = _unpack_array(buf, offset, (n,))
        (t,) = struct.unpack_from("<Q", buf, offset)
        offset += 8
        m1_w, offset = _unpack_array(buf, offset, edges)
        m2_w, offset = _unpack_array(buf, offset, edges)
        m1_b, offset = _unpack_array(buf, offset, (n,))
        m2_b, offset = _unpack_array(buf, offset, (n,))
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise CheckpointCorruptError(f"malformed checkpoint: {exc}") from exc
    if offset != len(buf):
        raise CheckpointCorruptError(f"{len(buf) - offset} trailing bytes")
    adam = AdamState(m1_w, m2_w, m1_b, m2_b, int(t))
    return Checkpoint(layout, weights, biases, adam, config, int(epoch))


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write through a temporary file in the same directory, then rename it
    over `path`, so a failed save leaves any earlier file intact."""
    blob = serialize(ckpt)
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
