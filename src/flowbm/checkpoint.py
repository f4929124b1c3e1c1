"""Binary checkpoint container with bit-exact round-trips.

Single-file layout (all integers and IEEE-754 doubles little-endian):
magic, format version, layer layout, epoch, config text, parameters,
optimizer state, then a CRC-32 of everything before it.  Deserializing a
serialized checkpoint and re-serializing reproduces the bytes exactly.
"""

from __future__ import annotations

import io
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .model import BoltzmannMachine, LayerSpec, build_mask
from .optim import AdamState, TrainConfig, parse_config_text

MAGIC = b"FLOWBMCK"
FORMAT_VERSION = 1


class CheckpointError(Exception):
    """Base class for checkpoint read failures."""


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointCorruptError(CheckpointError):
    pass


@dataclass
class Checkpoint:
    format_version: int
    layout: LayerSpec
    weights: np.ndarray
    biases: np.ndarray
    adam: AdamState
    config: TrainConfig
    epoch: int

    def machine(self) -> BoltzmannMachine:
        return BoltzmannMachine(
            self.layout, self.weights.copy(), self.biases.copy(), build_mask(self.layout)
        )


def from_training(
    m: BoltzmannMachine, adam: AdamState, cfg: TrainConfig, epoch: int
) -> Checkpoint:
    return Checkpoint(FORMAT_VERSION, m.layout, m.weights, m.biases, adam, cfg, epoch)


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
    out.write(struct.pack("<I", ckpt.format_version))
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


def deserialize(blob: bytes) -> Checkpoint:
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
        config = parse_config_text(bytes(buf[offset : offset + config_len]).decode("utf-8"))
        offset += config_len
        (n,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        if n != sum(sizes):
            raise CheckpointCorruptError(f"vertex count {n} does not match layout {sizes}")
        weights, offset = _unpack_array(buf, offset, (n, n))
        biases, offset = _unpack_array(buf, offset, (n,))
        (t,) = struct.unpack_from("<Q", buf, offset)
        offset += 8
        m1_w, offset = _unpack_array(buf, offset, (n, n))
        m2_w, offset = _unpack_array(buf, offset, (n, n))
        m1_b, offset = _unpack_array(buf, offset, (n,))
        m2_b, offset = _unpack_array(buf, offset, (n,))
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise CheckpointCorruptError(f"malformed checkpoint: {exc}") from exc
    if offset != len(buf):
        raise CheckpointCorruptError(f"{len(buf) - offset} trailing bytes")
    adam = AdamState(m1_w, m2_w, m1_b, m2_b, int(t))
    return Checkpoint(version, layout, weights, biases, adam, config, int(epoch))


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    blob = serialize(ckpt)
    with open(path, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
