"""Binary checkpoint container with bit-exact round-trips.

Format version 3, one file, all integers and IEEE-754 doubles
little-endian:

    magic "FLOWBMCK"        8 bytes
    format version          u32 = 3
    layer count L, sizes    u32, L x u32
    intra flag count F      u32, F x u8 (one per hidden layer)
    epoch                   u64
    config text             u64 byte length, `TrainConfig.to_text()` in UTF-8
    vertex count n          u32
    weights                 array of E doubles
    biases                  array of n doubles
    Adam step t             u64
    m1_w, m2_w              arrays of E doubles
    m1_b, m2_b              arrays of n doubles
    CRC-32 of all the above u32

Everything before the weights is the header (`_header`).  An array is a
u64 byte count followed by the doubles.  E is the stored-edge count of the
layout (`LayerSpec.edges`), and the weight arrays hold the blocks of
`LayerSpec.blocks` back to back as in `BoltzmannMachine`.

`parse` reads the CRC-checked body through one bounds-checked `_Reader`
and accepts a header only as `_header` writes it for the layout, config
and epoch that it holds: an intra byte other than 0/1, a wrong vertex
count or config text other than `TrainConfig.to_text()` (a missing key, a
comment, `0.0010`) is corrupt, so any change to `TrainConfig`'s fields is
a format change.  Every file that `parse` accepts re-serializes to its own
bytes; `deserialize` also rejects what `violations` finds.  Version 3
added `method` and `k` to the config text.  Older files are rejected with
`CheckpointVersionError`: version 1 holds dense n x n arrays, and version
2 does not say whether VPF, CD or PCD trained it.

A `Checkpoint` is also the live training state: the trainers advance one
in place, so saving it after any epoch writes the state that epoch left.
`Checkpoint.machine()` is a view over its arrays, not a copy.
"""

from __future__ import annotations

import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .model import BoltzmannMachine, LayerSpec, validate
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


def _header(layout: LayerSpec, config: TrainConfig, epoch: int) -> bytes:
    """Magic through vertex count, the one way they are written."""
    sizes, intra = layout.sizes, layout.intra_layer
    text = config.to_text().encode("utf-8")
    return b"".join((
        MAGIC,
        struct.pack(f"<II{len(sizes)}I", FORMAT_VERSION, len(sizes), *sizes),
        struct.pack(f"<I{len(intra)}B", len(intra), *intra),
        struct.pack("<QQ", epoch, len(text)),
        text,
        struct.pack("<I", layout.n),
    ))


def _array(arr: np.ndarray) -> list:
    """A u64 byte count and the doubles, as buffers for `bytes.join`."""
    data = np.ascontiguousarray(arr, dtype="<f8")
    return [struct.pack("<Q", data.nbytes), data]


def serialize(ckpt: Checkpoint) -> bytes:
    adam = ckpt.adam
    body = b"".join([
        _header(ckpt.layout, ckpt.config, ckpt.epoch),
        *_array(ckpt.weights), *_array(ckpt.biases), struct.pack("<Q", adam.t),
        *_array(adam.m1_w), *_array(adam.m2_w), *_array(adam.m1_b), *_array(adam.m2_b),
    ])
    return body + struct.pack("<I", zlib.crc32(body))


class _Reader:
    """Consumes a checkpoint body front to back; a read past its end is
    "truncated <what>"."""

    def __init__(self, body: memoryview):
        self.body, self.pos = body, 0

    def take(self, nbytes: int, what: str) -> memoryview:
        if nbytes > len(self.body) - self.pos:
            raise CheckpointCorruptError(f"truncated {what}")
        self.pos += nbytes
        return self.body[self.pos - nbytes : self.pos]

    def ints(self, code: str, count: int, what: str) -> tuple[int, ...]:
        return struct.unpack(f"<{count}{code}", self.take(count * struct.calcsize(code), what))

    def array(self, count: int, what: str) -> np.ndarray:
        """A length-prefixed array that must hold `count` doubles."""
        (nbytes,) = self.ints("Q", 1, f"{what} length")
        if nbytes != 8 * count:
            raise CheckpointCorruptError(f"{what} has {nbytes} bytes, expected {8 * count}")
        return np.frombuffer(self.take(nbytes, what), dtype="<f8").astype(np.float64)


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
    """Decode the byte layout without validating the parameters.

    The header must equal `_header` of the layout, config and epoch read
    from it, and every array must have the length that the layout gives it.
    """
    if len(blob) < len(MAGIC) + 8:
        raise CheckpointCorruptError("file too short to be a checkpoint")
    body, (crc,) = memoryview(blob)[:-4], struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(body) != crc:
        raise CheckpointCorruptError("checksum mismatch")
    read = _Reader(body)
    magic = bytes(read.take(len(MAGIC), "magic"))
    if magic != MAGIC:
        raise CheckpointCorruptError(f"bad magic {magic!r}")
    (version,) = read.ints("I", 1, "format version")
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"format version {version} not supported (expected {FORMAT_VERSION})"
        )
    sizes = read.ints("I", read.ints("I", 1, "layer count")[0], "layer sizes")
    intra = read.ints("B", read.ints("I", 1, "intra flag count")[0], "intra flags")
    epoch, config_len = read.ints("Q", 2, "epoch and config length")
    config_text = read.take(config_len, "config text")
    read.ints("I", 1, "vertex count")
    try:
        layout = LayerSpec(sizes, intra)
        config = parse_config_text(bytes(config_text).decode("utf-8"))
        canonical = _header(layout, config, epoch)
    except (ValueError, struct.error) as exc:  # struct.error: more than 2**32 - 1 vertices
        raise CheckpointCorruptError(f"malformed checkpoint: {exc}") from exc
    if body[: read.pos] != canonical:
        raise CheckpointCorruptError("header is not as serialize writes it for its own fields")
    edges, n = layout.edges, layout.n
    weights, biases = read.array(edges, "weights"), read.array(n, "biases")
    (t,) = read.ints("Q", 1, "Adam step")
    moments = [read.array(count, name) for count, name in
               ((edges, "m1_w"), (edges, "m2_w"), (n, "m1_b"), (n, "m2_b"))]
    if read.pos != len(body):
        raise CheckpointCorruptError(f"{len(body) - read.pos} trailing bytes")
    return Checkpoint(layout, weights, biases, AdamState(*moments, t), config, epoch)


@contextmanager
def replacing(path):
    """A binary file to write `path` through: a temporary file in the same
    directory, renamed over `path` once the `with` block ends and deleted
    if it fails, so a failed write leaves any earlier file intact and
    never a part-written one."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write `ckpt` to `path` through `replacing`."""
    blob = serialize(ckpt)
    with replacing(path) as fh:
        fh.write(blob)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
