import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbm.cli import main
from flowbm.checkpoint import (
    Checkpoint,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointVersionError,
    FORMAT_VERSION,
    MAGIC,
    deserialize,
    from_training,
    load_checkpoint,
    save_checkpoint,
    serialize,
)
from flowbm.model import LayerSpec, validate
from flowbm.optim import TrainConfig, init_adam
from flowbm.training import init_state


def sample_checkpoint(seed=0, epoch=3) -> Checkpoint:
    cfg = TrainConfig(seed=seed, epochs=7, eta=0.00125)
    m, st = init_state(LayerSpec((6, 4, 2), (True, False)), cfg)
    rng = np.random.default_rng(seed)
    st.m1_w += rng.normal(0, 0.1, st.m1_w.shape)
    st.m2_w += rng.random(st.m2_w.shape)
    st.t = 41
    m.biases += rng.normal(0, 0.2, m.n)
    return from_training(m, st, cfg, epoch)


class TestRoundTrip:
    def test_exact_field_recovery(self, tmp_path):
        ck = sample_checkpoint()
        path = tmp_path / "model.bin"
        save_checkpoint(path, ck)
        back = load_checkpoint(path)
        assert back.format_version == FORMAT_VERSION
        assert back.layout == ck.layout
        assert back.epoch == ck.epoch
        assert back.config == ck.config
        assert back.adam.t == ck.adam.t
        np.testing.assert_array_equal(back.weights, ck.weights)
        np.testing.assert_array_equal(back.biases, ck.biases)
        np.testing.assert_array_equal(back.adam.m2_w, ck.adam.m2_w)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        ck = sample_checkpoint(seed=5)
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        save_checkpoint(first, ck)
        save_checkpoint(second, load_checkpoint(first))
        assert first.read_bytes() == second.read_bytes()

    def test_machine_reconstruction_is_valid(self, tmp_path):
        ck = sample_checkpoint(seed=2)
        path = tmp_path / "m.bin"
        save_checkpoint(path, ck)
        m = load_checkpoint(path).machine()
        assert validate(m) == []


class TestFailureModes:
    def test_unsupported_version(self):
        blob = serialize(sample_checkpoint())
        body = bytearray(blob[:-4])
        struct.pack_into("<I", body, len(MAGIC), FORMAT_VERSION + 9)
        doctored = bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))
        with pytest.raises(CheckpointVersionError, match="version 10"):
            deserialize(doctored)

    def test_flipped_byte_fails_checksum(self):
        blob = bytearray(serialize(sample_checkpoint()))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            deserialize(bytes(blob))

    def test_trailing_garbage_rejected(self):
        blob = serialize(sample_checkpoint())
        with pytest.raises(CheckpointCorruptError):
            deserialize(blob + b"garbage")

    def test_truncation_rejected(self):
        blob = serialize(sample_checkpoint())
        with pytest.raises(CheckpointError):
            deserialize(blob[: len(blob) // 2])
        with pytest.raises(CheckpointCorruptError):
            deserialize(b"XY")

    def test_bad_magic_with_valid_checksum(self):
        blob = serialize(sample_checkpoint())
        body = bytearray(blob[:-4])
        body[:2] = b"zz"
        doctored = bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))
        with pytest.raises(CheckpointCorruptError, match="magic"):
            deserialize(doctored)

    def test_adam_shapes_follow_machine(self):
        ck = sample_checkpoint()
        st = init_adam(ck.machine())
        assert st.m1_w.shape == ck.weights.shape
        assert (st.m2_w >= 0).all()

    def test_malformed_header_is_corrupt(self, tmp_path, capsys):
        # A valid CRC over a layer count far beyond the body used to escape
        # as a raw struct.error.
        body = bytearray(serialize(sample_checkpoint())[:-4])
        struct.pack_into("<I", body, len(MAGIC) + 4, 10**6)
        doctored = bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))
        with pytest.raises(CheckpointCorruptError):
            deserialize(doctored)
        path = tmp_path / "bad.bin"
        path.write_bytes(doctored)
        assert main(["inspect", "--checkpoint", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_array_length_must_match_shape(self):
        # The last array's length field claims 3 bytes more than its shape
        # holds; the 3 appended bytes used to be skipped without notice.
        ck = sample_checkpoint()
        body = bytearray(serialize(ck)[:-4])
        at = len(body) - ck.biases.nbytes - 8
        struct.pack_into("<Q", body, at, ck.biases.nbytes + 3)
        body += b"abc"
        with pytest.raises(CheckpointCorruptError, match="bytes"):
            deserialize(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))


_BODY = serialize(sample_checkpoint())[:-4]


@settings(max_examples=300, deadline=None)
@given(
    edits=st.lists(st.tuples(st.integers(0, 400), st.integers(0, 255)), max_size=4),
    keep=st.integers(0, len(_BODY)),
)
def test_mutated_body_with_valid_crc_fails_only_as_checkpoint_error(edits, keep):
    body = bytearray(_BODY)
    for pos, value in edits:
        body[pos] = value
    body = bytes(body[:keep])
    try:
        deserialize(body + struct.pack("<I", zlib.crc32(body)))
    except CheckpointError:
        pass
