import os
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
    load_checkpoint,
    save_checkpoint,
    serialize,
)
from flowbm.model import LayerSpec, edge_count, validate
from flowbm.optim import TrainConfig, init_adam
from flowbm.training import init_state


def sample_checkpoint(seed=0, epoch=3) -> Checkpoint:
    cfg = TrainConfig(seed=seed, epochs=7, eta=0.00125)
    ck = init_state(LayerSpec((6, 4, 2), (True, False)), cfg)
    st = ck.adam
    rng = np.random.default_rng(seed)
    st.m1_w += rng.normal(0, 0.1, st.m1_w.shape)
    st.m2_w += rng.random(st.m2_w.shape)
    st.t = 41
    ck.biases += rng.normal(0, 0.2, ck.layout.n)
    ck.epoch = epoch
    return ck


class TestRoundTrip:
    def test_exact_field_recovery(self, tmp_path):
        ck = sample_checkpoint()
        path = tmp_path / "model.bin"
        save_checkpoint(path, ck)
        back = load_checkpoint(path)
        assert struct.unpack_from("<I", path.read_bytes(), len(MAGIC))[0] == FORMAT_VERSION
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
    def test_dense_v1_file_rejected(self):
        # Version 1 stored dense (n, n) arrays; it is refused, not converted.
        body = bytearray(serialize(sample_checkpoint())[:-4])
        struct.pack_into("<I", body, len(MAGIC), 1)
        doctored = bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))
        with pytest.raises(CheckpointVersionError, match="version 1 "):
            deserialize(doctored)

    def test_stores_only_the_edge_blocks(self):
        ck = sample_checkpoint()
        edges = edge_count(ck.layout)
        assert edges == 6 * 4 + 4 * 2 + 4 * 4
        assert ck.weights.shape == ck.adam.m1_w.shape == ck.adam.m2_w.shape == (edges,)
        header = len(serialize(ck)) - 8 * (3 * edges + 3 * ck.layout.n)
        assert 0 < header < 512

    def test_asymmetric_intra_block_rejected(self, tmp_path, capsys):
        ck = sample_checkpoint()
        m = ck.machine()
        m.block(1, 1)[0, 1] += 0.5
        blob = serialize(ck)  # a valid CRC over invalid parameters
        with pytest.raises(CheckpointCorruptError, match="asymmetric"):
            deserialize(blob)
        path = tmp_path / "asym.bin"
        path.write_bytes(blob)
        assert main(["inspect", "--checkpoint", str(path)]) == 2
        captured = capsys.readouterr()
        assert "validate: 1 violations, first [('asymmetric', 6, 7)]" in captured.out
        assert "fails validation" in captured.err

    def test_invalid_adam_moments_rejected(self, tmp_path, capsys):
        # A negative second moment or a NaN first moment used to load; a run
        # resumed from it stopped only at the end of its next epoch.
        ck = sample_checkpoint()
        ck.adam.m2_w[0] = -1.0
        ck.adam.m1_b[0] = np.nan
        blob = serialize(ck)
        with pytest.raises(CheckpointCorruptError, match="moment"):
            deserialize(blob)
        path = tmp_path / "moments.bin"
        path.write_bytes(blob)
        assert main(["inspect", "--checkpoint", str(path)]) == 2
        captured = capsys.readouterr()
        assert ("validate: 2 violations, first [('negative_moment', 'm2_w', 0), "
                "('nonfinite_moment', 'm1_b', 0)]") in captured.out
        assert "fails validation" in captured.err

    @pytest.mark.parametrize("where", ["diagonal", "weight", "bias"])
    def test_invalid_parameters_rejected(self, where):
        ck = sample_checkpoint()
        m = ck.machine()
        if where == "diagonal":
            m.block(1, 1)[2, 2] = 0.25
        elif where == "weight":
            m.block(0, 1)[3, 1] = np.inf
        else:
            m.biases[5] = np.nan
        with pytest.raises(CheckpointCorruptError, match="invalid parameters"):
            deserialize(serialize(ck))

    def test_wrong_vector_length_rejected(self):
        ck = sample_checkpoint()
        ck.weights = np.append(ck.weights, 0.0)
        with pytest.raises(CheckpointCorruptError, match="expected"):
            deserialize(serialize(ck))

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, sample_checkpoint(seed=1))
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            save_checkpoint(path, sample_checkpoint(seed=2))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin"]

    def test_unsupported_version(self):
        blob = serialize(sample_checkpoint())
        body = bytearray(blob[:-4])
        struct.pack_into("<I", body, len(MAGIC), FORMAT_VERSION + 9)
        doctored = bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))
        with pytest.raises(CheckpointVersionError, match=f"version {FORMAT_VERSION + 9} "):
            deserialize(doctored)

    def test_version_2_file_is_rejected(self):
        # A version-2 config text has no method line, so such a file used to
        # be resumed as VPF whichever trainer wrote it.
        ck = sample_checkpoint()
        text = ck.config.to_text().encode()
        v2_text = b"".join(line for line in text.splitlines(keepends=True)
                           if not line.startswith((b"method = ", b"k = ")))
        body = bytearray(serialize(ck)[:-4].replace(
            struct.pack("<Q", len(text)) + text, struct.pack("<Q", len(v2_text)) + v2_text))
        struct.pack_into("<I", body, len(MAGIC), 2)
        v2 = bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))
        with pytest.raises(CheckpointVersionError, match="version 2 "):
            deserialize(v2)

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

    def test_oversized_config_length_rejected(self):
        # A config length beyond the body, on a body that ends with the config
        # text, used to escape as OverflowError.
        ck = sample_checkpoint()
        body = bytearray(serialize(ck)[:-4])
        layers, flags = len(ck.layout.sizes), len(ck.layout.intra_layer)
        at = len(MAGIC) + 4 + 4 + 4 * layers + 4 + flags + 8
        (config_len,) = struct.unpack_from("<Q", body, at)
        struct.pack_into("<Q", body, at, 2**64 - 1)
        body = body[: at + 8 + config_len]
        with pytest.raises(CheckpointCorruptError, match="config"):
            deserialize(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))

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
