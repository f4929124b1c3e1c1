import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_idx_images
from flowbm.data import IdxFormatError, binarize, load_binary_dataset, load_idx


class TestLoadIdx:
    def test_roundtrip(self, synthetic_idx):
        img_path, _, images, _ = synthetic_idx
        np.testing.assert_array_equal(load_idx(img_path), images)

    def test_gzip_transparent(self, tmp_path):
        rng = np.random.default_rng(0)
        images = (rng.random((7, 28, 28)) * 255).astype(np.uint8)
        path = tmp_path / "imgs.idx.gz"
        write_idx_images(path, images, gz=True)
        np.testing.assert_array_equal(load_idx(path), images)

    def test_wrong_magic_names_expected_and_found(self, tmp_path):
        path = tmp_path / "bad.idx"
        blob = bytearray()
        import struct

        blob += struct.pack(">IIII", 0x801, 2, 28, 28)  # label magic on image file
        blob += bytes(2 * 28 * 28)
        path.write_bytes(bytes(blob))
        with pytest.raises(IdxFormatError, match="0x00000803.*0x00000801"):
            load_idx(path)

    def test_magic_byte_fuzzing(self, tmp_path):
        import struct

        rng = np.random.default_rng(5)
        images = (rng.random((3, 28, 28)) * 255).astype(np.uint8)
        good = struct.pack(">IIII", 0x803, 3, 28, 28) + images.tobytes()
        rejected = 0
        for trial in range(100):
            mutated = bytearray(good)
            pos = int(rng.integers(0, 4))
            new = int(rng.integers(1, 256))
            mutated[pos] = (mutated[pos] + new) % 256
            path = tmp_path / f"fuzz{trial}.idx"
            path.write_bytes(bytes(mutated))
            with pytest.raises(IdxFormatError):
                load_idx(path)
            rejected += 1
        assert rejected == 100

    def test_truncated_payload_reports_expected_bytes(self, tmp_path):
        import struct

        path = tmp_path / "short.idx"
        blob = struct.pack(">IIII", 0x803, 4, 28, 28) + bytes(100)
        path.write_bytes(blob)
        with pytest.raises(IdxFormatError, match=str(16 + 4 * 28 * 28)):
            load_idx(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        import struct

        path = tmp_path / "long.idx"
        blob = struct.pack(">IIII", 0x803, 1, 2, 2) + bytes(4) + b"xx"
        path.write_bytes(blob)
        with pytest.raises(IdxFormatError):
            load_idx(path)

    @pytest.mark.parametrize("rows, cols", [(0, 0), (0, 28), (28, 0)])
    def test_images_with_no_pixels_rejected(self, tmp_path, rows, cols):
        # Three 0x0 images used to load as a (3, 0, 0) array.
        path = tmp_path / "empty-images.idx"
        write_idx_images(path, np.zeros((3, rows, cols), dtype=np.uint8))
        with pytest.raises(IdxFormatError, match=f"images of {rows}x{cols} hold no pixels"):
            load_idx(path)

    def test_truncated_gzip_rejected(self, tmp_path):
        # Used to raise EOFError, which the CLI does not catch.
        blob = gzip.compress(bytes(16 + 5 * 28 * 28))
        path = tmp_path / "half.idx.gz"
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(IdxFormatError, match="truncated or corrupt gzip"):
            load_idx(path)

    def test_every_single_byte_corruption_of_a_gzip_file_is_caught(self, tmp_path):
        # Some of these used to raise zlib.error.  A changed byte in a gzip
        # header field that nothing checks (such as the mtime) still loads
        # the same images; every other change must be rejected.
        rng = np.random.default_rng(11)
        images = (rng.random((3, 28, 28)) * 255).astype(np.uint8)
        path = tmp_path / "imgs.idx.gz"
        write_idx_images(path, images, gz=True)
        good = path.read_bytes()
        for trial in range(90):
            mutated = bytearray(good)
            pos = int(rng.integers(0, len(good)))
            mutated[pos] ^= int(rng.integers(1, 256))
            path.write_bytes(bytes(mutated))
            try:
                loaded = load_idx(path)
            except IdxFormatError:
                continue
            np.testing.assert_array_equal(loaded, images, err_msg=f"byte {pos}")


class TestBinarize:
    def test_extreme_pixels(self):
        bits = binarize(np.array([[[255, 0]]], dtype=np.uint8), 0.5)
        np.testing.assert_array_equal(bits, [[1, 0]])

    def test_boundary_at_half(self):
        # 128/255 = 0.50196 > 0.5 but 127/255 = 0.49804 < 0.5.
        bits = binarize(np.array([[[128, 127]]], dtype=np.uint8), 0.5)
        np.testing.assert_array_equal(bits, [[1, 0]])

    def test_threshold_range_enforced(self):
        raw = np.zeros((1, 2, 2), dtype=np.uint8)
        with pytest.raises(ValueError):
            binarize(raw, 0.0)
        with pytest.raises(ValueError):
            binarize(raw, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(threshold=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
           | st.integers(1, 254).map(lambda k: k / 255.0))
    def test_every_byte_matches_the_float_comparison(self, threshold):
        # The lookup table must give the bits of pixel/255 > threshold,
        # also at a threshold equal to some pixel/255.
        raw = np.arange(256, dtype=np.uint8).reshape(2, 8, 16)
        expected = (raw.reshape(2, -1).astype(np.float64) / 255.0 > threshold).astype(np.uint8)
        bits = binarize(raw, threshold)
        assert bits.dtype == np.uint8
        np.testing.assert_array_equal(bits, expected)

    def test_rejects_images_that_are_not_bytes(self):
        for dtype in (np.int64, np.float64, np.uint16, bool):
            with pytest.raises(ValueError, match="uint8"):
                binarize(np.zeros((1, 2, 2), dtype=dtype), 0.5)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        threshold=st.floats(0.01, 0.99, allow_nan=False),
    )
    def test_idempotent_on_binary_input(self, seed, threshold):
        rng = np.random.default_rng(seed)
        bits = (rng.random((4, 9)) < 0.5).astype(np.uint8)
        once = binarize(bits * 255, threshold)
        twice = binarize(once * 255, threshold)
        np.testing.assert_array_equal(once, twice)

    def test_flattens_to_bit_matrix(self, synthetic_idx):
        img_path, _, images, _ = synthetic_idx
        bits = load_binary_dataset(img_path, threshold=0.5)
        assert bits.shape == (120, 784) and bits.dtype == np.uint8
        # 128/255 is the smallest byte above the threshold.
        np.testing.assert_array_equal(bits, (images.reshape(120, 784) >= 128).astype(np.uint8))
